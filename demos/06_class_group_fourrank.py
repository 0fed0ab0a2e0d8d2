"""4-rank of imaginary quadratic class groups: determinant criterion vs
the brute-force class-group oracle, and the slow drift of the census
toward its limit distribution."""

from cnkit.altsim import four_rank, gerth_pmf
from cnkit.classgroup import classgroup_oracle
from cnkit.density import fourrank_census
from cnkit.monsky import redei_g
from cnkit.numtheory import sieve_init, try_factor_squarefree

sieve = sieve_init(10 ** 5)

print("determinant criterion vs enumerated class groups, n <= 2000:")
checked = agree = 0
for n in range(1, 2001):
    f = try_factor_squarefree(n)
    if f is None:
        continue
    checked += 1
    info = classgroup_oracle(f)
    agree += (redei_g(f) == 1) == (info.four_rank == 0)
print(f"  {agree}/{checked} agree")

print("\nspot checks (n, class number, 2-rank, 4-rank):")
for n in (5, 14, 21, 34, 39, 210):
    f = try_factor_squarefree(n)
    info = classgroup_oracle(f)
    extra = f"  matrix 4-rank = {four_rank(f)}" if n % 4 == 3 else ""
    print(f"  n={n}: h={info.h}, 2-rank={info.two_rank}, 4-rank={info.four_rank}{extra}")

print("\n4-rank census over n = 3 (mod 4) up to 10^5 (limit law converges")
print("only at log-log speed, so the gap below is expected):")
census = fourrank_census(10 ** 5, sieve)
for k in range(4):
    print(f"  k={k}: frequency {census.frequency(k):.4f}   limit {gerth_pmf(k):.4f}")
