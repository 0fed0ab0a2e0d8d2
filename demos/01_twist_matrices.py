"""Build the per-twist GF(2) data for a few small n and check each
residue row: the divisor sum and the determinant form always agree."""

from cnkit.lfun import LCache, verify_rows
from cnkit.monsky import build_twist, row_matrix, rows_for_residue
from cnkit.numtheory import factor_squarefree, try_factor_squarefree

cache = LCache()

for n in (5, 6, 7, 15, 33, 34, 41, 210, 1155):
    f = factor_squarefree(n)
    t = build_twist(f)
    print(f"n = {n}: odd primes {f.odd_primes}, y = {t.y.tolist()}, z = {t.z.tolist()}")
    for row in rows_for_residue(n % 8):
        m = row_matrix(row, t)
        print(f"  row {row}: {m.nrows}x{m.ncols} matrix")
        for line in m.tolist():
            print("    " + " ".join(str(b) for b in line))
    for row, check in verify_rows(f, cache, t).items():
        flag = "ok" if check.equal else "MISMATCH"
        print(f"  row {row}: divisor sum = {check.sum_value}, det = {check.det_value}  [{flag}]")
    print()

print("Verifying the identity for every squarefree n up to 10^4 ...")
bad = 0
for n in range(1, 10 ** 4 + 1):
    f = try_factor_squarefree(n)
    if f is None:
        continue
    bad += sum(not c.equal for c in verify_rows(f, cache).values())
print(f"mismatches: {bad}")
