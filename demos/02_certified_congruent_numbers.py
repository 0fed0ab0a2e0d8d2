"""List the certified congruent numbers of each admissible residue class.

A nonzero divisor sum in an applicable row forces analytic rank one, so
every number printed here is a congruent number, witnessed by its row.
"""

from cnkit.density import certified_table
from cnkit.monsky import rows_for_residue
from cnkit.numtheory import sieve_init

LIMIT = 2000
sieve = sieve_init(LIMIT)

for residue in (5, 6, 7):
    rows = rows_for_residue(residue)
    certs = certified_table(residue, LIMIT, sieve).certified.tolist()
    sample = ", ".join(f"{n}({rows[k]})" for n, k, _ in certs[:12])
    print(f"residue {residue} mod 8: {len(certs)} certified up to {LIMIT}")
    print(f"  first entries: {sample}")

# the classic example: 5, 6, 7 are congruent numbers; 21 too
small = certified_table(5, 40, sieve).certified["n"].tolist()
print(f"\ncertified n = 5 (mod 8) up to 40: {small}")
