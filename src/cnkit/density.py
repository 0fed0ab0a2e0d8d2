"""Range scans: rank-3 proportions, nonvanishing frequencies, certified
congruent numbers, the row-identity check, and the 4-rank census.

Scans aggregate pure counts over contiguous blocks of n, so parallel
runs merge associatively and any worker count produces byte-identical
reports.  Every scanned n is also pushed through the row identities as a
standing cross-check.

`scan`, `certified_table` and `identity_check` run one block function,
`_scan_block`.  g(d) for every squarefree d up to their limit is
tabulated once per process (`monsky.redei_g_table`, which holds only the
largest table built, a limit + 1-byte read-only array, until exit) and
passed with the sieve to every block as an argument, so no run leaves
state here.  Each block of `BLOCK` integers is factored once and yields
its n as one stack per prime count r (`numtheory.same_r_stacks`), at
most BLOCK / 8 n.  A stack gets its divisor sums from
`lfun.divisor_sums_batch` (cut to `lfun.PAIR_BUDGET` pairs) and the
coranks of its row forms and its Selmer form from one
`monsky.row_coranks` call.  Every form reads only the P = r(r-1)/2
symbols above A's diagonal and the bits y and z, so for 1 <= r <= 4
(all but 21, 12 and 22 of the n = 5, 6 and 7 (mod 8) up to 1e5)
`row_coranks` looks each n up at the code of those P + 2r bits in a
table of at most 2^14 entries a form, built once per process by
`monsky.form_coranks`; for any other r it builds and ranks the forms of
those bits directly.
Every stack records each (n, row) whose two columns differ, so the
identity is checked on every n that a scan counts, that
`certified_table` certifies (the row is the first nonzero sum) and that
`identity_check` (a scan of each of the six residues, all their blocks
in one `map_blocks` pass) reports.  The columns share the factorization
and the symbols but no form or table: the divisor sums read the g table
at each divisor of the actual n, so a wrong g, a wrong row form or a
wrong form-table entry shows as an identity mismatch.

The census has no divisor sums and ranks no form of its own: each
same-r stack, at most BLOCK / 4 n, gets its 4-ranks from one
`monsky.four_ranks` call.  The 4-rank of n = 3 (mod 4) is the corank of
the r x r g form of n, which reads A and not z, and A is fixed by the
P = r(r-1)/2 symbols above its diagonal and the r bits p_i = 3 (mod 4).
So for r <= 5 (all but 23 of the 202,650 n up to 1e6) `four_ranks`
looks each n up in a table of at most 2^15 one-byte entries at the code
of those P + r bits, built once per process by the g table's form
ranking, the same way; for a larger r it ranks the forms of those bits
directly.

The block pass has one integer division and no sum across a short
axis: the factorization divides by the sieve's smallest prime factor in
exact float64 and takes the stack of each prime count r once, at exact
size, from its table of primes; the twist reads p mod 4 and p mod 8
from low bits and packs the symbols once, into the codes of the scan's
and the census's tables or, past them, into A's row words (diagonal
from the popcount parity of each row); and
the 4-rank and Selmer-rank histograms are `np.bincount`s.  The division
left is the int64 `d % p` of `numtheory.legendre_plus_bulk`, which
indexes the quadratic-residue table: a float64 remainder measured slower
(108 against 94 us over the symbol pairs of a census block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .lfun import divisor_sums_batch
from .monsky import SELMER_FORM, four_ranks, redei_g_table, row_coranks, rows_for_residue
from .numtheory import BLOCK, PrimeSieve, map_blocks, same_r_stacks, spans

__all__ = [
    "BLOCK",
    "DensityReport",
    "FourRankCensus",
    "wilson_ci",
    "scan",
    "certified_table",
    "identity_check",
    "fourrank_census",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_ci(count: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    z = _Z95
    p = count / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# A certified n, the index of its first nonzero row and its rank-3 flag.
_CERTIFIED = np.dtype([("n", np.int64), ("row", np.uint8), ("rank3", np.bool_)])


@dataclass
class DensityReport:
    """Counts from one residue-class scan.

    For t in {5, 6, 7}: rank-3 and nonvanishing counts plus certified
    congruent numbers.  For t in {1, 2, 3}: the 2-Selmer rank histogram.
    identity_mismatches and sel3_violations are standing assertions and
    must stay zero; mismatches lists each (n, row, divisor sum,
    determinant) that differs, sorted.  certified, sorted by n, is filled
    by `certified_table` only; `==` and `merge` skip it.
    """

    residue: int
    limit: int
    squarefree_count: int = 0
    rank3_count: int = 0
    row_nonzero: dict[str, int] = field(default_factory=dict)
    joint_nonzero: int = 0
    certified_count: int = 0
    selmer_rank_hist: dict[int, int] = field(default_factory=dict)
    identity_mismatches: int = 0
    sel3_violations: int = 0
    mismatches: list[tuple[int, str, int, int]] = field(default_factory=list)
    certified: np.ndarray = field(
        default_factory=lambda: np.empty(0, _CERTIFIED), compare=False, repr=False
    )

    def merge(self, other: "DensityReport") -> None:
        self.squarefree_count += other.squarefree_count
        self.rank3_count += other.rank3_count
        for k, v in other.row_nonzero.items():
            self.row_nonzero[k] = self.row_nonzero.get(k, 0) + v
        self.joint_nonzero += other.joint_nonzero
        self.certified_count += other.certified_count
        for k, v in other.selmer_rank_hist.items():
            self.selmer_rank_hist[k] = self.selmer_rank_hist.get(k, 0) + v
        self.identity_mismatches += other.identity_mismatches
        self.sel3_violations += other.sel3_violations
        self.mismatches += other.mismatches

    def metrics(self) -> list[tuple[str, int, int]]:
        """(metric, count, total) triples in a fixed order for reports."""
        out = [("squarefree", self.squarefree_count, self.squarefree_count)]
        if self.residue in (5, 6, 7):
            out.append(("rank3", self.rank3_count, self.squarefree_count))
            for row in rows_for_residue(self.residue):
                out.append(
                    (f"row{row}_nonzero", self.row_nonzero.get(row, 0), self.squarefree_count)
                )
                out.append(
                    (
                        f"row{row}_nonzero_given_rank3",
                        self.row_nonzero.get(row, 0),
                        self.rank3_count,
                    )
                )
            out.append(("joint_nonzero_given_rank3", self.joint_nonzero, self.rank3_count))
            out.append(("certified", self.certified_count, self.squarefree_count))
        else:
            for rank in sorted(self.selmer_rank_hist):
                out.append(
                    (f"selmer_rank{rank}", self.selmer_rank_hist[rank], self.squarefree_count)
                )
        out.append(("identity_mismatches", self.identity_mismatches, self.squarefree_count))
        out.append(("sel3_violations", self.sel3_violations, self.squarefree_count))
        return out


@dataclass
class FourRankCensus:
    """Histogram of class-group 4-ranks over n = 3 (mod 4)."""

    limit: int
    total: int = 0
    counts: dict[int, int] = field(default_factory=dict)

    def merge(self, other: "FourRankCensus") -> None:
        self.total += other.total
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v

    def frequency(self, k: int) -> float:
        return self.counts.get(k, 0) / self.total if self.total else 0.0


def _scan_block(args, sieve, gtable, certify) -> DensityReport:
    """The report of the squarefree n = residue (mod 8) in [lo, hi)."""
    residue, lo, hi = args
    rep = DensityReport(residue=residue, limit=sieve.limit)
    for ns, stack in same_r_stacks(lo, hi, sieve, residue, 8):
        rep.squarefree_count += ns.size
        sums = divisor_sums_batch(residue, ns, stack, gtable)
        _tally(rep, ns, sums, stack, certify)
    rep.mismatches.sort()
    rep.certified = rep.certified.take(np.argsort(rep.certified["n"]))
    return rep


def _tally(
    rep: DensityReport, ns: np.ndarray, sums: np.ndarray, primes: np.ndarray, certify: bool
) -> None:
    """Add a stack of same-r n, given by their (count, rows) divisor sums
    and their (count, r) odd primes, to the report."""
    rows = rows_for_residue(rep.residue)
    form, value = SELMER_FORM[rep.residue]
    labels = rows if form in rows else rows + (form,)
    coranks = row_coranks(labels, primes)
    dets = (coranks[: len(rows)] == 0).T
    differ = sums != dets
    rep.identity_mismatches += int(differ.any(axis=1).sum())
    for k, j in zip(*np.nonzero(differ)):
        rep.mismatches.append((int(ns[k]), rows[j], int(sums[k, j]), int(dets[k, j])))
    form_corank = coranks[labels.index(form)]
    if rep.residue in (5, 6, 7):
        r3 = form_corank == value
        rep.rank3_count += int(r3.sum())
        for row, hits in zip(rows, sums.sum(axis=0).tolist()):
            if hits:
                rep.row_nonzero[row] = rep.row_nonzero.get(row, 0) + hits
        rep.sel3_violations += int((sums & ~r3[:, None]).sum())
        nonzero = sums.any(axis=1)
        rep.certified_count += int(nonzero.sum())
        rep.joint_nonzero += int((nonzero & r3).sum())
        if certify:
            (hit,) = np.nonzero(nonzero)
            found = np.empty(hit.size, _CERTIFIED)
            found["n"], found["rank3"] = ns.take(hit), r3.take(hit)
            found["row"] = sums.take(hit, axis=0).argmax(axis=1)
            rep.certified = np.concatenate((rep.certified, found))
    else:
        _add_counts(rep.selmer_rank_hist, form_corank + value)


def scan(residue: int, limit: int, sieve: PrimeSieve, workers: int = 1) -> DensityReport:
    """Aggregate statistics over squarefree n = residue (mod 8), n <= limit."""
    return _scan((residue,), limit, sieve, workers, certify=False)[0]


def _scan(
    residues: tuple[int, ...], limit: int, sieve: PrimeSieve, workers: int, certify: bool
) -> list[DensityReport]:
    """The `scan` of each residue, from one `map_blocks` pass over the
    blocks of all of them; past the sieve limit `redei_g_table` raises
    ValueError before any work."""
    for residue in residues:
        if residue not in (1, 2, 3, 5, 6, 7):
            raise ValueError(f"residue must be in {{1,2,3,5,6,7}}, got {residue}")
    reps = {t: DensityReport(residue=t, limit=limit) for t in residues}
    certified = {t: [rep.certified] for t, rep in reps.items()}
    blocks = [(t, lo, hi) for t in residues for lo, hi in spans(1, limit + 1, BLOCK)]
    shared = (sieve, redei_g_table(limit, sieve), certify)
    for part in map_blocks(_scan_block, blocks, workers, shared):
        reps[part.residue].merge(part)
        certified[part.residue].append(part.certified)
    for t, rep in reps.items():
        rep.certified = np.concatenate(certified[t])
    return list(reps.values())


def certified_table(
    residue: int, limit: int, sieve: PrimeSieve, workers: int = 1
) -> DensityReport:
    """The scan of n = residue (mod 8) up to limit with its certified n.

    `certified` lists each n whose applicable divisor sum is nonzero,
    labeled by the index of the first witnessing row in
    `rows_for_residue(residue)`; by the nonvanishing criterion these n
    have analytic rank one and are congruent numbers.
    """
    if residue not in (5, 6, 7):
        raise ValueError(f"certification applies to residues 5, 6, 7; got {residue}")
    return _scan((residue,), limit, sieve, workers, certify=True)[0]


def identity_check(
    limit: int, sieve: PrimeSieve, workers: int = 1
) -> tuple[int, int, list[tuple[int, str, int, int]]]:
    """Divisor sum against determinant for every row at every squarefree
    n <= limit: the mismatches of a `scan` of each residue, whose blocks
    all go through one `map_blocks` pass (one pool, one g table).

    Returns the number of rows and of n checked, and the mismatches as
    (n, row, divisor sum, determinant), sorted by n and then by row.
    """
    rows_checked = n_checked = 0
    bad = []
    for rep in _scan((1, 2, 3, 5, 6, 7), limit, sieve, workers, certify=False):
        n_checked += rep.squarefree_count
        rows_checked += rep.squarefree_count * len(rows_for_residue(rep.residue))
        bad += rep.mismatches
    return rows_checked, n_checked, sorted(bad)


def _census_block(args, sieve) -> FourRankCensus:
    """The 4-rank histogram of the squarefree n = 3 (mod 4) in [lo, hi),
    counted by `np.bincount` from the `four_ranks` of each stack."""
    lo, hi = args
    census = FourRankCensus(limit=sieve.limit)
    for ns, stack in same_r_stacks(lo, hi, sieve, residue=3, modulus=4):
        census.total += ns.size
        _add_counts(census.counts, four_ranks(stack))
    return census


def _add_counts(hist: dict[int, int], values: np.ndarray) -> None:
    """Add the histogram of the nonnegative ints values to hist, the
    values seen taken in ascending order."""
    for k, c in enumerate(np.bincount(values).tolist()):
        if c:
            hist[k] = hist.get(k, 0) + c


def fourrank_census(limit: int, sieve: PrimeSieve, workers: int = 1) -> FourRankCensus:
    """Empirical 4-rank distribution over squarefree n = 3 (mod 4), n <= limit."""
    if limit > sieve.limit:  # no g table is built to check it
        raise ValueError(f"limit {limit} exceeds sieve limit {sieve.limit}")
    census = FourRankCensus(limit=limit)
    blocks = spans(1, limit + 1, BLOCK)
    for part in map_blocks(_census_block, blocks, workers, (sieve,)):
        census.merge(part)
    return census
