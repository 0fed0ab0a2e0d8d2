"""Range scans: rank-3 proportions, nonvanishing frequencies, certified
congruent numbers, and the 4-rank census.

Scans aggregate pure counts over contiguous blocks of n, so parallel
runs merge associatively and any worker count produces byte-identical
reports.  Every scanned n is also pushed through the row identities as a
standing cross-check.

A scan runs in numpy throughout.  Each call first tabulates g(d) for
every squarefree d up to its limit (`monsky.redei_g_table`), once, and
hands the table to every block (to every worker in the pool path).  Each
block is cut into slices of 8 * CHUNK integers; a slice is factored at
once (`numtheory.factor_squarefree_range`), and the n of each prime
count r get their divisor sums from one `lfun.divisor_sums_batch` call
over the table, their twist symbols from one `monsky.twist_batch` call,
and every applicable row form, plus the residue-1 or residue-2 form that
gives the Selmer rank, is ranked in one `monsky.form_coranks` call.  The
two columns share the factorization and the symbols but no form: a
wrong g or a wrong row form shows as an identity mismatch.

The census has no divisor sums and runs in numpy throughout: each block
is cut into slices, a slice is factored at once, and its n of each prime
count r get their 4-ranks from one `altsim.four_rank_batch` call.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .altsim import four_rank_batch, gerth_pmf
from .lfun import LCache, divisor_sum, divisor_sums_batch
from .monsky import (
    SELMER_FORM,
    build_twist,
    form_coranks,
    rank3_indicator,
    redei_g_table,
    rows_for_residue,
    twist_batch,
)
from .numtheory import (
    PrimeSieve,
    factor_squarefree_range,
    sieve_init,
    try_factor_squarefree,
)

__all__ = [
    "BLOCK",
    "CHUNK",
    "DensityReport",
    "FourRankCensus",
    "Certificate",
    "wilson_ci",
    "scan",
    "certified_table",
    "fourrank_census",
]

BLOCK = 1 << 16  # block length for parallel partitioning
CHUNK = 1024  # same-r twists ranked together in a scan block

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_ci(count: int, total: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    p = count / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class DensityReport:
    """Counts from one residue-class scan.

    For t in {5, 6, 7}: rank-3 and nonvanishing counts plus certified
    congruent numbers.  For t in {1, 2, 3}: the 2-Selmer rank histogram.
    identity_mismatches and sel3_violations are standing assertions and
    must stay zero.
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


@dataclass(frozen=True)
class Certificate:
    """A certified congruent number and the row witnessing it."""

    n: int
    residue: int
    row: str
    rank3: bool
    value: int


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

    def reference(self, k: int) -> float:
        return gerth_pmf(k)


# Per-worker state: the sieve is built once per process by the pool
# initializer (cheap next to the scan itself) and shared by its blocks;
# a scan worker also keeps the g table of its scan call.
_WORKER_SIEVE: dict[int, PrimeSieve] = {}
_WORKER_GTABLE: bytes | None = None


def _get_sieve(limit: int) -> PrimeSieve:
    sieve = _WORKER_SIEVE.get(limit)
    if sieve is None:
        sieve = sieve_init(limit)
        _WORKER_SIEVE[limit] = sieve
    return sieve


def _init_worker(limit: int, gtable: bytes | None = None) -> None:
    global _WORKER_GTABLE
    _get_sieve(limit)
    _WORKER_GTABLE = gtable


def _scan_block(args, gtable: bytes | None = None) -> DensityReport:
    """Scan one block; gtable is the scan's g table, or the worker's one in
    the pool path."""
    residue, sieve_limit, lo, hi = args
    sieve = _get_sieve(sieve_limit)
    if gtable is None:
        gtable = _WORKER_GTABLE
    rep = DensityReport(residue=residue, limit=sieve_limit)
    # A slice of 8 * CHUNK integers holds at most CHUNK n = residue (mod
    # 8), which bounds the twists ranked together.
    for s_lo, s_hi in _spans(lo, hi, 8 * CHUNK):
        ns, primes = factor_squarefree_range(s_lo, s_hi, sieve, residue, 8)
        rep.squarefree_count += ns.size
        r = (primes != 0).sum(axis=1)
        for rv in np.unique(r).tolist():
            pick = r == rv
            stack = primes[pick, :rv]
            sums = divisor_sums_batch(residue, ns[pick], stack, gtable)
            _tally(rep, sums, *twist_batch(stack))
    return rep


def _tally(
    rep: DensityReport, sums: np.ndarray, a: np.ndarray, y: np.ndarray, z: np.ndarray
) -> None:
    """Add a stack of same-r n, given by their (count, rows) divisor sums
    and their `twist_batch` arrays, to the report."""
    rows = rows_for_residue(rep.residue)
    form, value = SELMER_FORM[rep.residue]
    labels = rows if form in rows else rows + (form,)
    coranks = form_coranks(labels, a, y, z)
    dets = (coranks[: len(rows)] == 0).T
    rep.identity_mismatches += int((sums != dets).any(axis=1).sum())
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
    else:
        ranks, counts = np.unique(form_corank + value, return_counts=True)
        for rank, count in zip(ranks.tolist(), counts.tolist()):
            rep.selmer_rank_hist[rank] = rep.selmer_rank_hist.get(rank, 0) + count


def _spans(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """[lo, hi) cut into consecutive (lo, hi) pairs at most width long."""
    return [(a, min(a + width, hi)) for a in range(lo, hi, width)]


def scan(residue: int, limit: int, sieve: PrimeSieve, workers: int = 1) -> DensityReport:
    """Aggregate statistics over squarefree n = residue (mod 8), n <= limit."""
    if residue not in (1, 2, 3, 5, 6, 7):
        raise ValueError(f"residue must be in {{1,2,3,5,6,7}}, got {residue}")
    if limit > sieve.limit:
        raise ValueError(f"limit {limit} exceeds sieve limit {sieve.limit}")
    _WORKER_SIEVE.setdefault(sieve.limit, sieve)
    gtable = redei_g_table(limit, sieve, odd_only=residue % 2 == 1)
    blocks = [(residue, sieve.limit, lo, hi) for lo, hi in _spans(1, limit + 1, BLOCK)]
    rep = DensityReport(residue=residue, limit=limit)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(sieve.limit, gtable)
        ) as pool:
            for part in pool.map(_scan_block, blocks):
                rep.merge(part)
    else:
        for blk in blocks:
            rep.merge(_scan_block(blk, gtable))
    return rep


def certified_table(
    residue: int, limit: int, sieve: PrimeSieve
) -> Iterator[Certificate]:
    """Certified congruent numbers n = residue (mod 8) up to limit.

    Emits each n whose applicable divisor sum is nonzero, labeled by the
    first witnessing row; by the nonvanishing criterion these n have
    analytic rank one and are congruent numbers.
    """
    if residue not in (5, 6, 7):
        raise ValueError(f"certification applies to residues 5, 6, 7; got {residue}")
    if limit > sieve.limit:
        raise ValueError(f"limit {limit} exceeds sieve limit {sieve.limit}")
    cache = LCache(gtable=redei_g_table(limit, sieve, odd_only=residue % 2 == 1))
    rows = rows_for_residue(residue)
    for n in range(residue, limit + 1, 8):
        f = try_factor_squarefree(n, sieve)
        if f is None:
            continue
        for row in rows:
            value = divisor_sum(row, f, cache)
            if value:
                yield Certificate(
                    n=n,
                    residue=residue,
                    row=row,
                    rank3=rank3_indicator(build_twist(f)),
                    value=value,
                )
                break


def _census_block(args) -> FourRankCensus:
    sieve_limit, lo, hi = args
    sieve = _get_sieve(sieve_limit)
    census = FourRankCensus(limit=sieve_limit)
    # A slice of 16 * CHUNK integers holds 4 * CHUNK n = 3 (mod 4), which
    # bounds the arrays a block holds at once.
    for s_lo, s_hi in _spans(lo, hi, 16 * CHUNK):
        ns, primes = factor_squarefree_range(s_lo, s_hi, sieve, residue=3, modulus=4)
        census.total += ns.size
        r = (primes != 0).sum(axis=1)
        for rv in np.unique(r).tolist():
            ks, counts = np.unique(four_rank_batch(primes[r == rv, :rv]), return_counts=True)
            for k, c in zip(ks.tolist(), counts.tolist()):
                census.counts[k] = census.counts.get(k, 0) + c
    return census


def fourrank_census(limit: int, sieve: PrimeSieve, workers: int = 1) -> FourRankCensus:
    """Empirical 4-rank distribution over squarefree n = 3 (mod 4), n <= limit."""
    if limit > sieve.limit:
        raise ValueError(f"limit {limit} exceeds sieve limit {sieve.limit}")
    _WORKER_SIEVE.setdefault(sieve.limit, sieve)
    blocks = [(sieve.limit, lo, hi) for lo, hi in _spans(1, limit + 1, BLOCK)]
    census = FourRankCensus(limit=limit)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(sieve.limit,)
        ) as pool:
            for part in pool.map(_census_block, blocks):
                census.merge(part)
    else:
        for blk in blocks:
            census.merge(_census_block(blk))
    return census
