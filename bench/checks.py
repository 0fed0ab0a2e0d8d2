"""Output checks for the benchmark workloads.

Every reference here is computed apart from the code path the benchmark
times: squarefree and prime counts come from plain bytearray sieves,
factorizations for the class-group oracle from trial division, and the
Monte Carlo histograms are compared with the scalar GF(2) path.  None of
the checks is a stored copy of an earlier output.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from cnkit import gf2
from cnkit.altsim import AltConfig, alpha, build_alt, draw_assignments
from cnkit.numtheory import FactoredInteger


def squarefree_flags(limit: int) -> bytearray:
    """flags[n] == 1 iff n is squarefree, for 0 < n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = 0
    for p in range(2, math.isqrt(limit) + 1):
        sq = p * p
        flags[sq::sq] = bytes(len(range(sq, limit + 1, sq)))
    return flags


def prime_flags(limit: int) -> bytearray:
    """flags[n] == 1 iff n is prime, for 0 <= n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def count_squarefree(flags: bytearray, residue: int, modulus: int) -> int:
    return sum(flags[residue::modulus])


@dataclass(frozen=True)
class ScanReference:
    """Independent counts for a residue scan up to `limit`.

    congruent_known counts the n that Monsky's and Heegner's theorems make
    congruent: primes p = 5, 7 (mod 8), and n = 2p with p = 3 (mod 4).
    Every such n must be certified by a nonzero divisor sum.
    """

    limit: int
    squarefree: dict[int, int]
    congruent_known: dict[int, int]

    @classmethod
    def build(cls, limit: int) -> "ScanReference":
        sqf = squarefree_flags(limit)
        primes = prime_flags(limit)
        return cls(
            limit=limit,
            squarefree={t: count_squarefree(sqf, t, 8) for t in (5, 6, 7)},
            congruent_known={
                5: sum(primes[5::8]),
                6: sum(primes[3 : limit // 2 + 1 : 4]),
                7: sum(primes[7::8]),
            },
        )


def scan_problems(rep, ref: ScanReference) -> list[str]:
    """Check one density.DensityReport of a residue 5, 6 or 7 scan."""
    t = rep.residue
    out = []
    if rep.squarefree_count != ref.squarefree[t]:
        out.append(
            f"residue {t}: squarefree_count {rep.squarefree_count} != {ref.squarefree[t]}"
        )
    if rep.identity_mismatches:
        out.append(f"residue {t}: {rep.identity_mismatches} divisor-sum/det mismatches")
    if rep.sel3_violations:
        out.append(f"residue {t}: {rep.sel3_violations} nonzero rows without rank 3")
    if rep.certified_count < ref.congruent_known[t]:
        out.append(
            f"residue {t}: certified_count {rep.certified_count} < "
            f"{ref.congruent_known[t]} known congruent n"
        )
    return out


def census_problems(census, expected_total: int) -> list[str]:
    """Check a density.FourRankCensus against an independent total."""
    out = []
    if census.total != expected_total:
        out.append(f"census total {census.total} != {expected_total}")
    if sum(census.counts.values()) != census.total:
        out.append(f"census counts sum to {sum(census.counts.values())}, not {census.total}")
    if any(k < 0 for k in census.counts):
        out.append("census has a negative 4-rank")
    return out


def factor_by_trial_division(n: int) -> FactoredInteger | None:
    """FactoredInteger for squarefree n, or None, without the library sieve."""
    primes = []
    m = n
    is_even = m % 2 == 0
    if is_even:
        m //= 2
        if m % 2 == 0:
            return None
    p = 3
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return None
            primes.append(p)
        p += 2
    if m > 1:
        primes.append(m)
    return FactoredInteger(n=n, odd_primes=tuple(primes), is_even=is_even)


def four_rank_sample(limit: int, rng: np.random.Generator, count: int) -> list[FactoredInteger]:
    """`count` squarefree n = 3 (mod 4), one drawn from each of `count`
    equal slices of [1, limit]."""
    out = []
    width = limit // count
    for i in range(count):
        while True:
            n = int(rng.integers(i * width, (i + 1) * width)) // 4 * 4 + 3
            f = factor_by_trial_division(n) if 0 < n <= limit else None
            if f is not None:
                out.append(f)
                break
    return out


def four_rank_problems(sample, four_rank, oracle, bound: int) -> list[str]:
    """The library's four_rank against the class-group oracle on a sample."""
    out = []
    for f in sample:
        got = four_rank(f)
        want = oracle(f, bound=bound).four_rank
        if got != want:
            out.append(f"four_rank({f.n}) = {got}, class-group oracle says {want}")
    return out


def histogram_problems(hist, cfg: AltConfig, delta: int, samples: int) -> list[str]:
    """Check a Monte Carlo CorankHistogram for configuration `cfg`.

    Coranks of the (2r+t)-dimensional alternating matrices have the parity
    of t and are at least delta; the frequency at delta + k0 must lie
    within six standard errors of alpha(k0).
    """
    out = []
    total = sum(hist.counts.values())
    if total != samples:
        out.append(f"{cfg.label}: histogram sums to {total}, not {samples}")
    odd = sorted(k for k in hist.counts if k % 2 != cfg.t % 2)
    if odd:
        out.append(f"{cfg.label}: coranks {odd} have the wrong parity for t={cfg.t}")
    low = sorted(k for k in hist.counts if k < delta)
    if low:
        out.append(f"{cfg.label}: coranks {low} below delta={delta}")
    k0 = (cfg.t + delta) % 2
    a = alpha(k0)
    freq = hist.counts.get(delta + k0, 0) / samples
    tol = 6.0 * math.sqrt(a * (1.0 - a) / samples)
    if abs(freq - a) > tol:
        out.append(
            f"{cfg.label}: frequency {freq:.4f} at corank {delta + k0} is not within "
            f"{tol:.4f} of alpha({k0}) = {a:.4f}"
        )
    return out


def block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    )


def scalar_block_histogram(cfg: AltConfig, r: int, seed: int, count: int) -> dict[int, int]:
    """Coranks of block 0 of a Monte Carlo run, through the scalar path:
    gf2.corank(build_alt(cfg, a)) over the same draws."""
    draws = draw_assignments(cfg, r, block_rng(seed, 0), count)
    return dict(Counter(gf2.corank(build_alt(cfg, a)) for a in draws))


def exact_block_problems(cfg: AltConfig, got: dict[int, int], want: dict[int, int]) -> list[str]:
    if got == want:
        return []
    return [
        f"{cfg.label} (d_diag={cfg.d_diag}): Monte Carlo block {sorted(got.items())} "
        f"!= scalar path {sorted(want.items())}"
    ]
