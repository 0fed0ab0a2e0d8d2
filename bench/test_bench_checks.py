"""The benchmark's output checks pass on real outputs and fail on
corrupted ones: an off-by-one count, a histogram with a corank of the
wrong parity, and a histogram from a swapped configuration.

    PYTHONPATH=src python3 -m pytest bench
"""

from dataclasses import replace

import numpy as np
import pytest

from cnkit import altsim, density
from cnkit.classgroup import classgroup_oracle
from cnkit.numtheory import sieve_init

import checks

LIMIT = 20_000


@pytest.fixture(scope="module")
def sieve():
    return sieve_init(LIMIT)


def test_reference_counts_match_small_cases():
    sqf = checks.squarefree_flags(50)
    assert [n for n in range(1, 51) if sqf[n]][:12] == [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17]
    ref = checks.ScanReference.build(100)
    # primes 5, 13, 29, 37, 53, 61 (5 mod 8); 7, 23, 31, 47, 71, 79 (7 mod 8);
    # 2p for p = 3, 7, 11, 19, 23, 31, 43, 47 (3 mod 4, 2p <= 100)
    assert ref.congruent_known == {5: 6, 6: 8, 7: 6}


def test_scan_checks(sieve):
    ref = checks.ScanReference.build(LIMIT)
    for t in (5, 6, 7):
        rep = density.scan(t, LIMIT, sieve)
        assert checks.scan_problems(rep, ref) == []
        assert checks.scan_problems(replace(rep, squarefree_count=rep.squarefree_count + 1), ref)
        assert checks.scan_problems(replace(rep, identity_mismatches=1), ref)
        assert checks.scan_problems(replace(rep, sel3_violations=1), ref)
        assert checks.scan_problems(replace(rep, certified_count=ref.congruent_known[t] - 1), ref)


def test_census_checks(sieve):
    census = density.fourrank_census(LIMIT, sieve)
    total = checks.count_squarefree(checks.squarefree_flags(LIMIT), 3, 4)
    assert checks.census_problems(census, total) == []
    assert checks.census_problems(replace(census, total=census.total + 1), total)
    assert checks.census_problems(census, total + 1)


def test_four_rank_checks():
    sample = checks.four_rank_sample(LIMIT, np.random.default_rng(0), 4)
    assert all(f.n % 4 == 3 and f.n <= LIMIT for f in sample)
    assert checks.four_rank_problems(sample, altsim.four_rank, classgroup_oracle, LIMIT) == []

    def off_by_one(f):
        return altsim.four_rank(f) + 1

    assert checks.four_rank_problems(sample, off_by_one, classgroup_oracle, LIMIT)


def test_histogram_checks():
    samples = 256
    cfg7, cfg5 = altsim.ensemble_config("7a"), altsim.ensemble_config("5a")
    h7 = altsim.corank_distribution_mc(cfg7, 30, samples, seed=5)
    h5 = altsim.corank_distribution_mc(cfg5, 30, samples, seed=5)
    assert checks.histogram_problems(h7, cfg7, 0, samples) == []
    assert checks.histogram_problems(h5, cfg5, 1, samples) == []

    odd = dict(h7.counts)
    odd[0] -= 1
    odd[1] = 1
    assert checks.histogram_problems(replace(h7, counts=odd), cfg7, 0, samples)
    assert checks.histogram_problems(h5, cfg7, 0, samples)  # swapped configuration
    short = replace(h7, counts={k: v - (k == 0) for k, v in h7.counts.items()})
    assert checks.histogram_problems(short, cfg7, 0, samples)


def test_exact_block_checks():
    count = 64
    cfg7, cfg5 = altsim.ensemble_config("7a"), altsim.ensemble_config("5a")
    got7 = altsim.corank_distribution_mc(cfg7, 30, count, seed=9).counts
    got5 = altsim.corank_distribution_mc(cfg5, 30, count, seed=9).counts
    want7 = checks.scalar_block_histogram(cfg7, 30, 9, count)
    assert checks.exact_block_problems(cfg7, got7, want7) == []
    assert checks.exact_block_problems(cfg7, got5, want7)  # swapped configuration
