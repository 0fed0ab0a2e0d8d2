"""The benchmark workloads: scan567, census and simulate30.

Constructing a workload is its set-up (what `setup_s` measures).  A round
is a fixed list of operations on inputs made from the seed and the round
index; a run repeats whole rounds, so the share of failed operations is
the same in every run.  Outputs are checked after the timed phase.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np

from cnkit import altsim, density
from cnkit.classgroup import classgroup_oracle
from cnkit.numtheory import sieve_init

import checks

SCAN_LIMIT = 100_000
SCAN_RESIDUES = (5, 6, 7)
CENSUS_LIMIT = 1_000_000
ORACLE_SAMPLE = 16
MC_R = 30
MC_SAMPLES = 4096  # one Monte Carlo block (altsim.MC_BLOCK) per configuration
CHECK_SAMPLES = 256
# The block compared with the scalar path is drawn from a fixed seed, so
# that the eighth configuration fails on every run whatever --seed is.
CHECK_SEED = 20160328


class Scan567:
    """density.scan for residues 5, 6 and 7 up to SCAN_LIMIT; one
    operation per residue, one item per squarefree n scanned."""

    name = "scan567"
    sieve_limit = SCAN_LIMIT
    known_fault = None
    repeats_exactly = True

    def __init__(self, seed: int):
        self.sieve = sieve_init(SCAN_LIMIT)
        self._ref = None

    def operations(self, index: int) -> list:
        return [partial(density.scan, t, SCAN_LIMIT, self.sieve) for t in SCAN_RESIDUES]

    def items(self, outputs) -> int:
        return sum(rep.squarefree_count for rep in outputs)

    def problems(self, outputs) -> list[list[str]]:
        if self._ref is None:
            self._ref = checks.ScanReference.build(SCAN_LIMIT)
        return [checks.scan_problems(rep, self._ref) for rep in outputs]

    def rows(self, outputs) -> list[str]:
        return [f"{rep.residue},{m},{c},{t}" for rep in outputs for m, c, t in rep.metrics()]


class Census:
    """density.fourrank_census up to CENSUS_LIMIT as one operation; one
    item per squarefree n = 3 (mod 4) classified."""

    name = "census"
    sieve_limit = CENSUS_LIMIT
    known_fault = None
    repeats_exactly = True

    def __init__(self, seed: int):
        self.sieve = sieve_init(CENSUS_LIMIT)
        self.seed = seed
        self._reference = None

    def operations(self, index: int) -> list:
        return [partial(density.fourrank_census, CENSUS_LIMIT, self.sieve)]

    def items(self, outputs) -> int:
        return outputs[0].total

    def problems(self, outputs) -> list[list[str]]:
        if self._reference is None:
            total = checks.count_squarefree(checks.squarefree_flags(CENSUS_LIMIT), 3, 4)
            sample = checks.four_rank_sample(
                CENSUS_LIMIT, np.random.default_rng(self.seed), ORACLE_SAMPLE
            )
            oracle_problems = checks.four_rank_problems(
                sample, altsim.four_rank, classgroup_oracle, bound=CENSUS_LIMIT
            )
            self._reference = (total, oracle_problems)
        total, oracle_problems = self._reference
        return [checks.census_problems(outputs[0], total) + oracle_problems]

    def rows(self, outputs) -> list[str]:
        census = outputs[0]
        return [f"{k},{census.counts[k]},{census.total}" for k in sorted(census.counts)]


def configurations() -> list[altsim.AltConfig]:
    """The seven stock ensembles, then stock 7a with d_diag = -1 (still
    labelled 7a, which is what exposes the Monte Carlo lookup by label)."""
    stock = [altsim.ensemble_config(label) for label in altsim.ENSEMBLE_LABELS]
    custom = dataclasses.replace(
        altsim.ensemble_config("7a"), d_diag=-1, delta_expected=None
    )
    out = stock + [custom]
    for cfg in out:
        altsim.validate_config(cfg)
    return out


class Simulate30:
    """altsim.corank_distribution_mc at r = 30, one block of MC_SAMPLES
    per configuration; one operation per configuration, one item per
    matrix ranked."""

    name = "simulate30"
    sieve_limit = 0
    # corank_distribution_mc rebuilds the configuration from its label, so
    # the eighth configuration gets stock 7a's histogram.
    known_fault = 7
    repeats_exactly = False

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = configurations()
        self.deltas = [
            c.delta_expected if c.delta_expected is not None else altsim.delta(c)
            for c in self.configs
        ]
        self._exact = None

    def operations(self, index: int) -> list:
        seed = self.seed * 1000 + index
        return [
            partial(altsim.corank_distribution_mc, cfg, MC_R, MC_SAMPLES, seed)
            for cfg in self.configs
        ]

    def items(self, outputs) -> int:
        return sum(h.samples for h in outputs)

    def problems(self, outputs) -> list[list[str]]:
        if self._exact is None:
            self._exact = [
                checks.exact_block_problems(
                    cfg,
                    altsim.corank_distribution_mc(cfg, MC_R, CHECK_SAMPLES, CHECK_SEED).counts,
                    checks.scalar_block_histogram(cfg, MC_R, CHECK_SEED, CHECK_SAMPLES),
                )
                for cfg in self.configs
            ]
        return [
            checks.histogram_problems(h, cfg, d, MC_SAMPLES) + exact
            for h, cfg, d, exact in zip(outputs, self.configs, self.deltas, self._exact)
        ]

    def rows(self, outputs) -> list[str]:
        return [
            f"{i},{h.label},{cfg.d_diag},{h.seed},{k},{h.counts[k]}"
            for i, (h, cfg) in enumerate(zip(outputs, self.configs))
            for k in sorted(h.counts)
        ]


WORKLOADS = {w.name: w for w in (Scan567, Census, Simulate30)}
