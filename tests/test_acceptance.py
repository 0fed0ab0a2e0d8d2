"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy fixtures
(the 10^6 sieve and the three residue-class scans) are shared across
criteria.

The paper's density statements (Gerth's 4-rank law; per-row and joint
nonvanishing 1/2 and 3/4 among rank-3 n) are limits as N -> infinity,
reached only as the prime count r of n grows, at log log N speed.
Criteria 8b, 9b and 9c therefore compare the counts at N = 1e6 with the
finite-range prediction of the model behind the density argument, taken
over exactly the counted n: the symbols of the largest prime factor
q = p_r against its cofactor are equidistributed (largest_prime_twists).
Each of them prints measured, model and limit side by side.  The limits
are asserted where they live: criterion 6 (closed forms and chain fixed
points, including gerth_pmf) and criterion 7 (Monte Carlo at r = 30).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from cnkit import gf2
from cnkit.altsim import (
    ENSEMBLE_LABELS,
    alpha,
    classrank_stationary,
    corank_distribution_mc,
    delta,
    ensemble_config,
    equivalence_check,
    gerth_pmf,
    markov_stationary,
)
from cnkit.classgroup import classgroup_oracle
from cnkit.density import fourrank_census, scan
from cnkit.gf2 import F2Matrix
from cnkit.lfun import LCache, divisor_sum, verify_rows
from cnkit.monsky import (
    TwistData,
    aux_n,
    aux_p,
    build_twist,
    det_recursion_rhs,
    random_constrained_triple,
    rank3_indicator,
    redei_g,
    row_det,
    row_matrix_parts,
    rows_for_residue,
)
from cnkit.numtheory import FactoredInteger, enumerate_squarefree, sieve_init

LIMIT_ID = 10 ** 5
LIMIT_DENSITY = 10 ** 6


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))


def largest_prime_twists(f: FactoredInteger):
    """Every twist of f's model: the symbols of q = p_r against the cofactor.

    The bits (q/p_i)_+ for i < r run over all 2^(r-1) values, (p_i/q)_+
    follows by reciprocity (bit + y_i y_r) and the diagonal is reset so
    that every row sums to zero.  The cofactor block of A and the vectors
    y, z stay those of n.
    """
    t = build_twist(f)
    last = f.r - 1
    low = (1 << last) - 1
    full = tuple(range(1, f.r + 1))
    cofactor_rows = [row & low for row in t.a.rows[:last]]
    y_low = t.y.bits & low if t.y[last] else 0
    for bits in range(1 << last):
        rows = [row | ((bits >> i) & 1) << last for i, row in enumerate(cofactor_rows)]
        rows.append(bits ^ y_low)
        a = gf2.rows_normalized(F2Matrix(f.r, f.r, tuple(rows)), full, full)
        yield TwistData(f=f, y=t.y, z=t.z, a=a)


def model_expectation(members, indicators) -> list[Fraction]:
    """Model expectations summed over `members`, led by the total weight.

    Each n carries weight one, spread evenly over the 2^(r-1) twists of
    largest_prime_twists(f).  Entry 0 of the result is the summed weight;
    entry k sums indicator k-1 of the tuple indicators(twist).  Counts
    are memoised by (p_1, ..., p_{r-1}, q mod 8, parity of n), which fixes
    every input of the model.
    """
    memo: dict[tuple, tuple[int, ...]] = {}
    sums: dict[int, list[int]] = {}  # r -> counts summed over members
    for f in members:
        key = (f.odd_primes[:-1], f.odd_primes[-1] % 8, f.is_even)
        counts = memo.get(key)
        if counts is None:
            values = ((1, *indicators(tw)) for tw in largest_prime_twists(f))
            counts = memo[key] = tuple(map(sum, zip(*values)))
        acc = sums.setdefault(f.r, [0] * len(counts))
        for k, c in enumerate(counts):
            acc[k] += c
    parts = ([Fraction(c, 1 << (r - 1)) for c in acc] for r, acc in sums.items())
    return [sum(col) for col in zip(*parts)]


@pytest.fixture(scope="module")
def sieve_id():
    return sieve_init(LIMIT_ID)


@pytest.fixture(scope="module")
def sieve_big():
    return sieve_init(LIMIT_DENSITY)


@pytest.fixture(scope="module")
def scans(sieve_big):
    return {t: scan(t, LIMIT_DENSITY, sieve_big) for t in (5, 6, 7)}


@pytest.fixture(scope="module")
def scan_models(sieve_big):
    """Finite-range model for each scan, keyed by weight, rank3, the
    applicable rows and joint (rank 3 with some row nonzero)."""
    out = {}
    for t in (5, 6, 7):
        rows = rows_for_residue(t)

        def indicators(tw):
            r3 = int(rank3_indicator(tw))
            nonzero = [row_det(row, tw) for row in rows]
            return (r3, *nonzero, r3 & int(any(nonzero)))

        values = model_expectation(
            enumerate_squarefree(t, 8, LIMIT_DENSITY, sieve_big), indicators
        )
        out[t] = dict(zip(("weight", "rank3", *rows, "joint"), values))
    return out


def test_criterion_01_row_identities(sieve_id):
    t0 = time.time()
    cache = LCache()
    failures = 0
    checked = 0
    for f in enumerate_squarefree(1, 1, LIMIT_ID, sieve_id):
        for row, check in verify_rows(f, cache).items():
            checked += 1
            if not check.equal:
                failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 300
    report(
        "1 determinant = divisor sum, all n <= 1e5",
        ok,
        f"{checked} row checks, {failures} mismatches, {elapsed:.1f}s",
    )
    assert failures == 0
    assert elapsed < 300


def test_criterion_02_det_recursion():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        r = int(rng.integers(1, 11))
        a, y, z = random_constrained_triple(rng, r)
        if gf2.det(row_matrix_parts("1", a, y, z)) != det_recursion_rhs(a, y, z):
            failures += 1
    report("2 subset recursion for the residue-1 determinant", failures == 0,
           f"{failures} failures / 1000")
    assert failures == 0


def test_criterion_03_aux_identities(sieve_id):
    rng = np.random.default_rng(3)
    p_fail = 0
    for _ in range(1000):
        r = int(rng.integers(0, 11))
        a, y, z = random_constrained_triple(rng, r)
        got = gf2.det(aux_p(a, y, z))
        want = gf2.det(a + F2Matrix.diag(z)) if y.parity() == 0 else 0
        if got != want:
            p_fail += 1
    n_fail = 0
    total = 0
    gcache: dict[int, int] = {}

    def g_of(mask, f, t):
        d = 1
        for i in range(f.r):
            if (mask >> i) & 1:
                d *= f.odd_primes[i]
        got = gcache.get(d)
        if got is None:
            members = tuple(i + 1 for i in range(f.r) if (mask >> i) & 1)
            from cnkit.monsky import redei_g_parts

            got = redei_g_parts(
                gf2.rows_normalized(t.a, members, members),
                t.z.restrict(members),
                d % 4,
            )
            gcache[d] = got
        return d, got

    for f in enumerate_squarefree(5, 8, LIMIT_ID, sieve_id):
        t = build_twist(f)
        total += 1
        rhs = 0
        full = (1 << f.r) - 1
        for mask in range(1 << f.r):
            d, gd = g_of(mask, f, t)
            if d % 8 == 3 and gd:
                rhs ^= gd & g_of(full ^ mask, f, t)[1]
        if gf2.det(aux_n(t.a, t.z, t.y)) != rhs:
            n_fail += 1
    ok = p_fail == 0 and n_fail == 0
    report("3 bordered-determinant identities", ok,
           f"P: {p_fail}/1000 bad, N: {n_fail}/{total} bad")
    assert p_fail == 0
    assert n_fail == 0


def test_criterion_04_nonvanishing_needs_rank3(sieve_id):
    cache = LCache()
    violations = 0
    checked = 0
    for t in (5, 6, 7):
        for f in enumerate_squarefree(t, 8, LIMIT_ID, sieve_id):
            twist = build_twist(f)
            r3 = rank3_indicator(twist)
            for row in rows_for_residue(t):
                checked += 1
                if divisor_sum(row, f, cache, twist) and not r3:
                    violations += 1
    report("4 nonzero divisor sum implies Selmer rank 3", violations == 0,
           f"{checked} checks, {violations} violations")
    assert violations == 0


def test_criterion_05_ensemble_equivalence(sieve_id):
    want_delta = {"5a": 1, "5b": 1, "5ab": 1, "6": 1, "7a": 0, "7b": 0, "7ab": 0}
    delta_bad = [k for k, v in want_delta.items() if delta(ensemble_config(k)) != v]
    disagreements = 0
    checked = 0
    for label in ENSEMBLE_LABELS:
        cfg = ensemble_config(label)
        cache = LCache()
        if label == "6":
            members = (f for f in enumerate_squarefree(3, 4, LIMIT_ID, sieve_id))
        elif label.startswith("5"):
            members = (f for f in enumerate_squarefree(5, 8, LIMIT_ID, sieve_id))
        else:
            members = (f for f in enumerate_squarefree(7, 8, LIMIT_ID, sieve_id))
        for f in members:
            assert cfg.accepts(f.n)
            checked += 1
            if not equivalence_check(label, f, cache).agrees:
                disagreements += 1
    ok = not delta_bad and disagreements == 0
    report("5 nonvanishing iff minimal ensemble corank", ok,
           f"{checked} checks, {disagreements} disagreements, delta mismatches {delta_bad}")
    assert not delta_bad
    assert disagreements == 0


def test_criterion_06_limit_law():
    a0, a1 = alpha(0), alpha(1)
    checks = {
        "alpha1 window": 0.8388 < a1 < 0.8389,
        "alpha ratio": abs(a0 / a1 - 0.5) < 1e-12,
        "even sum": abs(sum(alpha(k) for k in range(0, 64, 2)) - 1.0) < 1e-12,
        "odd sum": abs(sum(alpha(k) for k in range(1, 64, 2)) - 1.0) < 1e-12,
    }
    even = markov_stationary("even", k_max=64)
    odd = markov_stationary("odd", k_max=64)
    checks["stationary even"] = all(abs(even[k] - alpha(k)) < 1e-6 for k in range(0, 11, 2))
    checks["stationary odd"] = all(abs(odd[k] - alpha(k)) < 1e-6 for k in range(1, 11, 2))
    cls = classrank_stationary(k_max=64)
    checks["class-rank stationary"] = all(
        abs(cls[k] - gerth_pmf(k)) < 1e-6 for k in range(9)
    )
    bad = [k for k, v in checks.items() if not v]
    report("6 closed-form limit law and chain fixed points", not bad, f"failed: {bad}")
    assert not bad


def test_criterion_07_monte_carlo():
    failures = []
    for label in ENSEMBLE_LABELS:
        cfg = ensemble_config(label)
        hist = corank_distribution_mc(cfg, r=30, samples=10 ** 5, seed=20240 + cfg.t)
        d = cfg.delta_expected
        parity_bad = [k for k in hist.counts if k % 2 != cfg.t % 2]
        k0 = (cfg.t + d) % 2  # smallest admissible corank offset
        freq = hist.frequency(d + k0)
        dev = abs(freq - alpha(k0))
        if parity_bad or dev > 0.01:
            failures.append((label, round(freq, 4), parity_bad))
        print(f"  mc {label}: freq(corank=delta+{k0}) = {freq:.4f} "
              f"vs alpha_{k0} = {alpha(k0):.4f}")
    report("7 Monte Carlo corank frequencies at r=30", not failures, str(failures))
    assert not failures


def test_criterion_08a_oracle_agreement(sieve_id):
    disagreements = []
    for f in enumerate_squarefree(1, 1, 2000, sieve_id):
        if (redei_g(f) == 1) != (classgroup_oracle(f).four_rank == 0):
            disagreements.append(f.n)
    report("8a Redei determinant vs class-group oracle, n <= 2000",
           not disagreements, f"{len(disagreements)} disagreements")
    assert not disagreements


def four_rank_indicators(tw: TwistData) -> tuple[int, ...]:
    """One-hot 4-rank k = 0..3, read off as four_rank does: the corank of
    A with its first row and column deleted."""
    idx = tuple(range(2, tw.f.r + 1))
    k = gf2.corank(gf2.submatrix(tw.a, idx, idx))
    return tuple(int(k == j) for j in range(4))


def test_criterion_08b_fourrank_census(sieve_big):
    census = fourrank_census(LIMIT_DENSITY, sieve_big)
    weight, *expected = model_expectation(
        enumerate_squarefree(3, 4, LIMIT_DENSITY, sieve_big), four_rank_indicators
    )
    assert weight == census.total
    model = {k: float(expected[k] / weight) for k in range(4)}
    devs = {k: abs(census.frequency(k) - model[k]) for k in range(4)}
    detail = ", ".join(
        f"k={k}: {census.frequency(k):.4f} vs model {model[k]:.4f} "
        f"(limit {gerth_pmf(k):.4f})"
        for k in range(4)
    )
    ok = all(d <= 0.02 for d in devs.values())
    report("8b 4-rank census at 1e6 within 0.02 of the finite-range model", ok, detail)
    assert ok, f"4-rank census departs from the finite-range model; deviations {devs}"


def test_criterion_09a_rank3_frequency(scans):
    devs = {}
    for t, rep in scans.items():
        freq = rep.rank3_count / rep.squarefree_count
        devs[t] = abs(freq - 0.8388)
        print(f"  rank3 t={t}: {freq:.4f}")
    ok = all(d <= 0.03 for d in devs.values())
    report("9a rank-3 frequency at 1e6 within 0.03 of 0.8388", ok, str(devs))
    assert ok


def test_criterion_09b_row_conditionals(scans, scan_models):
    bad = {}
    lines = []
    for t, rep in scans.items():
        model = scan_models[t]
        assert model["weight"] == rep.squarefree_count
        for row in rows_for_residue(t):
            freq = rep.row_nonzero.get(row, 0) / rep.rank3_count
            want = float(model[row] / model["rank3"])
            lines.append(f"{row}: {freq:.4f} vs model {want:.4f} (limit 0.5)")
            if abs(freq - want) > 0.03:
                bad[row] = (round(freq, 4), round(want, 4))
    report("9b per-row conditional frequency within 0.03 of the finite-range model",
           not bad, ", ".join(lines))
    assert not bad, (
        "per-row conditional nonvanishing departs from the finite-range model; "
        f"(measured, model): {bad}"
    )


def test_criterion_09c_joint_conditionals(scans, scan_models):
    bad = {}
    lines = []
    for t in (5, 7):
        rep, model = scans[t], scan_models[t]
        assert model["weight"] == rep.squarefree_count
        freq = rep.joint_nonzero / rep.rank3_count
        want = float(model["joint"] / model["rank3"])
        lines.append(f"t={t}: {freq:.4f} vs model {want:.4f} (limit 0.75)")
        if abs(freq - want) > 0.03:
            bad[t] = (round(freq, 4), round(want, 4))
    report("9c joint conditional frequency within 0.03 of the finite-range model",
           not bad, ", ".join(lines))
    assert not bad, (
        "joint conditional nonvanishing departs from the finite-range model; "
        f"(measured, model): {bad}"
    )


def test_criterion_09d_certified_lower_bounds(scans):
    bounds = {5: 0.629, 6: 0.419, 7: 0.629}
    bad = {}
    for t, low in bounds.items():
        freq = scans[t].certified_count / scans[t].squarefree_count
        print(f"  certified t={t}: {freq:.4f} (bound {low})")
        if freq < low - 0.03:
            bad[t] = round(freq, 4)
    sel3 = {t: scans[t].sel3_violations for t in scans}
    ident = {t: scans[t].identity_mismatches for t in scans}
    ok = not bad and not any(sel3.values()) and not any(ident.values())
    report("9d certified-congruent frequencies meet the lower bounds", ok,
           f"below bound: {bad}, sel3 violations {sel3}, identity mismatches {ident}")
    assert ok


def test_criterion_10_seeded_determinism(tmp_path):
    from cnkit.cli import main

    outs = []
    for workers in (1, 2, 3):
        path = str(tmp_path / f"sim{workers}.csv")
        code = main(
            ["simulate", "--row", "5ab", "--r", "14", "--samples", "6000",
             "--seed", "99", "--workers", str(workers), "--out", path]
        )
        assert code == 0
        outs.append(open(path, "rb").read())
    ok = outs[0] == outs[1] == outs[2]
    report("10 seeded runs byte-identical across worker counts", ok)
    assert ok
