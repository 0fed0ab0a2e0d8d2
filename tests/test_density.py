import hashlib

import numpy as np
import pytest

from cnkit import density, monsky
from cnkit.density import (
    certified_table,
    fourrank_census,
    identity_check,
    scan,
    wilson_ci,
)
from cnkit.numtheory import PrimeSieve, sieve_init


@pytest.fixture(scope="module")
def sieve():
    return sieve_init(10 ** 5)


def test_wilson_ci():
    lo, hi = wilson_ci(50, 100)
    assert lo < 0.5 < hi
    assert wilson_ci(0, 0) == (0.0, 1.0)
    lo, hi = wilson_ci(0, 100)
    assert lo < 1e-12 and hi < 0.05
    lo, hi = wilson_ci(100, 100)
    assert hi > 1 - 1e-12 and lo > 0.95


def test_certified_table_small(sieve):
    # Row indices point into rows_for_residue: 5a, 6 and 7a come first.
    certs = certified_table(5, 40, sieve).certified
    assert certs.tolist() == [(n, 0, True) for n in (5, 13, 21, 29, 37)]
    assert certified_table(7, 10, sieve).certified.tolist() == [(7, 0, True)]
    assert certified_table(6, 10, sieve).certified.tolist() == [(6, 0, True)]
    assert certified_table(5, 0, sieve).certified.tolist() == []
    with pytest.raises(ValueError):
        certified_table(1, 10, sieve)


@pytest.mark.parametrize("residue", [5, 6, 7])
def test_certified_table_matches_scalar(sieve, residue):
    # Every squarefree n <= 1e5, n by n: the first row with a nonzero
    # scalar divisor sum (g computed, not tabulated) and rank3_indicator.
    from cnkit.lfun import LCache, divisor_sum
    from cnkit.monsky import build_twist, rank3_indicator, rows_for_residue
    from cnkit.numtheory import try_factor_squarefree

    limit = 10 ** 5
    rows = rows_for_residue(residue)
    cache = LCache()
    want = []
    for n in range(residue, limit + 1, 8):
        f = try_factor_squarefree(n, sieve)
        if f is None:
            continue
        hits = [row for row in rows if divisor_sum(row, f, cache)]
        if hits:
            want.append((n, hits[0], rank3_indicator(build_twist(f))))
    rep = certified_table(residue, limit, sieve)
    got = [(n, rows[k], r3) for n, k, r3 in rep.certified.tolist()]
    assert got == want
    assert {row for _, row, _ in got} == set(rows)
    assert all(type(n) is int and type(r3) is bool for n, _, r3 in got)
    assert rep.identity_mismatches == rep.sel3_violations == 0


def test_certified_tables_consumed_in_turn():
    # A table over a sieve of its own limit and one over a larger sieve
    # agree: a serial run holds no state across blocks or sieves.
    big, small = sieve_init(140_000), sieve_init(70_000)
    want = certified_table(5, 70_000, big).certified
    assert want.size
    assert np.array_equal(certified_table(5, 70_000, small).certified, want)


def test_certified_subset_of_rank3(sieve):
    # The table's report is the scan's, with its certified n attached.
    rep = scan(5, 20000, sieve)
    table = certified_table(5, 20000, sieve)
    assert table == rep and rep.certified.size == 0
    assert table.certified.size == rep.certified_count
    assert table.certified["rank3"].all()
    assert np.all(np.diff(table.certified["n"]) > 0)
    assert rep.certified_count <= rep.rank3_count


def test_scan_counts_against_direct_enumeration(sieve):
    from cnkit.lfun import LCache, divisor_sum
    from cnkit.monsky import build_twist, rank3_indicator
    from cnkit.numtheory import try_factor_squarefree

    rep = scan(5, 5000, sieve)
    cache = LCache()
    sf = r3 = n5a = joint = 0
    for n in range(5, 5001, 8):
        f = try_factor_squarefree(n, sieve)
        if f is None:
            continue
        sf += 1
        t = build_twist(f)
        ind = rank3_indicator(t)
        r3 += ind
        a = divisor_sum("5a", f, cache, t)
        b = divisor_sum("5b", f, cache, t)
        n5a += a
        if (a or b) and ind:
            joint += 1
    assert rep.squarefree_count == sf
    assert rep.rank3_count == r3
    assert rep.row_nonzero["5a"] == n5a
    assert rep.joint_nonzero == joint


def test_scan_identities_hold(sieve):
    for t in (1, 2, 3, 5, 6, 7):
        rep = scan(t, 3000, sieve)
        assert rep.identity_mismatches == 0
        assert rep.sel3_violations == 0
        if t in (5, 6, 7):
            for row, cnt in rep.row_nonzero.items():
                assert cnt <= rep.rank3_count


def test_scan_selmer_histogram(sieve):
    rep = scan(1, 10 ** 4, sieve)
    assert sum(rep.selmer_rank_hist.values()) == rep.squarefree_count
    assert set(rep.selmer_rank_hist) <= {2, 4, 6, 8, 10}
    rep3 = scan(3, 10 ** 4, sieve)
    assert set(rep3.selmer_rank_hist) <= {2, 4, 6, 8, 10}
    # One block: the ranks seen are inserted in ascending order, as
    # np.unique would list them.
    for hist in (rep.selmer_rank_hist, rep3.selmer_rank_hist):
        assert list(hist) == sorted(hist) and 0 not in hist.values()


def test_scan_worker_independence(sieve):
    limit = (1 << 16) + 30000  # spans two blocks
    seq = scan(5, limit, sieve, workers=1)
    par = scan(5, limit, sieve, workers=3)
    assert seq == par


def test_scan_errors(sieve):
    with pytest.raises(ValueError):
        scan(4, 100, sieve)
    with pytest.raises(ValueError):
        scan(5, 10 ** 7, sieve)


def test_range_functions_raise_past_the_sieve_limit(sieve):
    # The scans check through `redei_g_table`, the census on its own.
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        certified_table(5, 10 ** 5 + 1, sieve)
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        identity_check(10 ** 5 + 1, sieve)
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        fourrank_census(10 ** 5 + 1, sieve)


def test_g_table_and_census_pinned_at_1e6():
    sieve = sieve_init(10 ** 6)
    table = monsky._build_g_table(10 ** 6, sieve)
    assert hashlib.sha256(table.tobytes()).hexdigest() == (
        "045d6828c2ab262ccbf51fc8291b650f5e4a727f0d0870af5f1fcc0d679c15b9"
    )
    census = fourrank_census(10 ** 6, sieve)
    assert census.counts == {0: 117795, 1: 80507, 2: 4345, 3: 3}
    assert list(census.counts) == [0, 1, 2, 3]
    assert census.total == 202_650


def test_census_small(sieve):
    from cnkit.altsim import four_rank
    from cnkit.numtheory import try_factor_squarefree

    census = fourrank_census(10 ** 4, sieve)
    assert census.total == sum(census.counts.values())
    # counts equal a direct enumeration
    direct: dict[int, int] = {}
    total = 0
    for n in range(3, 10 ** 4 + 1, 4):
        f = try_factor_squarefree(n, sieve)
        if f is None:
            continue
        total += 1
        k = four_rank(f)
        direct[k] = direct.get(k, 0) + 1
    assert census.total == total
    assert census.counts == direct
    assert list(census.counts) == sorted(direct)  # one block, ascending


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 65536, 65537, 65539])
def test_census_edge_limits(sieve, limit):
    # limit < 3 has no n; 65536 ends the first block, 65537 and 65539
    # open a second block of one and three integers.
    from cnkit.altsim import four_rank
    from cnkit.numtheory import enumerate_squarefree

    direct: dict[int, int] = {}
    for f in enumerate_squarefree(3, 4, limit, sieve):
        k = four_rank(f)
        direct[k] = direct.get(k, 0) + 1
    census = fourrank_census(limit, sieve)
    assert census.counts == direct
    assert census.total == sum(direct.values())


def test_census_table_path_equals_kernel_path(sieve, monkeypatch):
    # With no r tabled every stack ranks its g forms (`_redei_coranks`);
    # the table path gives the same census at 1e5 and at the edge limits.
    limits = (10 ** 5, 0, 1, 2, 3, 65536, 65537, 65539)
    default = [fourrank_census(limit, sieve) for limit in limits]
    monkeypatch.setattr(density, "_TABLE_R", 0)
    assert [fourrank_census(limit, sieve) for limit in limits] == default
    assert default[0].total == sum(default[0].counts.values()) > 0


def test_census_worker_independence(sieve):
    limit = (1 << 16) + 30000
    seq = fourrank_census(limit, sieve, workers=1)
    par = fourrank_census(limit, sieve, workers=3)
    assert seq == par


def test_metrics_rows(sieve):
    rep = scan(5, 2000, sieve)
    metrics = {m: (c, t) for m, c, t in rep.metrics()}
    assert metrics["rank3"][1] == rep.squarefree_count
    assert "row5a_nonzero_given_rank3" in metrics
    assert metrics["identity_mismatches"][0] == 0
    rep1 = scan(1, 2000, sieve)
    names = [m for m, _, _ in rep1.metrics()]
    assert any(name.startswith("selmer_rank") for name in names)


def _scalar_scan(residue, limit, sieve):
    """The per-n scan: verify_rows, rank3_indicator and selmer_rank."""
    from cnkit.density import DensityReport
    from cnkit.lfun import LCache, verify_rows
    from cnkit.monsky import build_twist, rank3_indicator, rows_for_residue, selmer_rank
    from cnkit.numtheory import try_factor_squarefree

    cache = LCache()
    rep = DensityReport(residue=residue, limit=limit)
    for n in range(residue, limit + 1, 8):
        f = try_factor_squarefree(n, sieve)
        if f is None:
            continue
        rep.squarefree_count += 1
        tw = build_twist(f)
        checks = verify_rows(f, cache, tw)
        rep.identity_mismatches += any(not c.equal for c in checks.values())
        if residue in (5, 6, 7):
            r3 = rank3_indicator(tw)
            rep.rank3_count += r3
            hits = [row for row in rows_for_residue(residue) if checks[row].sum_value]
            for row in hits:
                rep.row_nonzero[row] = rep.row_nonzero.get(row, 0) + 1
                rep.sel3_violations += not r3
            rep.certified_count += bool(hits)
            rep.joint_nonzero += bool(hits) and r3
        else:
            rank = selmer_rank(tw)
            rep.selmer_rank_hist[rank] = rep.selmer_rank_hist.get(rank, 0) + 1
    return rep


@pytest.mark.parametrize("residue", [1, 2, 3, 5, 6, 7])
def test_scan_matches_scalar_reference(sieve, residue):
    assert scan(residue, 6000, sieve) == _scalar_scan(residue, 6000, sieve)


@pytest.mark.parametrize("residue", [3, 7])
def test_scan_chunk_independence(monkeypatch, residue):
    # Blocks of 4099 integers, not a multiple of 8, start at any residue;
    # neither the block size nor the worker count changes the scan.
    limit = 2 * (1 << 16) + 4000  # spans three default blocks
    sieve = sieve_init(limit)
    default = scan(residue, limit, sieve)
    par = scan(residue, limit, sieve, workers=3)
    monkeypatch.setattr(density, "BLOCK", 4099)
    small = scan(residue, limit, sieve)
    assert small == default
    assert par == default


def test_block_partition_independence(monkeypatch):
    # The same 4099-integer blocks leave every other block-wise result as
    # it is with the default block size.
    limit = 2 * (1 << 16) + 4000  # spans three default blocks
    sieve = sieve_init(limit)

    def results():
        return (
            [certified_table(residue, limit, sieve).certified.tolist() for residue in (5, 6, 7)],
            identity_check(limit, sieve),
            fourrank_census(limit, sieve),
            monsky._build_g_table(limit, sieve),
        )

    default = results()
    monkeypatch.setattr(density, "BLOCK", 4099)
    monkeypatch.setattr(monsky, "BLOCK", 4099)
    got = results()
    assert got[:3] == default[:3]
    assert np.array_equal(got[3], default[3])


def test_one_factorization_per_block(sieve, monkeypatch, cold_g_table):
    # A g-table build, a one-residue scan, a certified table and the
    # census each factor every block of the range once, and the identity
    # check once for each of its six residues.
    import cnkit.numtheory as numtheory

    calls = []
    factor = numtheory._factor_range  # behind same_r_stacks, imported by name

    def counting(*args):
        calls.append(args)
        return factor(*args)

    monkeypatch.setattr(numtheory, "_factor_range", counting)
    limit = sieve.limit
    blocks = -(-limit // density.BLOCK)
    assert blocks == 2
    for run, passes in (
        (lambda: monsky.redei_g_table(limit, sieve), 1),
        (lambda: scan(5, limit, sieve), 1),
        (lambda: certified_table(5, limit, sieve), 1),
        (lambda: identity_check(limit, sieve), 6),
        (lambda: fourrank_census(limit, sieve), 1),
    ):
        calls.clear()
        run()
        assert len(calls) == passes * blocks


@pytest.mark.parametrize("residue", [2, 5, 6, 7])
def test_scan_pair_budget_independence(sieve, monkeypatch, residue):
    # Stacks cut to a few n (one n from r = 4 on) give the same report.
    import cnkit.lfun as lfun

    limit = 30_000
    default = scan(residue, limit, sieve)
    monkeypatch.setattr(lfun, "PAIR_BUDGET", 50)
    assert scan(residue, limit, sieve) == default


@pytest.mark.parametrize("residue", [1, 5, 6, 7])
def test_scan_edge_limits(sieve, residue):
    # 0 and 1 scan at most n = 1; 5 and 8 end inside the first slice;
    # 65536 ends the first block, 65537 and 65543 open a second block of
    # one and seven integers.
    for limit in (0, 1, 5, 8, 65536, 65537, 65543):
        assert scan(residue, limit, sieve) == _scalar_scan(residue, limit, sieve), limit


def test_scan_workers_across_blocks():
    limit = 140_000  # three blocks
    sieve = sieve_init(limit)
    assert scan(6, limit, sieve, workers=2) == scan(6, limit, sieve, workers=1)


def test_certify_and_identity_check_workers_across_blocks(monkeypatch):
    # identity_check sends the blocks of all six residues to one pool.
    from concurrent.futures import ProcessPoolExecutor
    import cnkit.numtheory as numtheory

    pools = []

    def counting(workers, **kwargs):
        pools.append(workers)
        return ProcessPoolExecutor(workers, **kwargs)

    monkeypatch.setattr(numtheory, "ProcessPoolExecutor", counting)
    limit = 140_000  # three blocks
    sieve = sieve_init(limit)
    one, two = certified_table(7, limit, sieve), certified_table(7, limit, sieve, workers=2)
    assert one == two and one.certified.size
    assert np.array_equal(one.certified, two.certified)
    assert pools == [2]
    assert identity_check(limit, sieve, workers=2) == identity_check(limit, sieve)
    assert pools == [2, 2]


def test_scan_round_builds_one_g_table(sieve, cold_g_table):
    # Every call at one limit reads the table of the first, also across
    # residues, certification and the identity check.
    limit = 70_000  # two blocks, so that two workers start a pool
    reports = [scan(residue, limit, sieve) for residue in (5, 6, 7)]
    assert certified_table(5, limit, sieve).certified.size
    assert identity_check(limit, sieve)[2] == []
    assert cold_g_table == [limit]
    assert all(rep.identity_mismatches == 0 for rep in reports)
    assert scan(5, limit, sieve, workers=2) == reports[0]
    assert cold_g_table == [limit]


def test_serial_run_keeps_no_g_table(sieve, cold_g_table):
    # After a serial run the only holder of its table is the cache, so a
    # larger build does not keep the old table alive next to the new one.
    scan(5, 1000, sieve)
    old = monsky._G_TABLE
    assert len(old) == 1001
    assert monsky.redei_g_table(4000, sieve) is monsky._G_TABLE
    assert cold_g_table == [1000, 4000]
    assert not any(value is old for value in vars(density).values())


def test_block_passes_leave_no_module_state(sieve):
    # The sieve and the g table reach every block as arguments, so no
    # pass binds a name in the module or leaves a table there.
    before = dict(vars(density))
    scan(5, 5000, sieve)
    assert certified_table(6, 5000, sieve).certified.size
    assert identity_check(5000, sieve)[2] == []
    assert fourrank_census(5000, sieve).total
    assert vars(density) == before
    assert not any(isinstance(v, (PrimeSieve, np.ndarray)) for v in vars(density).values())
