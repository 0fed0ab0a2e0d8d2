import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cnkit import _batchrank, altsim, gf2
from cnkit.altsim import (
    ENSEMBLE_LABELS,
    AltConfig,
    _assemble_block,
    _block_rng,
    _draw_block,
    _transpose_words,
    alpha,
    build_alt,
    classgroup_oracle,
    classrank_markov_step,
    classrank_stationary,
    corank_distribution_mc,
    delta,
    draw_assignments,
    ensemble_config,
    equivalence_check,
    family_members,
    four_rank,
    gerth_pmf,
    markov_stationary,
    markov_step,
    sample_assignment,
    validate_config,
)
from cnkit._batchrank import pack_rows, rank_batch
from cnkit.gf2 import F2Matrix
from cnkit.lfun import LCache
from cnkit.numtheory import (
    ResourceLimitError,
    factor_squarefree,
    sieve_init,
    try_factor_squarefree,
)


@pytest.fixture(scope="module")
def sieve():
    return sieve_init(10 ** 5)


def test_ensemble_configs_match_reference_rows():
    c = ensemble_config("5a")
    assert (c.n0, c.t1, c.t2, c.q1, c.q2) == ((5,), (-2,), (2,), (-1,), (2,))
    c = ensemble_config("7b")
    assert (c.n0, c.t1, c.t2, c.q1, c.q2) == ((7,), (-2, -1), (1, 1), (-1,), (2,))
    c = ensemble_config("6")
    assert (c.n0, c.t1, c.t2, c.q1, c.q2) == ((3, 7), (2,), (-2,), (-2, -1), (2,))
    assert c.d_diag == 1 and c.b_block().tolist() == [[0]]
    with pytest.raises(ValueError):
        ensemble_config("9z")


def test_validate_config_accepts_reference_rows():
    for label in ENSEMBLE_LABELS:
        validate_config(ensemble_config(label))


def test_validate_config_rejects_square_products():
    bad = AltConfig(1, (5,), (-2,), (2,), (1,), (2,))  # b1 = 1 is a square
    with pytest.raises(ValueError):
        validate_config(bad)
    bad = AltConfig(1, (5,), (-2,), (2,), (-2,), (2,))  # -b1b2 = 4
    with pytest.raises(ValueError):
        validate_config(bad)
    bad = AltConfig(1, (5,), (-2,), (2,), (-1,), (-1,))  # both -1 * square
    with pytest.raises(ValueError):
        validate_config(bad)
    bad = AltConfig(3, (5,), (-4,), (2,), (-1,), (2,))  # -4 does not divide 6
    with pytest.raises(ValueError):
        validate_config(bad)


def test_validate_config_checks_b_block(monkeypatch):
    stock = ensemble_config("7a")
    built = []
    post_init = F2Matrix.__post_init__
    monkeypatch.setattr(F2Matrix, "__post_init__", lambda m: built.append(m) or post_init(m))
    good = dataclasses.replace(stock, b=F2Matrix.from_rows([[0, 1], [1, 0]]))
    bad = {
        "t x t": [F2Matrix.zeros(1, 1), F2Matrix.zeros(2, 3), F2Matrix.zeros(3, 2)],
        "alternating": [
            F2Matrix.from_rows([[0, 1], [0, 0]]),
            F2Matrix.from_rows([[1, 0], [0, 0]]),
            F2Matrix.from_rows([[0, 1], [1, 1]]),
        ],
    }
    bad = {msg: [dataclasses.replace(stock, b=b) for b in bs] for msg, bs in bad.items()}
    built.clear()
    for cfg in (stock, good):
        validate_config(cfg)
    for msg, cfgs in bad.items():
        for cfg in cfgs:
            with pytest.raises(ValueError, match=msg):
                validate_config(cfg)
    assert built == []  # B is checked on its rows, without building matrices


def test_build_alt_example(sieve):
    cfg = ensemble_config("5a")
    m = build_alt(cfg, factor_squarefree(5, sieve))
    assert m.tolist() == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    assert gf2.corank(m) == 1
    with pytest.raises(ValueError):
        build_alt(cfg, factor_squarefree(7, sieve))


def test_build_alt_alternating(sieve):
    rng = np.random.default_rng(21)
    for label in ENSEMBLE_LABELS:
        cfg = ensemble_config(label)
        for _ in range(40):
            r = int(rng.integers(1, 9))
            a = sample_assignment(cfg, r, rng)
            m = build_alt(cfg, a)
            mt = m.transpose()
            assert m.rows == mt.rows
            assert all((row >> i) & 1 == 0 for i, row in enumerate(m.rows))
            assert gf2.rank(m) % 2 == 0


def test_delta_matches_reference_column():
    want = {"5a": 1, "5b": 1, "5ab": 1, "6": 1, "7a": 0, "7b": 0, "7ab": 0}
    for label, d in want.items():
        assert delta(ensemble_config(label)) == d, label


def test_delta_stability_under_budget(monkeypatch):
    for label in ("5a", "7a"):
        cfg = ensemble_config(label)
        got = []
        for budget in (50, 400):
            monkeypatch.setattr(altsim, "DELTA_SEARCH_BUDGET", budget)
            got.append(delta(cfg))
        assert got[0] == got[1], label


def test_family_members():
    cfg = ensemble_config("5a")
    first = [f.n for f in family_members(cfg, 5)]
    assert first == [5, 13, 21, 29, 37]
    cfg6 = ensemble_config("6")
    first6 = [f.n for f in family_members(cfg6, 6)]
    assert first6 == [3, 7, 11, 15, 19, 23]  # both classes of 3 mod 4


def test_equivalence_examples(sieve):
    cache = LCache()
    res = equivalence_check("5a", factor_squarefree(5, sieve), cache)
    assert res.value_nonzero and res.corank == 1 and res.delta == 1 and res.agrees
    res = equivalence_check("7a", factor_squarefree(7, sieve), cache)
    assert res.value_nonzero and res.agrees
    res = equivalence_check("5a", factor_squarefree(13, sieve), cache)
    assert res.agrees


def test_equivalence_sampled_range(sieve):
    cache = LCache()
    for label in ENSEMBLE_LABELS:
        cfg = ensemble_config(label)
        for f in family_members(cfg, 300):
            assert equivalence_check(label, f, cache).agrees, (label, f.n)


def test_equivalence_membership_error(sieve):
    with pytest.raises(ValueError):
        equivalence_check("5a", factor_squarefree(7, sieve))


def test_alpha_values():
    assert 0.8388 < alpha(1) < 0.8389
    assert abs(alpha(0) / alpha(1) - 0.5) < 1e-12
    even = sum(alpha(k) for k in range(0, 64, 2))
    odd = sum(alpha(k) for k in range(1, 64, 2))
    assert abs(even - 1.0) < 1e-12
    assert abs(odd - 1.0) < 1e-12


def test_alpha_past_the_float_range():
    # 2^(k+1) overflows a float from k = 1023 on; alpha is 0.0 from k = 47.
    assert alpha(46) > 0.0
    assert all(alpha(k) == 0.0 for k in range(47, 1023))
    assert alpha(1023) == alpha(1100) == 0.0


def test_markov_step_values():
    assert markov_step(0) == (0.5, 0.5, 0.0)
    assert markov_step(1) == (0.125, 0.875, 0.0)
    up, stay, down = markov_step(2)
    assert (up, stay, down) == (1 / 32, 19 / 32, 12 / 32)
    for k in range(12):
        assert abs(sum(markov_step(k)) - 1.0) < 1e-14


def test_markov_stationary_matches_alpha():
    even = markov_stationary("even", k_max=64)
    odd = markov_stationary("odd", k_max=64)
    for k in range(0, 11, 2):
        assert abs(even[k] - alpha(k)) < 1e-6
    for k in range(1, 11, 2):
        assert abs(odd[k] - alpha(k)) < 1e-6
    assert abs(sum(even.values()) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        markov_stationary("sideways")
    with pytest.raises(ValueError):
        markov_stationary("even", k_max=4)


def test_markov_rejects_a_chain_over_the_budget():
    with pytest.raises(ResourceLimitError, match="over the chain bound"):
        markov_stationary("odd", k_max=10**6)
    with pytest.raises(ResourceLimitError, match="over the chain bound"):
        classrank_stationary(k_max=10**6)


_CHAINS = {
    "even": lambda **kw: markov_stationary("even", **kw),
    "odd": lambda **kw: markov_stationary("odd", **kw),
    "classrank": classrank_stationary,
}


@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_markov_k_max_bounds(chain):
    for k_max in (0, -1, 7):
        with pytest.raises(ValueError, match="k_max must be at least 8"):
            _CHAINS[chain](k_max=k_max)
    with pytest.raises(ResourceLimitError, match="over the chain bound"):
        _CHAINS[chain](k_max=altsim.CHAIN_K_MAX + 1)
    assert len(_CHAINS[chain](k_max=8)) == {"even": 5, "odd": 4, "classrank": 9}[chain]
    assert _CHAINS[chain](k_max=altsim.CHAIN_K_MAX)


@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_markov_reports_a_residual_over_tol(chain, monkeypatch):
    monkeypatch.setattr(altsim, "CHAIN_TOL", 1e-30)
    with pytest.raises(ValueError, match=r"residual .* not below tol=1e-30"):
        _CHAINS[chain](k_max=64)


@pytest.mark.parametrize(
    "chain,k_max", [("even", 64), ("odd", 64), ("classrank", 64), ("classrank", 3000)]
)
def test_markov_stationary_equals_the_closed_form(chain, k_max):
    law = gerth_pmf if chain == "classrank" else alpha
    st = _CHAINS[chain](k_max=k_max)
    assert max(abs(p - law(k)) for k, p in st.items()) <= 1e-15


def test_classrank_chain():
    assert classrank_markov_step(0)[2] == 0.0
    for k in range(11):
        assert abs(sum(classrank_markov_step(k)) - 1.0) < 1e-14
    st = classrank_stationary(k_max=64)
    for k in range(9):
        assert abs(st[k] - gerth_pmf(k)) < 1e-6


def test_gerth_values():
    assert abs(gerth_pmf(0) - 0.288788) < 1e-5
    assert abs(gerth_pmf(1) - 0.577576) < 1e-5
    assert abs(sum(gerth_pmf(k) for k in range(20)) - 1.0) < 1e-12


def test_sample_assignment_contract():
    cfg = ensemble_config("5a")
    rng = _block_rng(3, 0)
    seen = []
    for _ in range(2000):
        a = sample_assignment(cfg, 5, rng)
        assert a.product_class() % 8 == 5
        seen.append(a)
    # determinism: same seed, same sequence
    rng2 = _block_rng(3, 0)
    again = [sample_assignment(cfg, 5, rng2) for _ in range(5)]
    assert again == seen[:5]
    # marginals of the free bits are near 1/2 (3 sigma at 2000 draws)
    ups = np.array([[ (a.upper[0] >> 1) & 1, (a.upper[0] >> 2) & 1] for a in seen])
    for col in ups.T:
        assert abs(col.mean() - 0.5) < 3 * 0.5 / math.sqrt(len(seen))


def test_assignment_class_distribution():
    # first r-1 classes uniform over the four unit classes
    cfg = ensemble_config("7a")
    rng = _block_rng(9, 1)
    counts = {1: 0, 3: 0, 5: 0, 7: 0}
    samples = 4000
    for a in draw_assignments(cfg, 4, rng, samples):
        assert a.product_class() % 8 == 7
        for c in a.classes[:-1]:
            counts[c % 8] += 1
    total = sum(counts.values())
    for c, cnt in counts.items():
        assert abs(cnt / total - 0.25) < 0.02


@pytest.mark.parametrize("d", [1, 3, 15, 105])
def test_class_codes_multiply_by_xor(d):
    # (Z/8D)^x modulo squares in XOR codes: decode inverts code, and the
    # code of a product of two classes is the XOR of theirs.
    reps, index = altsim._unit_class_reps(d)
    code, decode = altsim._class_codes(d)
    assert sorted(code.tolist()) == list(range(len(reps)))
    assert decode.take(code).tolist() == list(range(len(reps)))
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            assert code[index[a * b % (8 * d)]] == code[i] ^ code[j], (a, b)
    assert not code.flags.writeable and not decode.flags.writeable


@pytest.mark.parametrize("d, n0", [(1, (7,)), (3, (5, 7)), (15, (7, 11, 13))])
def test_drawn_classes_multiply_to_a_target(d, n0):
    # The last class drawn is the one that takes the product of the
    # classes of each sample into the square class of one of the targets.
    cfg = dataclasses.replace(ensemble_config("7a"), d=d, n0=n0)
    reps, index = altsim._unit_class_reps(d)
    mod = 8 * d
    cls, _ = _draw_block(cfg, 6, _block_rng(d, 0), 300)
    targets = {int(index[t % mod]) for t in n0}
    seen = set()
    for row in cls.tolist():
        assert len(row) == 6
        prod = math.prod(reps[c] for c in row) % mod
        assert index[prod] in targets, row
        seen.add(int(index[prod]))
    assert seen == targets


def test_batch_path_matches_reference():
    # vectorized assembly + batched rank agree with build_alt + gf2 rank
    for label in ("5a", "6", "7b"):
        cfg = ensemble_config(label)
        rng = _block_rng(42, 0)
        assigns = draw_assignments(cfg, 7, rng, 150)
        ref = [gf2.corank(build_alt(cfg, a)) for a in assigns]
        rng2 = _block_rng(42, 0)
        cls, upper = _draw_block(cfg, 7, rng2, 150)
        words = _assemble_block(cfg, cls, upper)
        got = (2 * 7 + cfg.t) - rank_batch(words)
        assert list(got) == ref


@pytest.mark.parametrize("r", [1, 2, 31, 32, 33, 64, 70])
def test_assemble_block_words_match_build_alt(r):
    # m = 2r + t crosses one word boundary at r = 31 to 33 and two at r = 70;
    # at r = 64 the fields at column r start on a word boundary
    for cfg in [ensemble_config(label) for label in ENSEMBLE_LABELS] + custom_configs():
        draws = draw_assignments(cfg, r, _block_rng(r, 3), 6)
        want = pack_rows(np.array([build_alt(cfg, a).tolist() for a in draws], dtype=np.uint8))
        cls, upper = _draw_block(cfg, r, _block_rng(r, 3), 6)
        got = _assemble_block(cfg, cls, upper)
        assert got.dtype == np.uint64 and np.array_equal(got, want), (cfg.label, r)


@pytest.mark.parametrize("r", [1, 2, 3, 31, 32, 33, 63, 64, 65, 70, 130])
def test_transpose_words_matches_numpy(r):
    # one padded block up to r = 64, then 64 x 64 blocks swapped across words
    bits = np.random.default_rng(r).integers(0, 2, size=(5, r, r), dtype=np.uint8)
    words = pack_rows(bits)
    got = _transpose_words(words)
    assert got.dtype == np.uint64 and np.array_equal(got, pack_rows(bits.transpose(0, 2, 1)))
    assert np.array_equal(_transpose_words(got), words)


@pytest.mark.parametrize("r", [1, 2, 30, 64, 65, 130])
def test_drawn_words_strictly_upper(r):
    _, upper = _draw_block(ensemble_config("7a"), r, _block_rng(r, 0), 50)
    assert upper.shape == (50, r, (r + 63) // 64)
    bits = np.unpackbits(upper.view(np.uint8), axis=-1, bitorder="little")
    assert not bits[:, :, r:].any()  # no bit at a column >= r
    assert not (bits[:, :, :r] & np.tril(np.ones((r, r), dtype=np.uint8))).any()


def test_drawn_upper_bits_uniform():
    # each of the r(r-1)/2 free bits has mean 1/2, within 4.5 standard errors
    r, count = 30, 4096
    _, upper = _draw_block(ensemble_config("5a"), r, _block_rng(12, 0), count)
    bits = np.unpackbits(upper.view(np.uint8), axis=-1, bitorder="little")[:, :, :r]
    means = bits.mean(axis=0)[np.triu_indices(r, 1)]
    assert means.size == 435
    assert np.abs(means - 0.5).max() < 4.5 * 0.5 / math.sqrt(count)


def test_mc_multiword_workers_agree():
    # two blocks at r = 70 take the multiword transpose in each worker
    cfg = ensemble_config("7b")
    samples = altsim.MC_BLOCK + 100
    h1 = corank_distribution_mc(cfg, r=70, samples=samples, seed=4)
    h2 = corank_distribution_mc(cfg, r=70, samples=samples, seed=4, workers=2)
    assert h1.counts == h2.counts and h1.total() == samples


def test_batch_path_multiword():
    # r = 40 pushes the matrices past one 64-bit word per row
    cfg = ensemble_config("7a")
    r = 40
    rng = _block_rng(8, 0)
    assigns = draw_assignments(cfg, r, rng, 40)
    ref = [gf2.corank(build_alt(cfg, a)) for a in assigns]
    rng2 = _block_rng(8, 0)
    cls, upper = _draw_block(cfg, r, rng2, 40)
    words = _assemble_block(cfg, cls, upper)
    assert words.shape[2] == 2
    got = (2 * r + cfg.t) - rank_batch(words)
    assert list(got) == ref
    hist = corank_distribution_mc(cfg, r=r, samples=3000, seed=8)
    assert sum(hist.counts.values()) == 3000
    assert all(k % 2 == 0 for k in hist.counts)


def test_mc_determinism_and_parity():
    cfg = ensemble_config("5a")
    h1 = corank_distribution_mc(cfg, r=10, samples=5000, seed=11)
    h2 = corank_distribution_mc(cfg, r=10, samples=5000, seed=11)
    assert h1.counts == h2.counts
    h3 = corank_distribution_mc(cfg, r=10, samples=5000, seed=11, workers=2)
    assert h3.counts == h1.counts
    assert sum(h1.counts.values()) == 5000
    assert all(k % 2 == cfg.t % 2 for k in h1.counts)


def custom_configs():
    stock = ensemble_config("7a")
    return [
        dataclasses.replace(stock, d_diag=-1, delta_expected=None),
        dataclasses.replace(
            stock, b=F2Matrix.from_rows([[0, 1], [1, 0]]), delta_expected=None
        ),
    ]


@pytest.mark.parametrize("cfg", custom_configs(), ids=["d_diag=-1", "b=[[0,1],[1,0]]"])
def test_mc_honours_custom_config(cfg, monkeypatch):
    # the Monte Carlo path ranks exactly the matrices build_alt gives for
    # the configuration passed in, not those of the stock ensemble, one
    # kernel tile at a time: 600 samples in one tile, or in 250 + 250 + 100
    validate_config(cfg)
    r, seed, count = 6, 31, 600
    draws = draw_assignments(cfg, r, _block_rng(seed, 0), count)
    mats = [build_alt(cfg, a) for a in draws]
    want = dict(Counter(gf2.corank(m) for m in mats))
    bits = np.array([m.tolist() for m in mats], dtype=np.uint8)
    for tile, sizes in ((None, [count]), (250, [250, 250, 100])):
        ranked = []

        def recording_rank_batch(words):
            ranked.append(words.copy())
            return rank_batch(words)

        with monkeypatch.context() as mp:
            mp.setattr(altsim, "rank_batch", recording_rank_batch)
            if tile is not None:
                mp.setattr(_batchrank, "TILE_BYTES", tile * 8 * (2 * r + cfg.t))
            hist = corank_distribution_mc(cfg, r=r, samples=count, seed=seed)
        assert hist.counts == want
        assert [len(words) for words in ranked] == sizes
        assert np.array_equal(np.concatenate(ranked), pack_rows(bits))
    assert corank_distribution_mc(cfg, r=r, samples=count, seed=seed, workers=2).counts == want


@pytest.mark.parametrize("r", [1, 2, 30, 33, 70])
def test_mc_sub_block_widths_agree(r, monkeypatch):
    # a block's histogram does not depend on where it is cut into kernel
    # tiles: sub-blocks of 1 and of 7 samples (the last one short) give
    # what the default tile gives, and the scalar path where r <= 7; the
    # stock ensembles and 7a with d_diag = -1 are the simulate30 benchmark's
    seed, count = 40 + r, 23
    for cfg in [ensemble_config(label) for label in ENSEMBLE_LABELS] + custom_configs():
        m = 2 * r + cfg.t
        w = (m + 63) // 64
        hists = {}
        for width in (1, 7, None):
            with monkeypatch.context() as mp:
                if width is not None:
                    mp.setattr(_batchrank, "TILE_BYTES", width * m * 8 * w)
                hists[width] = corank_distribution_mc(cfg, r, count, seed).counts
        assert hists[1] == hists[7] == hists[None], (cfg.label, cfg.d_diag)
        if r <= 7:
            draws = draw_assignments(cfg, r, _block_rng(seed, 0), count)
            assert hists[None] == Counter(gf2.corank(build_alt(cfg, a)) for a in draws)
        with monkeypatch.context() as mp:
            mp.setattr(altsim, "MC_BLOCK", 12)  # two blocks, one per worker
            serial = corank_distribution_mc(cfg, r, count, seed)
            pooled = corank_distribution_mc(cfg, r, count, seed, workers=2)
        assert list(pooled.counts.items()) == list(serial.counts.items())


@pytest.mark.parametrize("r", [30, 70])
def test_mc_block_peak_under_estimate(r):
    # the estimate _check_block weighs against MC_BUDGET bounds what a
    # block really allocates, so the budget fails before memory runs out
    for cfg in (ensemble_config("5a"), ensemble_config("7a")):
        altsim._mc_block((0, 64), cfg, r, 3)  # the cached tables and masks
        tracemalloc.start()
        try:
            altsim._mc_block((0, altsim.MC_BLOCK), cfg, r, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < altsim._mc_block_bytes(r, cfg.t, altsim.MC_BLOCK), (cfg.label, peak)


def test_mc_rejects_invalid_config():
    bad = dataclasses.replace(ensemble_config("7a"), d_diag=3)
    with pytest.raises(ValueError, match="d_diag"):
        corank_distribution_mc(bad, r=8, samples=10, seed=1)


def test_mc_guards_r_before_allocating(monkeypatch):
    cfg = ensemble_config("5a")

    def no_draws(*args):
        raise AssertionError("drew a block")

    monkeypatch.setattr(altsim, "_draw_block", no_draws)
    for r in (0, -3):
        with pytest.raises(ValueError, match="r must be positive"):
            corank_distribution_mc(cfg, r=r, samples=10, seed=1)
        with pytest.raises(ValueError, match="r must be positive"):
            draw_assignments(cfg, r, _block_rng(1, 0), 10)
    with pytest.raises(ResourceLimitError):
        corank_distribution_mc(cfg, r=2000, samples=10 ** 5, seed=1)
    with pytest.raises(ResourceLimitError):
        draw_assignments(cfg, 3000, _block_rng(1, 0), 4096)


def test_mc_converges_to_alpha():
    cfg = ensemble_config("7a")
    hist = corank_distribution_mc(cfg, r=30, samples=20000, seed=5)
    d = 0
    assert abs(hist.frequency(d) - alpha(0)) < 0.02
    assert abs(hist.frequency(d + 2) - alpha(2)) < 0.02


def test_mc_chi_square_not_rejecting():
    # goodness of fit against the limit pmf, bins {d, d+2, d+4, rest}
    cfg = ensemble_config("5b")
    n = 10 ** 5
    hist = corank_distribution_mc(cfg, r=30, samples=n, seed=77)
    d = cfg.delta_expected
    observed = [hist.counts.get(d, 0), hist.counts.get(d + 2, 0), hist.counts.get(d + 4, 0)]
    observed.append(n - sum(observed))
    expected = [n * alpha(0), n * alpha(2), n * alpha(4)]
    expected.append(n - sum(expected))
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert chi2 < 30  # df = 3; far beyond any sane rejection threshold


def test_four_rank_examples(sieve):
    assert four_rank(factor_squarefree(3, sieve)) == 0
    assert four_rank(factor_squarefree(15, sieve)) == 0
    assert four_rank(factor_squarefree(39, sieve)) == 1
    with pytest.raises(ValueError):
        four_rank(factor_squarefree(5, sieve))


def test_four_rank_against_oracle(sieve):
    for n in range(3, 2000, 4):
        f = try_factor_squarefree(n, sieve)
        if f is None:
            continue
        assert four_rank(f) == classgroup_oracle(f).four_rank, n


def test_four_rank_index_independence(sieve):
    from cnkit.monsky import build_twist

    for n in range(3, 3000, 4):
        f = try_factor_squarefree(n, sieve)
        if f is None or f.r < 2:
            continue
        a = build_twist(f).a
        r = f.r
        full = tuple(range(1, r + 1))
        vals = set()
        for i in full:
            for j in full:
                rows = tuple(x for x in full if x != i)
                cols = tuple(x for x in full if x != j)
                vals.add(gf2.corank(gf2.submatrix(a, rows, cols)))
        assert vals == {four_rank(f)}, n
