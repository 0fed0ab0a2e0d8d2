from functools import cache

import numpy as np
import pytest

from cnkit import gf2, monsky, numtheory
from cnkit._batchrank import row_dtype
from cnkit.altsim import four_rank
from cnkit.gf2 import F2Matrix, F2Vector
from cnkit.monsky import (
    ROW_LABELS,
    SELMER_FORM,
    aux_n,
    aux_o,
    aux_p,
    aux_t,
    build_twist,
    det_recursion_rhs,
    form_coranks,
    random_constrained_triple,
    rank3_indicator,
    reciprocal_fill,
    redei_g,
    redei_g_table,
    row_det,
    row_matrix,
    row_matrix_parts,
    rows_for_residue,
    selmer_rank,
    twist_batch,
)
from cnkit.numtheory import (
    FactoredInteger,
    enumerate_squarefree,
    factor_squarefree,
    legendre_plus,
    sieve_init,
    try_factor_squarefree,
)


@pytest.fixture(scope="module")
def sieve():
    return sieve_init(10 ** 5)


def twist(n):
    return build_twist(factor_squarefree(n))


def test_build_twist_examples():
    t = twist(15)
    assert t.y.tolist() == [1, 0]
    assert t.z.tolist() == [1, 1]
    assert t.a.tolist() == [[1, 1], [1, 1]]
    t = twist(33)
    assert t.y.tolist() == [1, 1]
    assert t.z.tolist() == [1, 1]
    assert t.a.tolist() == [[1, 1], [0, 0]]
    t = twist(1)
    assert t.y.len == 0 and t.z.len == 0 and t.a.nrows == 0


def test_twist_invariants_to_1e5():
    # rows of A sum to zero, and A + A^T realizes reciprocity, for every
    # squarefree n up to 1e5 (bitwise form keeps this cheap)
    for n in range(1, 10 ** 5 + 1):
        f = try_factor_squarefree(n)
        if f is None:
            continue
        t = build_twist(f)
        xor = t.a + t.a.transpose()
        for i, row in enumerate(t.a.rows):
            assert bin(row).count("1") % 2 == 0
            want = t.y.bits if t.y[i] else 0
            assert xor.rows[i] == want & ~(1 << i), n


def test_twist_entries_are_symbols():
    for n in range(1, 3000):
        f = try_factor_squarefree(n)
        if f is None:
            continue
        t = build_twist(f)
        for i, p in enumerate(f.odd_primes):
            assert t.y[i] == legendre_plus(-1, p)
            assert t.z[i] == legendre_plus(2, p)
            for j, q in enumerate(f.odd_primes):
                if i != j:
                    assert t.a[i, j] == legendre_plus(q, p)


def test_redei_g_examples():
    assert redei_g(factor_squarefree(5)) == 1
    assert redei_g(factor_squarefree(33)) == 1
    assert redei_g(factor_squarefree(1)) == 1
    assert redei_g(factor_squarefree(2)) == 1
    for q in (3, 7, 11, 19, 23):
        assert redei_g(factor_squarefree(q)) == 1
    assert redei_g(factor_squarefree(14)) == 0


def test_redei_g_index_independence():
    # the free column (and row) choice in the determinant never matters
    for n in range(1, 10 ** 4):
        f = try_factor_squarefree(n)
        if f is None or f.is_even or f.r == 0:
            continue
        t = build_twist(f)
        r = f.r
        full = tuple(range(1, r + 1))
        vals = set()
        if n % 4 == 1:
            for i in full:
                cols = tuple(c for c in full if c != i)
                m = gf2.block([[gf2.submatrix(t.a, full, cols), t.z.as_col()]])
                vals.add(gf2.det(m))
        else:
            for i in full:
                for j in full:
                    rows = tuple(x for x in full if x != i)
                    cols = tuple(x for x in full if x != j)
                    vals.add(gf2.det(gf2.submatrix(t.a, rows, cols)))
        assert len(vals) == 1
        assert vals.pop() == redei_g(f)


def test_row_matrix_examples():
    assert row_matrix("5a", twist(5)).tolist() == [
        [0, 0, 1],
        [0, 1, 0],
        [1, 0, 0],
    ]
    assert row_matrix("1", twist(33)).tolist() == [
        [0, 1, 1, 0],
        [1, 0, 1, 0],
        [1, 1, 1, 0],
        [0, 0, 0, 1],
    ]
    assert row_matrix("6", twist(6)).tolist() == [
        [0, 0, 1],
        [0, 1, 1],
        [1, 1, 0],
    ]


def test_row_matrix_dimensions():
    dims = {"1": 0, "2": 0, "3": 1, "5a": 1, "5b": 1, "6": 1, "7a": 2, "7b": 2}
    for n in (17, 10, 3, 5, 6, 7, 33, 30, 35, 39):
        f = factor_squarefree(n)
        t = build_twist(f)
        for row in rows_for_residue(n % 8):
            m = row_matrix(row, t)
            assert m.nrows == 2 * f.r + dims[row]
            assert m.nrows == m.ncols


def test_row_det_examples():
    assert row_det("5a", twist(5)) == 1
    assert row_det("1", twist(17)) == 0
    assert row_det("6", twist(6)) == 1


def test_row_residue_mismatch():
    with pytest.raises(ValueError):
        row_matrix("1", twist(5))
    with pytest.raises(ValueError):
        row_matrix("bogus", twist(5))


def test_restriction_compatibility():
    # the matrix of a divisor is the row-normalized restriction of the
    # full matrix, for every odd divisor and every applicable row
    for n in (15, 33, 105, 165, 195, 231, 255, 1155, 3003):
        f = factor_squarefree(n)
        t = build_twist(f)
        r = f.r
        for mask in range(1, 1 << r):
            members = tuple(i + 1 for i in range(r) if (mask >> i) & 1)
            d = 1
            for i in range(r):
                if (mask >> i) & 1:
                    d *= f.odd_primes[i]
            fd = factor_squarefree(d)
            td = build_twist(fd)
            a_s = gf2.rows_normalized(t.a, members, members)
            assert a_s.tolist() == td.a.tolist()
            assert t.y.restrict(members).tolist() == td.y.tolist()
            assert t.z.restrict(members).tolist() == td.z.tolist()
            for row in rows_for_residue(d % 8):
                restricted = row_matrix_parts(
                    row, a_s, t.y.restrict(members), t.z.restrict(members)
                )
                assert restricted.tolist() == row_matrix(row, td).tolist()


def test_aux_o_degenerate():
    m = aux_o(F2Matrix(0, 0, ()), F2Vector.zeros(0), F2Vector.zeros(0))
    assert m.tolist() == [[0]]
    assert gf2.det(m) == 0


def test_aux_p_identity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        r = int(rng.integers(0, 9))
        a, y, z = random_constrained_triple(rng, r)
        got = gf2.det(aux_p(a, y, z))
        if y.parity() == 0:
            assert got == gf2.det(a + F2Matrix.diag(z))
        else:
            assert got == 0


def test_aux_p_example():
    t = twist(15)
    assert t.y.parity() == 1
    assert gf2.det(aux_p(t.a, t.y, t.z)) == 0


def test_aux_t_identity_odd_parity():
    rng = np.random.default_rng(12)
    seen = 0
    while seen < 300:
        r = int(rng.integers(1, 9))
        a, y, z = random_constrained_triple(rng, r)
        if y.parity() != 1:
            continue
        seen += 1
        assert gf2.det(aux_t(a, y, z)) == gf2.det(a + F2Matrix.diag(z))


def test_aux_n_example():
    t = twist(5)
    assert gf2.det(aux_n(t.a, t.z, t.y)) == 0


def test_aux_n_divisor_identity():
    # det N(A, z, y) equals the reduced pair sum over d = 3 (mod 8)
    for n in range(5, 20000, 8):
        f = try_factor_squarefree(n)
        if f is None:
            continue
        t = build_twist(f)
        lhs = gf2.det(aux_n(t.a, t.z, t.y))
        rhs = 0
        r = f.r
        for mask in range(1 << r):
            d = 1
            for i in range(r):
                if (mask >> i) & 1:
                    d *= f.odd_primes[i]
            if d % 8 == 3:
                rhs ^= redei_g(factor_squarefree(d)) & redei_g(
                    factor_squarefree(n // d)
                )
        assert lhs == rhs, n


def test_det_recursion_identity():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        r = int(rng.integers(1, 11))
        a, y, z = random_constrained_triple(rng, r)
        lhs = gf2.det(row_matrix_parts("1", a, y, z))
        assert lhs == det_recursion_rhs(a, y, z)


def test_selmer_rank_examples():
    assert selmer_rank(twist(3)) == 2
    assert selmer_rank(twist(17)) == 4
    assert selmer_rank(twist(33)) == 2
    with pytest.raises(ValueError):
        selmer_rank(twist(5))


def test_selmer_rank_against_known_arithmetic():
    # Sel2 rank = Mordell-Weil rank + 2 (torsion) + dim Sha[2], with the
    # right side known for these classical twists.
    known = {
        41: 4,   # congruent, rank 2
        34: 4,   # congruent, rank 2
        17: 4,   # rank 0 with |Sha[2]| = 4
        1: 2, 2: 2, 3: 2, 10: 2, 11: 2, 19: 2, 26: 2,  # rank 0, trivial Sha[2]
    }
    for n, want in known.items():
        assert selmer_rank(twist(n)) == want, n
    # classical small congruent numbers have rank 1, hence Selmer rank 3
    for n in (5, 6, 7, 13, 14, 15, 21, 22, 23, 29, 30, 31):
        assert rank3_indicator(twist(n)), n


def test_rank3_examples():
    assert rank3_indicator(twist(5))
    assert rank3_indicator(twist(6))
    assert rank3_indicator(twist(7))
    with pytest.raises(ValueError):
        rank3_indicator(twist(3))


def test_random_constrained_triple_constraints():
    rng = np.random.default_rng(14)
    for _ in range(200):
        r = int(rng.integers(1, 12))
        a, y, z = random_constrained_triple(rng, r)
        rows = a.tolist()
        for i in range(r):
            assert sum(rows[i]) % 2 == 0
            for j in range(r):
                if i != j:
                    assert rows[i][j] ^ rows[j][i] == (y[i] & y[j])


def _bits(vals, r):
    return np.array([[(v >> j) & 1 for j in range(r)] for v in vals], dtype=np.uint8)


@pytest.fixture(scope="module")
def twists():
    """The twists of every squarefree n <= 1e5, by (n mod 8, r)."""
    groups = {}
    for n in range(1, 10 ** 5 + 1):
        f = try_factor_squarefree(n)
        if f is not None:
            groups.setdefault((n % 8, f.r), []).append(build_twist(f))
    return groups


def _stack(triples, r):
    """(a, y, z) of same-r scalar (A, y, z) triples as the arrays of
    `twist_batch`: A as its row words, y and z as bits."""
    return (
        np.array([a.rows for a, _, _ in triples], dtype=row_dtype(r)).reshape(len(triples), r),
        _bits([y.bits for _, y, _ in triples], r),
        _bits([z.bits for _, _, z in triples], r),
    )


def _triples(twists):
    return [(tw.a, tw.y, tw.z) for tw in twists]


@cache
def _padded_rows(label, a, y, z, m):
    """The row words of `row_matrix_parts` (bit j of row i is entry (i, j),
    the words `pack_rows` gives for its bits), padded to m by an identity
    block; cached, as many n share a triple."""
    form = row_matrix_parts(label, a, y, z)
    return list(form.rows) + [1 << k for k in range(form.nrows, m)]


def test_form_words_match_scalar_to_1e5(twists):
    """The words form_coranks ranks are those of row_matrix_parts with
    the identity padding, bit for bit, for every label and every
    squarefree n <= 1e5 (r = 0 to 5), in words of row_dtype(m)."""
    by_r = {}
    for (_, r), group in twists.items():
        by_r.setdefault(r, []).extend(group)
    assert sorted(by_r) == [0, 1, 2, 3, 4, 5]
    for r, group in by_r.items():
        m = 2 * r + 2
        words = monsky._form_words(ROW_LABELS, *_stack(_triples(group), r))
        assert words.shape == (len(ROW_LABELS), len(group), m)
        assert words.dtype == row_dtype(m)
        for label, form in zip(ROW_LABELS, words.tolist()):
            for tw, got in zip(group, form):
                assert got == _padded_rows(label, tw.a, tw.y, tw.z, m), (tw.f.n, label)


def test_form_words_take_any_triple():
    """Random reciprocal triples (`random_constrained_triple`) give the
    forms of row_matrix_parts, up to 64 columns (r = 31), one word a row
    in every word width; wider forms are refused."""
    rng = np.random.default_rng(20160328)
    for r in (*range(9), 15, 31):
        triples = [random_constrained_triple(rng, r) for _ in range(12 if r < 9 else 3)]
        words = monsky._form_words(ROW_LABELS, *_stack(triples, r))
        m = 2 * r + 2
        assert words.dtype == row_dtype(m)
        for k, (ak, yk, zk) in enumerate(triples):
            for label, form in zip(ROW_LABELS, words[:, k].tolist()):
                assert form == _padded_rows(label, ak, yk, zk, m), (r, k, label)
    stack = _stack([random_constrained_triple(rng, 32)], 32)
    assert monsky._form_words(("1", "2"), *stack).dtype == np.uint64  # 64 columns
    with pytest.raises(ValueError, match="64 columns"):
        monsky._form_words(("1", "5a"), *stack)


def test_form_coranks_match_scalar_to_1e5(twists):
    """Batched det of every applicable row equals row_det, and the batched
    coranks of forms 1 and 2 equal the scalar ones, for every squarefree
    n <= 1e5 with n = 1, 2, 3, 5, 6, 7 (mod 8), r = 0 included."""
    assert (1, 0) in twists and (2, 0) in twists
    for (t, r), group in twists.items():
        rows = rows_for_residue(t)
        labels = tuple(dict.fromkeys(rows + ("1", "2")))
        coranks = form_coranks(labels, *_stack(_triples(group), r))
        for k, tw in enumerate(group):
            got = dict(zip(labels, coranks[:, k].tolist()))
            for row in rows:
                assert (got[row] == 0) == row_det(row, tw), (tw.f.n, row)
            for form in ("1", "2"):
                want = gf2.corank(row_matrix_parts(form, tw.a, tw.y, tw.z))
                assert got[form] == want, (tw.f.n, form)


def test_twist_batch_matches_build_twist_to_1e5():
    """twist_batch equals build_twist for every squarefree n <= 1e5, the
    even n and r = 0 included, stacked by r: A as the row words of
    `F2Matrix.rows` in row_dtype(r), y and z as bits."""
    groups = {}
    for n in range(1, 10 ** 5 + 1):
        f = try_factor_squarefree(n)
        if f is not None:
            groups.setdefault(f.r, []).append(build_twist(f))
    assert 0 in groups
    for r, twists in groups.items():
        primes = np.array([tw.f.odd_primes for tw in twists], dtype=np.int64)
        a, y, z = twist_batch(primes.reshape(len(twists), r))
        assert a.shape == (len(twists), r) and a.dtype == row_dtype(r)
        for k, tw in enumerate(twists):
            assert a[k].tolist() == list(tw.a.rows), tw.f.n
            assert y[k].tolist() == tw.y.tolist(), tw.f.n
            assert z[k].tolist() == tw.z.tolist(), tw.f.n


@pytest.mark.parametrize("r", [0, 1])
def test_twist_batch_small_r(r):
    # r = 0 (n = 1, 2) has empty forms; r = 1 has no pair and a zero diagonal.
    primes = np.array([[3], [5], [7], [11]])[:, :r]
    a, y, z = twist_batch(primes)
    assert a.shape == y.shape == z.shape == (4, r)
    assert a.dtype == y.dtype == z.dtype == np.uint8
    assert not a.any()
    if r:
        assert y[:, 0].tolist() == [1, 0, 1, 1] and z[:, 0].tolist() == [1, 1, 0, 1]


def test_twist_batch_rejects_pairs_above_the_table_cap(monkeypatch):
    empty = (0, np.empty(0, np.int64), np.empty(0, np.uint8))
    monkeypatch.setattr(numtheory, "_QR_TABLE", empty)
    # 32771 = 3 and 32789 = 1 (mod 4): the smaller prime is above 2**15,
    # which fails before any table is built.
    with pytest.raises(ValueError, match=r"2\*\*15"):
        twist_batch(np.array([[7, 13], [32771, 32789]]))
    assert numtheory._QR_TABLE is empty
    # Only the smaller prime of a pair is a modulus.
    tw = build_twist(FactoredInteger(n=7 * 32789, odd_primes=(7, 32789), is_even=False))
    a, y, z = twist_batch(np.array([tw.f.odd_primes]))
    got = (a[0].tolist(), y[0].tolist(), z[0].tolist())
    assert got == (list(tw.a.rows), tw.y.tolist(), tw.z.tolist())


def test_redei_coranks_match_four_rank_to_1e5(sieve):
    """The corank of the g form of every squarefree n = 3 (mod 4) up to
    1e5 (r = 1 to 5) is the scalar four_rank of n, the census's 4-rank."""
    by_r = {}
    for f in enumerate_squarefree(3, 4, sieve.limit, sieve):
        by_r.setdefault(f.r, []).append(f)
    assert sorted(by_r) == [1, 2, 3, 4, 5]
    for r, fs in by_r.items():
        ns = np.array([f.n for f in fs])
        a, _, z = twist_batch(np.array([f.odd_primes for f in fs]).reshape(len(fs), r))
        got = monsky._redei_coranks(ns, a, z)
        assert got.shape == (len(fs),)
        assert got.tolist() == [four_rank(f) for f in fs], r


def test_redei_coranks_edges():
    # r = 0: the empty forms of d = 1 and 2; r = 1: every p = 3 (mod 4)
    # has 4-rank 0; 39 = 3 * 13 has 4-rank 1.
    a, _, z = twist_batch(np.zeros((2, 0), np.int64))
    assert monsky._redei_coranks(np.array([1, 2]), a, z).tolist() == [0, 0]
    a, _, z = twist_batch(np.array([[3], [7], [11], [19]]))
    assert monsky._redei_coranks(np.array([3, 7, 11, 19]), a, z).tolist() == [0, 0, 0, 0]
    a, _, z = twist_batch(np.array([[3, 13]]))
    assert monsky._redei_coranks(np.array([39]), a, z).tolist() == [1]
    # d = 1, 3 (mod 4) and even in one stack, each given its own form.
    d = np.array([15, 30, 39, 78, 65, 130, 21, 42])
    a, _, z = twist_batch(np.array([[3, 5], [3, 13], [5, 13], [3, 7]]).repeat(2, axis=0))
    got = monsky._redei_coranks(d, a, z) == 0
    assert got.tolist() == [redei_g(factor_squarefree(int(n))) == 1 for n in d]


@pytest.mark.parametrize("r", [6, 7, 8])
def test_batch_paths_match_scalar_at_r_6_to_8(r):
    """Seeded stacks of r distinct odd primes below 200 (products within
    int64, past the r <= 5 of the 1e5 sweeps): twist_batch's A words are
    build_twist's rows, every form_coranks label is the scalar corank of
    row_matrix_parts, as is the ranking branch of row_coranks, and
    _redei_coranks and the ranking branch of four_ranks are four_rank at
    n = 3 (mod 4)."""
    rng = np.random.default_rng(1603 + r)
    odd_primes = [p for p in range(3, 200, 2) if (f := try_factor_squarefree(p)) and f.r == 1]
    rows = np.sort([rng.choice(odd_primes, r, replace=False) for _ in range(40)], axis=1)
    fs = [FactoredInteger(int(np.prod(row)), tuple(row.tolist()), False) for row in rows]
    twists = [build_twist(f) for f in fs]
    a, y, z = twist_batch(rows)
    assert a.tolist() == [list(tw.a.rows) for tw in twists]
    coranks = form_coranks(ROW_LABELS, a, y, z)
    for k, tw in enumerate(twists):
        want = [gf2.corank(row_matrix_parts(label, tw.a, tw.y, tw.z)) for label in ROW_LABELS]
        assert coranks[:, k].tolist() == want, tw.f.n
    ns = np.array([f.n for f in fs])
    three = np.flatnonzero(ns % 4 == 3)
    assert three.size
    got = monsky._redei_coranks(ns, a, z)[three]
    assert got.tolist() == [four_rank(fs[k]) for k in three]
    assert monsky.four_ranks(rows[three]).tolist() == got.tolist()
    assert np.array_equal(monsky.row_coranks(ROW_LABELS, rows), coranks)


def _decode(code, r):
    """The (upper rows, y, z) of a `four_ranks` or `row_coranks` code:
    bit k is the k-th pair (i, j) of triu_indices(r, 1), bit P + i is
    y_i and bit P + r + i is z_i (0 in a `four_ranks` code)."""
    upper = [0] * r
    for k, (i, j) in enumerate(zip(*(v.tolist() for v in np.triu_indices(r, 1)))):
        upper[i] |= (code >> k & 1) << j
    p = r * (r - 1) // 2
    y = [code >> (p + i) & 1 for i in range(r)]
    return upper, y, [code >> (p + r + i) & 1 for i in range(r)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_four_rank_table_is_redei_coranks_of_every_code(r):
    """Every entry is the corank of the d = 3 (mod 4) g form of the A
    that `reciprocal_fill` builds from the entry's decoded symbols."""
    table = monsky.four_rank_table(r)
    assert table.dtype == np.uint8 and table.size == 1 << (r * (r - 1) // 2 + r)
    rows = [reciprocal_fill(*_decode(code, r)[:2]).rows for code in range(table.size)]
    a = np.array(rows, dtype=row_dtype(r))
    d = np.full(table.size, 3)
    assert np.array_equal(table, monsky._redei_coranks(d, a, np.zeros(a.shape, np.uint8)))


def test_four_rank_table_agrees_with_four_rank(sieve):
    """`four_ranks` of a seeded sample of n = 3 (mod 4) up to 1e5 (r = 1
    to 5, the table branch), stacked by r, is the scalar four_rank of
    each n, and a seeded sample of codes at r = 5 reads the corank of A
    without row and column 1."""
    rng = np.random.default_rng(1934)
    fs = list(enumerate_squarefree(3, 4, sieve.limit, sieve))
    by_r = {}
    for k in sorted(rng.choice(len(fs), 400, replace=False)):
        by_r.setdefault(fs[k].r, []).append(fs[k])
    assert sorted(by_r) == [1, 2, 3, 4, 5]
    for r, group in by_r.items():
        got = monsky.four_ranks(np.array([f.odd_primes for f in group]))
        assert got.dtype == np.uint8
        assert got.tolist() == [four_rank(f) for f in group], r
    idx = tuple(range(2, 6))
    for code in rng.integers(0, 1 << 15, 200).tolist():
        want = gf2.corank(gf2.submatrix(reciprocal_fill(*_decode(code, 5)[:2]), idx, idx))
        assert monsky.four_rank_table(5)[code] == want, code


def test_four_rank_tables_built_once_and_read_only(monkeypatch):
    monsky.four_rank_table.cache_clear()
    built = []
    rank = monsky._redei_coranks

    def counting(d, a, z):
        built.append(a.shape[1])
        return rank(d, a, z)

    monkeypatch.setattr(monsky, "_redei_coranks", counting)
    tables = [monsky.four_rank_table(r) for r in (1, 2, 3, 4, 5)]
    assert built == [1, 2, 3, 4] + [5] * 8  # r = 5 in 8 slices of 4,096 codes
    assert all(monsky.four_rank_table(r) is t for r, t in zip((1, 2, 3, 4, 5), tables))
    assert len(built) == 12  # no rebuild
    for r in (0, 6):  # refused before anything is allocated or ranked
        with pytest.raises(ValueError, match="1 <= r <= 5"):
            monsky.four_rank_table(r)
    assert len(built) == 12
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


def _scan_labels(t):
    """The labels a scan of n = t (mod 8) ranks: its rows, then its
    Selmer form if that is not one of them."""
    rows = rows_for_residue(t)
    form = SELMER_FORM[t][0]
    return rows if form in rows else rows + (form,)


@cache
def _decoded_triples(r):
    """The (A, y, z) of every `row_coranks` code of r primes, A by
    `reciprocal_fill`."""
    width = r * (r - 1) // 2 + 2 * r
    return [
        (reciprocal_fill(upper, y), F2Vector.from_bits(y), F2Vector.from_bits(z))
        for upper, y, z in (_decode(code, r) for code in range(1 << width))
    ]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_form_table_is_form_coranks_of_every_code(r):
    """Every entry of each residue's form table is the form_coranks of
    the (A, y, z) decoded from the entry's code."""
    triples = _decoded_triples(r)
    stack = _stack(triples, r)
    for t in (1, 2, 3, 5, 6, 7):
        labels = _scan_labels(t)
        table = monsky.form_table(labels, r)
        assert table.dtype == np.uint8 and table.shape == (len(labels), len(triples))
        assert np.array_equal(table, form_coranks(labels, *stack)), t


def test_form_table_agrees_with_scalar_corank():
    """A seeded sample of codes at r = 4 reads the scalar corank of
    row_matrix_parts for every label of every residue."""
    rng = np.random.default_rng(1603)
    triples = _decoded_triples(4)
    for t in (1, 2, 3, 5, 6, 7):
        labels = _scan_labels(t)
        table = monsky.form_table(labels, 4)
        for code in rng.integers(0, len(triples), 100).tolist():
            want = [gf2.corank(row_matrix_parts(label, *triples[code])) for label in labels]
            assert table[:, code].tolist() == want, (t, code)


def test_row_coranks_equal_form_coranks_to_1e5(twists):
    """row_coranks of every squarefree n <= 1e5 of each residue, stacked
    by r (r = 1 to 4 from the tables, r = 0 and 5 ranked), equals
    form_coranks of its twist."""
    for (t, r), group in twists.items():
        labels = _scan_labels(t)
        primes = np.array([tw.f.odd_primes for tw in group], dtype=np.int64)
        got = monsky.row_coranks(labels, primes.reshape(len(group), r))
        assert got.shape == (len(labels), len(group))
        assert np.array_equal(got, form_coranks(labels, *_stack(_triples(group), r))), (t, r)


def test_form_tables_built_once_and_read_only(monkeypatch):
    monsky.form_table.cache_clear()
    built = []
    rank = monsky.form_coranks

    def counting(labels, a, y, z):
        built.append(y.shape[1])
        return rank(labels, a, y, z)

    monkeypatch.setattr(monsky, "form_coranks", counting)
    labels = _scan_labels(5)
    tables = [monsky.form_table(labels, r) for r in (1, 2, 3, 4)]
    assert built == [1, 2, 3] + [4] * 4  # r = 4 in 4 slices of 4,096 codes
    assert all(monsky.form_table(labels, r) is t for r, t in zip((1, 2, 3, 4), tables))
    assert len(built) == 7  # no rebuild
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_tables_past_the_code_bits_refused(monkeypatch):
    """A table whose code takes more than `_CODE_BITS` bits, or of r = 0,
    is refused before anything is allocated or ranked, for either kind;
    the bound is the one constant."""
    import tracemalloc

    def forbidden(*args):
        raise AssertionError("ranked")

    monkeypatch.setattr(monsky, "form_coranks", forbidden)
    monkeypatch.setattr(monsky, "_redei_coranks", forbidden)
    tracemalloc.start()
    try:
        for r in (0, 5, 6):  # 2^20 and 2^27 codes
            with pytest.raises(ValueError, match="1 <= r <= 4"):
                monsky.form_table(("1",), r)
        for r in (0, 6):  # 2^21 codes
            with pytest.raises(ValueError, match="1 <= r <= 5"):
                monsky.four_rank_table(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    monkeypatch.setattr(monsky, "_CODE_BITS", 14)  # past the cache, which holds r = 5
    with pytest.raises(ValueError, match="1 <= r <= 4"):
        monsky.four_rank_table.__wrapped__(5)


# The builder itself, out of reach of the `cold_g_table` counting patch.
_fresh_g_table = monsky._build_g_table


def test_redei_g_table_matches_redei_g_to_1e5(sieve):
    limit = 10 ** 5
    table = _fresh_g_table(limit, sieve)
    assert len(table) == limit + 1
    for d in range(1, limit + 1):
        f = try_factor_squarefree(d)
        want = redei_g(f) if f is not None else 0
        assert table[d] == want, d
    assert table[0] == 0
    assert _fresh_g_table(0, sieve).tolist() == [0]
    assert _fresh_g_table(2, sieve).tolist() == [0, 1, 1]


def test_redei_g_table_every_small_limit(sieve):
    """Each limit up to 64 cuts the doubled d at another place, odd and
    even limits alike."""
    want = [0] + [
        redei_g(f) if (f := try_factor_squarefree(d)) is not None else 0
        for d in range(1, 65)
    ]
    for limit in range(65):
        assert list(_fresh_g_table(limit, sieve)) == want[: limit + 1], limit


def test_redei_g_table_serves_prefixes_of_one_build(sieve, cold_g_table):
    whole = redei_g_table(10 ** 5, sieve)
    assert np.array_equal(whole, _fresh_g_table(10 ** 5, sieve))
    assert not whole.flags.writeable
    for limit in (-1, 0, 1, 2, 13, 10 ** 4):
        prefix = redei_g_table(limit, sieve)
        assert np.array_equal(prefix, _fresh_g_table(limit, sieve)), limit
        assert np.shares_memory(prefix, whole) and not prefix.flags.writeable, limit
    assert redei_g_table(10 ** 5, sieve) is whole
    assert np.array_equal(redei_g_table(10 ** 5 - 1, sieve), whole[:-1])
    assert cold_g_table == [10 ** 5]


def test_redei_g_table_rebuilds_for_a_larger_limit(sieve, cold_g_table):
    small = redei_g_table(100, sieve)
    large = redei_g_table(1000, sieve)
    assert cold_g_table == [100, 1000]
    assert np.array_equal(large[:101], small)
    assert np.array_equal(large, _fresh_g_table(1000, sieve))
    assert np.array_equal(redei_g_table(100, sieve), small)
    assert np.shares_memory(redei_g_table(100, sieve), large)
    assert cold_g_table == [100, 1000]


def test_redei_g_table_beyond_the_sieve_raises_with_a_warm_cache(sieve, cold_g_table):
    redei_g_table(1000, sieve)
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        redei_g_table(500, sieve_init(400))
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        redei_g_table(10 ** 5 + 1, sieve)
    assert cold_g_table == [1000]


def test_form_coranks_unknown_label_names_it():
    a, y, z = twist_batch(np.array([[3, 5]]))
    with pytest.raises(ValueError, match="'4a'"):
        form_coranks(("1", "4a"), a, y, z)
