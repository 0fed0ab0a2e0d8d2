from itertools import permutations

import numpy as np
import pytest

from cnkit.gf2 import (
    F2Matrix,
    F2Vector,
    block,
    corank,
    det,
    rank,
    rows_normalized,
    submatrix,
)


def brute_rank(m: F2Matrix) -> int:
    """Independent oracle: size of the row span is 2**rank."""
    span = {0}
    for row in m.rows:
        span |= {s ^ row for s in span}
    return len(span).bit_length() - 1


def brute_det(m: F2Matrix) -> int:
    """Independent oracle: permutation expansion over GF(2)."""
    n = m.nrows
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod &= m[i, perm[i]]
        total ^= prod
    return total


def random_matrix(rng, nrows, ncols) -> F2Matrix:
    return F2Matrix.from_rows(rng.integers(0, 2, size=(nrows, ncols)).tolist())


def test_rank_examples():
    assert rank(F2Matrix.identity(3)) == 3
    assert rank(F2Matrix.zeros(2, 2)) == 0
    m = F2Matrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 1]])
    assert brute_rank(m) == 3
    assert rank(m) == 3


def test_rank_against_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(300):
        m = random_matrix(rng, int(rng.integers(0, 7)), int(rng.integers(1, 7)))
        assert rank(m) == brute_rank(m)


def test_rank_transpose_invariance():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = random_matrix(rng, int(rng.integers(1, 65)), int(rng.integers(1, 65)))
        assert rank(m) == rank(m.transpose())


def test_corank_and_det():
    assert corank(F2Matrix.zeros(2, 2)) == 2
    assert corank(F2Matrix.identity(5)) == 0
    assert corank(F2Matrix.from_rows([[1, 1], [1, 1]])) == 1
    assert det(F2Matrix(0, 0, ())) == 1
    assert det(F2Matrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == 1
    assert det(F2Matrix.from_rows([[1, 1], [1, 1]])) == 0
    with pytest.raises(ValueError):
        det(F2Matrix.zeros(2, 3))
    with pytest.raises(ValueError):
        corank(F2Matrix.zeros(2, 3))


def test_det_against_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(0, 6))
        m = random_matrix(rng, n, n)
        assert det(m) == brute_det(m)


def test_det_iff_corank_zero():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        m = random_matrix(rng, n, n)
        assert (det(m) == 1) == (corank(m) == 0)


def test_submatrix():
    i3 = F2Matrix.identity(3)
    assert submatrix(i3, (1, 3), (1, 3)).tolist() == [[1, 0], [0, 1]]
    m = F2Matrix.from_rows([[1, 1], [0, 0]])
    assert submatrix(m, (1, 2), (1, 2)).tolist() == m.tolist()
    assert submatrix(m, (1, 2), (2,)).tolist() == [[1], [0]]
    with pytest.raises(ValueError):
        submatrix(m, (1, 3), (1,))
    with pytest.raises(ValueError):
        submatrix(m, (2, 1), (1,))


def test_submatrix_composition():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = random_matrix(rng, 8, 8)
        s = (2, 3, 5, 7)
        c = (1, 4, 6, 8)
        s2 = (1, 3)
        c2 = (2, 4)
        direct = submatrix(submatrix(m, s, c), s2, c2)
        composed = submatrix(m, tuple(s[i - 1] for i in s2), tuple(c[i - 1] for i in c2))
        assert direct.tolist() == composed.tolist()


def test_rows_normalized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_matrix(rng, 6, 6)
        sub = rows_normalized(m, (1, 3, 4), (2, 5, 6))
        for i, row in enumerate(sub.tolist()):
            assert sum(row) % 2 == 0
            for j in range(3):
                if i != j:
                    assert row[j] == m[(1, 3, 4)[i] - 1, (2, 5, 6)[j] - 1]
    zero = rows_normalized(F2Matrix.zeros(4, 4), (1, 2), (3, 4))
    assert zero.tolist() == [[0, 0], [0, 0]]
    with pytest.raises(ValueError):
        rows_normalized(F2Matrix.zeros(4, 4), (1, 2), (3,))


def test_block_assembly():
    i2 = F2Matrix.identity(2)
    z2 = F2Matrix.zeros(2, 2)
    assert block([[i2, z2], [z2, i2]]).tolist() == F2Matrix.identity(4).tolist()
    assert block([[0]]).tolist() == [[0]]
    v = F2Vector.from_bits([1, 0])
    m = block([[i2, v], [v.as_row(), 1]])
    assert m.tolist() == [[1, 0, 1], [0, 1, 0], [1, 0, 1]]
    with pytest.raises(ValueError):
        block([[i2, F2Matrix.zeros(3, 1)]])


def test_alternating_rank_even():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                b = int(rng.integers(0, 2))
                rows[i] |= b << j
                rows[j] |= b << i
        m = F2Matrix(n, n, tuple(rows))
        assert rank(m) % 2 == 0


def test_vector_ops():
    v = F2Vector.from_bits([1, 0, 1])
    assert v.tolist() == [1, 0, 1]
    assert v.parity() == 0
    assert (v + F2Vector.from_bits([1, 1, 1])).tolist() == [0, 1, 0]
    assert v.restrict((1, 3)).tolist() == [1, 1]
    assert v.as_col().tolist() == [[1], [0], [1]]
    assert v.as_row().tolist() == [[1, 0, 1]]
    assert F2Matrix.diag(v).tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
