import numpy as np
import pytest

from cnkit import _batchrank, gf2
from cnkit._batchrank import pack_rows, rank_batch, row_dtype
from cnkit.gf2 import F2Matrix


def reference_ranks(bits: np.ndarray) -> list[int]:
    return [gf2.rank(F2Matrix.from_rows(mat.tolist())) for mat in bits]


def checked_ranks(bits: np.ndarray) -> np.ndarray:
    words = pack_rows(bits)
    before = words.copy()
    got = rank_batch(words)
    assert np.array_equal(words, before)  # the caller's array is left as it was
    assert got.shape == (bits.shape[0],)
    return got


@pytest.mark.parametrize(
    "n, m, words",
    [
        (10, 130, 3),  # wide: more columns than rows
        (3, 200, 4),
        (5, 64, 1),
        (130, 10, 1),  # tall
        (64, 65, 2),
        (61, 61, 1),  # square
        (82, 82, 2),
        (130, 130, 3),
    ],
)
def test_rank_batch_matches_scalar_rank(n, m, words):
    rng = np.random.default_rng(1000 * n + m)
    for density in (0.5, 0.1):
        bits = (rng.random((12, n, m)) < density).astype(np.uint8)
        assert pack_rows(bits).shape == (12, n, words)
        assert list(checked_ranks(bits)) == reference_ranks(bits)


def test_rank_batch_rank_deficient_stacks():
    rng = np.random.default_rng(7)
    for n, m in ((12, 12), (9, 70), (40, 20), (20, 140)):
        bits = rng.integers(0, 2, size=(16, n, m), dtype=np.uint8)
        bits[:, n // 2 :] = bits[:, : n - n // 2]  # second half repeats the first
        bits[:3, 1:] = bits[:3, :1]  # rank at most 1
        bits[3] = 0
        got = checked_ranks(bits)
        assert list(got) == reference_ranks(bits)
        assert max(got) <= n - n // 2
        assert max(got[:3]) <= 1 and got[3] == 0


def test_rank_batch_empty_shapes():
    assert list(checked_ranks(np.zeros((4, 0, 30), dtype=np.uint8))) == [0] * 4
    assert list(checked_ranks(np.zeros((3, 5, 0), dtype=np.uint8))) == [0] * 3
    empty = rank_batch(np.zeros((0, 7, 2), dtype=np.uint64))
    assert empty.shape == (0,)


def test_rank_batch_single_matrix():
    # a stack of one is the shape whose transposed view is already contiguous
    for bits in ([[1, 1], [1, 1]], [[1, 0, 1], [0, 1, 1], [1, 1, 0]], [[1] * 70] * 3):
        bits = np.array([bits], dtype=np.uint8)
        assert list(checked_ranks(bits)) == reference_ranks(bits)


def test_rank_batch_pivot_edge_cases():
    rng = np.random.default_rng(11)
    # w > 1 stacks where some matrices have no bit in their first word, or
    # in their first two, so every pivot lies in a later word
    for n, m in ((20, 140), (70, 70), (9, 200)):
        bits = rng.integers(0, 2, size=(10, n, m), dtype=np.uint8)
        bits[:4, :, :64] = 0
        bits[4:6, :, : min(128, m - 1)] = 0
        bits[6, ::2, :64] = 0  # every other row starts in a later word
        assert list(checked_ranks(bits)) == reference_ranks(bits)
    # permutation matrices have full rank, whatever the order of their pivots
    for n in (5, 64, 65, 130):
        bits = np.stack([np.eye(n, dtype=np.uint8)[rng.permutation(n)] for _ in range(6)])
        assert list(checked_ranks(bits)) == [n] * 6
    # rows that become zero midway: row k repeats, or sums, earlier rows
    for n, m in ((12, 12), (30, 70), (70, 140)):
        bits = rng.integers(0, 2, size=(8, n, m), dtype=np.uint8)
        bits[:, n // 3] = bits[:, 0]
        bits[:, n // 2] = bits[:, 1] ^ bits[:, 2] ^ bits[:, n // 3]
        bits[:, n - 1] = bits[:, : n - 1].sum(axis=1) % 2
        got = checked_ranks(bits)
        assert list(got) == reference_ranks(bits)
        assert max(got) <= n - 3


@pytest.mark.parametrize(
    "m, dtype, words",
    [
        (0, np.uint8, 0),
        (1, np.uint8, 1),
        (8, np.uint8, 1),
        (9, np.uint16, 1),
        (16, np.uint16, 1),
        (17, np.uint32, 1),
        (32, np.uint32, 1),
        (33, np.uint64, 1),
        (64, np.uint64, 1),
        (65, np.uint64, 2),
        (128, np.uint64, 2),
        (129, np.uint64, 3),
    ],
)
def test_pack_rows_word_width(m, dtype, words):
    # the narrowest word that holds a row, on each side of each boundary
    assert row_dtype(m) == dtype
    packed = pack_rows(np.eye(m, dtype=np.uint8).reshape(1, m, m))
    assert packed.dtype == dtype and packed.shape == (1, m, words)
    b = 8 * packed.itemsize
    for j, row in enumerate(packed[0].tolist()):  # bit j in bit j % b of word j // b
        assert row == [1 << (j % b) if q == j // b else 0 for q in range(words)]


@pytest.mark.parametrize("m", [1, 2, 5, 7, 8, 9])
def test_pack_rows_any_layout(m):
    # C-contiguous rows (copied a column at a time below 8 bits) and a
    # strided view of the same bits pack to the same words.
    bits = np.random.default_rng(m).integers(0, 2, size=(40, 3, 2 * m), dtype=np.uint8)
    view = bits[:, :, ::2]
    want = [[sum(b << j for j, b in enumerate(row))] for row in view.reshape(-1, m).tolist()]
    for rows in (view, view.copy()):
        assert pack_rows(rows).reshape(-1, 1).tolist() == want


@pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 17, 32, 33, 64, 65])
def test_rank_batch_every_word_width(m):
    rng = np.random.default_rng(m)
    n = m
    # full rank: a row permutation of a unit upper triangular matrix
    upper = np.triu(rng.integers(0, 2, size=(6, n, m), dtype=np.uint8), 1)
    upper[:, range(n), range(n)] = 1
    full = np.stack([u[rng.permutation(n)] for u in upper])
    # rank deficient: the second half of the rows repeats the first
    deficient = rng.integers(0, 2, size=(6, n, m), dtype=np.uint8)
    deficient[:, n // 2 :] = deficient[:, : n - n // 2]
    # zero rows: the whole matrix, the first row (a zero pivot from the
    # start) and the last row; the pivot shift is the full word width
    zero = rng.integers(0, 2, size=(6, n, m), dtype=np.uint8)
    zero[0] = 0
    zero[1:3, 0] = 0
    zero[3:5, -1] = 0
    zero[5, ::2] = 0
    bits = np.concatenate([full, deficient, zero])
    assert pack_rows(bits).dtype == row_dtype(m)
    got = checked_ranks(bits)
    assert list(got) == reference_ranks(bits)
    assert list(got[:6]) == [n] * 6 and max(got[6:12]) <= n - n // 2 and got[12] == 0
    # stacks of one matrix and of none
    assert list(checked_ranks(bits[:1])) == [n]
    assert list(checked_ranks(bits[12:13])) == [0]
    assert checked_ranks(bits[:0]).tolist() == []


@pytest.mark.parametrize("tile", [1, 2, 3])
@pytest.mark.parametrize("n, m", [(9, 13), (9, 40), (7, 150)])  # uint16, one and three uint64
def test_rank_batch_tile_boundaries(monkeypatch, tile, n, m):
    row_bytes = pack_rows(np.zeros((1, m), dtype=np.uint8)).nbytes
    # a few bytes short of tile + 1 matrices still make tiles of tile matrices
    monkeypatch.setattr(_batchrank, "TILE_BYTES", (tile + 1) * n * row_bytes - 1)
    rng = np.random.default_rng(100 * tile + n)
    for batch in (tile - 1, tile, tile + 1, 2 * tile + 3):
        bits = rng.integers(0, 2, size=(batch, n, m), dtype=np.uint8)
        bits[::2, n // 2] = 0  # a zero row
        bits[1::3, :, :64] = 0  # no bit in the first word
        bits[2::4, 1:] = bits[2::4, :1]  # rank at most 1
        assert list(checked_ranks(bits)) == reference_ranks(bits)
