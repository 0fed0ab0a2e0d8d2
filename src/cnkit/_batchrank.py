"""Batched GF(2) rank of many small matrices, packed into uint64 words.

The Monte Carlo path ranks thousands of matrices of one shape at once.
`rank_batch` eliminates column by column over the whole (batch, n, w)
word array: each matrix takes its first row holding the column's bit as
pivot and XORs it into every row holding that bit, so the pivot row
becomes zero and the rank is the number of columns that found a pivot.
A column costs a few numpy passes over the batch, with no Python loop
over matrices.  `gf2.rank` is the scalar reference it is tested against.
"""

from __future__ import annotations

import numpy as np


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (batch, n, m) 0/1 uint8 array into (batch, n, ceil(m/64)) uint64."""
    b, n, m = bits.shape
    w = (m + 63) // 64
    padded = np.zeros((b, n, w * 64), dtype=np.uint8)
    padded[:, :, :m] = bits
    packed = np.packbits(padded, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def rank_batch(mats: np.ndarray) -> np.ndarray:
    """GF(2) ranks of a (batch, n, w) uint64 word array; the input is not modified."""
    rows = mats.copy()
    batch, n, w = rows.shape
    each = np.arange(batch)
    rank = np.zeros(batch, dtype=np.int64)
    seen = np.bitwise_or.reduce(rows.reshape(batch * n, w), axis=0)
    for wi in range(w):
        word = rows[:, :, wi]
        for c in range(int(seen[wi]).bit_length()):
            has = (word & np.uint64(1 << c)) != 0
            piv = has.argmax(axis=1)
            rank += has[each, piv]
            # XOR the pivot into every row holding the bit, itself included:
            # the pivot row becomes zero, so it is never picked again.
            rows ^= has[:, :, None] * rows[each, piv][:, None, :]
    return rank
