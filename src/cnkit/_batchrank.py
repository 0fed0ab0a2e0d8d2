"""Batched GF(2) rank of many small matrices, packed into uint64 words.

The Monte Carlo path ranks thousands of matrices of one shape at once.
`rank_batch` eliminates row by row over an (n, w, batch) copy of the
word array, so that one row of every matrix is one contiguous slab:
row k takes its lowest set bit (in its first nonzero word) as pivot and
is XORed into every later row holding that bit.  No later row then
holds a pivot bit of an earlier row, so the rows left nonzero are
independent and their number is the rank.  Row k costs a few numpy
passes over the rows below it, about n^2/2 row passes in all, with no
Python loop over matrices.  `gf2.rank` is the scalar reference it is
tested against.
"""

from __future__ import annotations

import numpy as np


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., m) 0/1 uint8 array into (..., ceil(m/64)) uint64 words,
    bit j of a row in bit j % 64 of word j // 64."""
    lead, m = bits.shape[:-1], bits.shape[-1]
    nbytes = (m + 7) // 8
    # Rows widened to whole bytes pack as one flat run, for short rows
    # several times faster than np.packbits row by row; the bytes are
    # then widened to whole words.
    aligned = np.zeros(lead + (8 * nbytes,), dtype=np.uint8)
    aligned[..., :m] = bits
    packed = np.packbits(aligned, bitorder="little").reshape(lead + (nbytes,))
    words = np.zeros(lead + (8 * ((m + 63) // 64),), dtype=np.uint8)
    words[..., :nbytes] = packed
    return words.view(np.uint64)


def rank_batch(mats: np.ndarray) -> np.ndarray:
    """GF(2) ranks of a (batch, n, w) uint64 word array; the input is not modified."""
    batch, n, w = mats.shape
    rows = mats.transpose(1, 2, 0).copy()  # a copy even when batch = 1
    for k in range(n - 1):
        piv = rows[k]
        low = piv & (~piv + np.uint64(1))  # lowest set bit of each word
        if w > 1:
            # keep it only in the first nonzero word of each matrix's row
            seen = np.logical_or.accumulate(piv != 0, axis=0)
            low[1:][seen[:-1]] = 0
        below = rows[k + 1 :]
        hit = (below & low).any(axis=1)
        below ^= hit[:, None, :] * piv
    return (rows != 0).any(axis=1).sum(axis=0)
