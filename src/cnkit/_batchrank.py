"""Batched GF(2) rank of many small matrices, packed into uint64 words.

The Monte Carlo path ranks thousands of matrices of one shape at once.
`rank_batch` eliminates row by row over an (n, w, tile) copy of the
word array, so that one row of every matrix is one contiguous slab:
row k takes its lowest set bit (in its first nonzero word) as pivot and
is XORed into every later row holding that bit.  No later row then
holds a pivot bit of an earlier row, so the rows left nonzero are
independent and their number is the rank.  `gf2.rank` is the scalar
reference it is tested against.

The batch is ranked in tiles of `tile_matrices(n, w)` matrices, at most
`TILE_WORDS` words, each with its own copy and one scratch array of the
same shape, so that every pass over the rows below a pivot stays in L2
and allocates nothing.  The tile is also the Monte Carlo sub-block:
`altsim` assembles one tile of matrices at a time and ranks it in one
call.
Row k takes three in-place passes, about n^2/2 row passes in all, with
no Python loop over matrices: hit = below & low (0 or the pivot bit),
hit scaled to 0 or the pivot row, below ^= hit.  For w = 1 the pivot
bit is 2^tz, so hit * (piv >> tz) is exactly 0 or piv; for w > 1 hit
is first OR-reduced over the words and shifted down to 0 or 1.  A zero
pivot row has no low bit, so its hit is 0 (and its shift of 64 harmless).

There is no Method of Four Russians step: at w = 1 a row is one word,
and a table lookup costs as many numpy passes as the XORs it saves."""

from __future__ import annotations

import numpy as np

# Words per tile: one tile's copy and its scratch array take 2 * 8 *
# TILE_WORDS bytes, which stays in a core's L2 cache.
TILE_WORDS = 1 << 16


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


def tile_matrices(n: int, w: int) -> int:
    """Matrices of n rows of w words in one tile: TILE_WORDS words, or one matrix."""
    return max(1, TILE_WORDS // max(1, n * w))


def rank_batch(mats: np.ndarray) -> np.ndarray:
    """GF(2) ranks of a (batch, n, w) uint64 word array; the input is not modified."""
    batch, n, w = mats.shape
    tile = tile_matrices(n, w)
    ranks = np.empty(batch, dtype=np.intp)
    for lo in range(0, batch, tile):
        rows = mats[lo : lo + tile].transpose(1, 2, 0).copy()
        _eliminate(rows, np.empty_like(rows))
        ranks[lo : lo + tile] = (rows != 0).any(axis=1).sum(axis=0)
    return ranks


def _eliminate(rows: np.ndarray, buf: np.ndarray) -> None:
    """Row-pivot elimination of an (n, w, tile) word array in place, with
    buf a scratch array of the same shape."""
    n, w = rows.shape[:2]
    one = np.uint64(1)
    for k in range(n - 1):
        piv, below = rows[k], rows[k + 1 :]
        hit = buf[: n - k - 1]
        low = piv & -piv  # lowest set bit of each word
        if w == 1:
            # hit is 0 or the pivot bit 2^tz, and 2^tz * (piv >> tz) = piv
            scale = piv >> np.bitwise_count(low - one)
            np.bitwise_and(below, low, out=hit)
            np.multiply(hit, scale, out=hit)
        else:
            # keep the lowest bit only in the first nonzero word of each row
            seen = np.logical_or.accumulate(piv != 0, axis=0)
            low[1:][seen[:-1]] = 0
            bit = np.bitwise_or.reduce(low, axis=0)
            tz = np.bitwise_count(bit - one)
            np.bitwise_and(below, low, out=hit)
            flag = np.bitwise_or.reduce(hit, axis=1)
            flag >>= tz  # 0 or 1 per matrix and row
            np.multiply(flag[:, None, :], piv, out=hit)
        below ^= hit
