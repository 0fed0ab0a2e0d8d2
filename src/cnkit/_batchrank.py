"""Batched GF(2) rank of many small matrices, packed into row words.

A matrix of m columns is held as row words of the narrowest unsigned
dtype that takes a row, `row_dtype(m)`: one uint8, uint16 or uint32 word
per row when m <= 8, 16 or 32, else ceil(m/64) uint64 words.  The scan's
forms (m = 2r + 2 <= 16 below 1e8) and the r x r Redei forms of the g
table and the census thus take one small word per row; the Monte Carlo
matrices (m = 61 at r = 30) take uint64 words.

`rank_batch` eliminates row by row over an (n, w, tile) copy of the
word array, so that one row of every matrix is one contiguous slab:
row k takes its lowest set bit (in its first nonzero word) as pivot and
is XORed into every later row holding that bit.  No later row then
holds a pivot bit of an earlier row, so the rows left nonzero are
independent and their number is the rank.  The same kernel serves every
word dtype.  `gf2.rank` is the scalar reference it is tested against.

The batch is ranked in tiles of `tile_matrices(n, row_bytes)` matrices,
at most `TILE_BYTES` bytes, each with its own copy and one scratch array
of the same shape, so that every pass over the rows below a pivot stays
in L2 and allocates nothing.  The tile is also the Monte Carlo
sub-block: `altsim` assembles one tile of matrices at a time and ranks
it in one call.
Row k takes three in-place passes, about n^2/2 row passes in all, with
no Python loop over matrices: hit = below & low (0 or the pivot bit),
hit scaled to 0 or the pivot row, below ^= hit.  For w = 1 the pivot
bit is 2^tz, so hit * (piv >> tz) is exactly 0 or piv; for w > 1 hit
is first OR-reduced over the words and shifted down to 0 or 1.  A zero
pivot row has no low bit, so its hit is 0 (and its shift by the full
word width harmless).

There is no Method of Four Russians step: at w = 1 a row is one word,
and a table lookup costs as many numpy passes as the XORs it saves."""

from __future__ import annotations

import numpy as np

# Bytes per tile: one tile's copy and its scratch array take 2 *
# TILE_BYTES bytes, which stays in a core's L2 cache.
TILE_BYTES = 1 << 19

_NARROW = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32))


def row_dtype(m: int) -> np.dtype:
    """The word dtype of a row of m bits: the narrowest of uint8, uint16
    and uint32 that holds m bits, else uint64."""
    for dtype in _NARROW:
        if m <= 8 * dtype.itemsize:
            return dtype
    return np.dtype(np.uint64)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., m) 0/1 uint8 array into (..., w) words of `row_dtype(m)`,
    bit j of a row in bit j % b of word j // b, for words of b bits."""
    lead, m = bits.shape[:-1], bits.shape[-1]
    dtype = row_dtype(m)
    b = 8 * dtype.itemsize
    width = b * ((m + b - 1) // b)
    # Rows widened to whole words pack as one flat run, for short rows
    # several times faster than np.packbits row by row.
    aligned = np.zeros(lead + (width,), dtype=np.uint8)
    if 0 < m < 8 and bits.flags.c_contiguous:
        # A short row is copied faster one column at a time, over flat views.
        flat, src = aligned.reshape(-1, width), bits.reshape(-1, m)
        for j in range(m):
            flat[:, j] = src[:, j]
    else:
        aligned[..., :m] = bits
    packed = np.packbits(aligned, bitorder="little").reshape(lead + (width // 8,))
    return packed.view(dtype)


def tile_matrices(n: int, row_bytes: int) -> int:
    """Matrices of n rows of row_bytes bytes in one tile: TILE_BYTES
    bytes, or one matrix."""
    return max(1, TILE_BYTES // max(1, n * row_bytes))


def rank_batch(mats: np.ndarray) -> np.ndarray:
    """GF(2) ranks of a (batch, n, w) array of unsigned row words; the
    input is not modified."""
    batch, n, w = mats.shape
    tile = tile_matrices(n, w * mats.itemsize)
    ranks = np.empty(batch, dtype=np.intp)
    for lo in range(0, batch, tile):
        rows = mats[lo : lo + tile].transpose(1, 2, 0).copy()
        _eliminate(rows, np.empty_like(rows))
        ranks[lo : lo + tile] = (rows != 0).any(axis=1).sum(axis=0)
    return ranks


def _eliminate(rows: np.ndarray, buf: np.ndarray) -> None:
    """Row-pivot elimination of an (n, w, tile) word array in place, with
    buf a scratch array of the same shape and dtype."""
    n, w = rows.shape[:2]
    one = rows.dtype.type(1)
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
