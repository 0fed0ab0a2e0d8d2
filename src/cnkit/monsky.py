"""Per-twist GF(2) data: Monsky-style matrices and Redei determinants.

For a positive squarefree n with odd prime factors p_1 < ... < p_r this
module builds the vectors y, z and the matrix A of additive Legendre
symbols, the Redei determinant g(n) detecting trivial 4-rank of
Cl(Q(sqrt(-n))), the eight residue-row determinant forms, the auxiliary
block matrices used to relate them, and the 2-Selmer rank formulas.

The scalar code (`build_twist`, `redei_g_parts`, `row_matrix_parts`,
`row_det`, `rank3_indicator`, `selmer_rank`) is the readable reference.
Scans use its batched mirror, in which A is held as it is in
`F2Matrix.rows`, one row word per row:
- `twist_batch` builds (A, y, z) for a stack of same-r n: the symbols
  above A's diagonal looked up in the quadratic-residue table of
  `numtheory.legendre_plus_bulk`, A packed from them once (`_row_words`:
  the lower triangle by reciprocity, the diagonal by row parity) into
  (count, r) row words, y and z as 0/1 uint8 arrays;
- `_redei_coranks` is the one builder of the g forms and of 4-ranks: it
  ranks the r x r forms of a stack of d in A's row words;
- `redei_g_table` tabulates g(d) for every squarefree d up to a limit
  once per process, factoring only odd d and ranking the forms of d and
  2d together, and holds the largest table (a limit + 1-byte read-only
  array) until exit;
- the eight row forms are data, one entry each of the `_ROW_FORMS`
  border table, from which `form_coranks` builds several forms of a
  stack of same-r twists straight into row words of the narrowest dtype
  that holds a row (A^T taken from A's words by reciprocity, with no
  transpose packed; y, z and y + z taken as bits and as words; no m x m
  bit array) and ranks them with one `rank_batch` call;
- every form reads only A, y and z, and A is fixed by the P = r(r-1)/2
  symbols above its diagonal and y, so a stack's bits are taken once
  (`_symbol_bits`) and, up to `_CODE_BITS` = 15 of them, looked up as
  one code in a table built once per process over every code
  (`_code_table`, `_CODE_SLICE` codes at a time); past that they are
  ranked.  `four_ranks` gives the census the 4-rank of each n = 3
  (mod 4) from P + r bits (`four_rank_table(r)`, ranked by
  `_redei_coranks`, r <= 5), and `row_coranks` gives the scan the
  coranks of its row and Selmer forms from P + 2r bits
  (`form_table(labels, r)`, ranked by `form_coranks`, r <= 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from . import gf2
from ._batchrank import pack_rows, rank_batch, row_dtype
from .gf2 import F2Matrix, F2Vector
from .numtheory import (
    BLOCK,
    FactoredInteger,
    PrimeSieve,
    legendre_plus,
    legendre_plus_bulk,
    same_r_stacks,
    spans,
)

__all__ = [
    "ROW_LABELS",
    "ROW_RESIDUE",
    "SELMER_FORM",
    "TwistData",
    "rows_for_residue",
    "twist_matrix",
    "build_twist",
    "twist_batch",
    "redei_g",
    "redei_g_parts",
    "redei_g_table",
    "four_ranks",
    "four_rank_table",
    "row_coranks",
    "form_table",
    "row_matrix",
    "row_matrix_parts",
    "row_det",
    "form_coranks",
    "recursion_q",
    "det_recursion_rhs",
    "aux_o",
    "aux_n",
    "aux_p",
    "aux_t",
    "selmer_rank",
    "rank3_indicator",
    "reciprocal_fill",
    "random_constrained_triple",
]

# Residue rows, named by n mod 8 with the a/b variants for 5 and 7.
ROW_LABELS = ("1", "2", "3", "5a", "5b", "6", "7a", "7b")
_ROWS_BY_RESIDUE = {1: ("1",), 2: ("2",), 3: ("3",), 5: ("5a", "5b"), 6: ("6",), 7: ("7a", "7b")}
ROW_RESIDUE = {row: t for t, rows in _ROWS_BY_RESIDUE.items() for row in rows}


def rows_for_residue(t: int) -> tuple[str, ...]:
    """Row labels applicable to squarefree n with n = t (mod 8)."""
    try:
        return _ROWS_BY_RESIDUE[t]
    except KeyError:
        raise ValueError(f"no rows for residue {t} mod 8") from None


@dataclass(frozen=True)
class TwistData:
    """The (y, z, A) bundle attached to a squarefree integer.

    y_i and z_i are the additive symbols of -1 and 2 at p_i; A has
    off-diagonal entries (p_j/p_i)_+ and diagonal entries making every
    row sum to zero.  Quadratic reciprocity forces
    A_ij + A_ji = y_i * y_j for i != j.
    """

    f: FactoredInteger
    y: F2Vector
    z: F2Vector
    a: F2Matrix


def twist_matrix(primes: Sequence[int]) -> F2Matrix:
    """A for the odd primes p_1 < ... < p_r: A_ij = (p_j/p_i)_+ off the
    diagonal, and each diagonal entry makes its row sum to zero."""
    rows = []
    for i, p in enumerate(primes):
        row = 0
        for j, q in enumerate(primes):
            if i != j:
                row |= legendre_plus(q, p) << j
        row |= (bin(row).count("1") & 1) << i
        rows.append(row)
    return F2Matrix(len(primes), len(primes), tuple(rows))


def build_twist(f: FactoredInteger) -> TwistData:
    primes = f.odd_primes
    y = F2Vector.from_bits(legendre_plus(-1, p) for p in primes)
    z = F2Vector.from_bits(legendre_plus(2, p) for p in primes)
    return TwistData(f=f, y=y, z=z, a=twist_matrix(primes))


@cache
def _pair_indices(r: int) -> tuple[np.ndarray, np.ndarray]:
    """triu_indices(r, 1), read-only."""
    idx = np.triu_indices(r, 1)
    for v in idx:
        v.setflags(write=False)
    return idx


def twist_batch(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`build_twist` for a stack of squarefree n with r odd primes each.

    Row k of the (count, r) array primes holds the odd primes of the k-th
    n, ascending.  Returns (a, y, z): a the (count, r) row words of A in
    `row_dtype(r)`, bit j of word i being A_ij as in `F2Matrix.rows`, and
    y and z (count, r) 0/1 uint8 arrays.  y and z come from the low bits
    of p (p & 3 and p & 7), the symbols of A above the diagonal from the
    quadratic-residue table of `legendre_plus_bulk` (so the smaller prime
    of each pair must lie below `numtheory.QR_TABLE_CAP`, else
    ValueError), and A from those and y by `_row_words`.
    """
    primes = np.asarray(primes, dtype=np.int64)
    return _code_twist(_symbol_bits(primes, with_z=True), primes.shape[1])


def _upper_symbols(primes: np.ndarray) -> np.ndarray:
    """The (count, r(r-1)/2) symbols (p_j/p_i)_+ above the diagonal of A,
    in `_pair_indices` order, from `legendre_plus_bulk`."""
    i, j = _pair_indices(primes.shape[1])
    return legendre_plus_bulk(primes[:, j], primes[:, i])


def _row_words(upper: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A as (count, r) row words of `row_dtype(r)` from its symbols above
    the diagonal (`_upper_symbols`) and the 0/1 bits y: those below by
    quadratic reciprocity (A_ij + A_ji = y_i y_j), the off-diagonal bits
    packed once, and the diagonal bit of each row the parity of its
    popcount."""
    count, r = y.shape
    i, j = _pair_indices(r)
    bits = np.zeros((count, r, r), dtype=np.uint8)
    bits[:, i, j] = upper
    bits[:, j, i] = upper ^ (y[:, i] & y[:, j])
    a = pack_rows(bits).reshape(count, r)  # one word a row
    a |= (np.bitwise_count(a) & 1) << np.arange(r, dtype=a.dtype)
    return a


def redei_g_parts(a: F2Matrix, z: F2Vector, n_mod4: int) -> int:
    """Redei determinant from (A, z) for the residue class n mod 4.

    n_mod4 = 2 means any even squarefree n, with (A, z) taken from its
    odd part.  The 0x0 conventions make g(1) = g(2) = 1.
    """
    r = a.nrows
    if r == 0:
        return 1
    full = tuple(range(1, r + 1))
    if n_mod4 == 1:
        cols = tuple(i for i in full if i != 1)
        return gf2.det(gf2.block([[gf2.submatrix(a, full, cols), z.as_col()]]))
    if n_mod4 == 2:
        return gf2.det(a + F2Matrix.diag(z))
    if n_mod4 == 3:
        reduced = tuple(i for i in full if i != 1)
        return gf2.det(gf2.submatrix(a, reduced, reduced))
    raise ValueError(f"n_mod4 must be 1, 2 or 3, got {n_mod4}")


def redei_g(f: FactoredInteger) -> int:
    """g(n): 1 iff the class group of Q(sqrt(-n)) has trivial 4-rank."""
    t = build_twist(f)
    mod4 = 2 if f.is_even else f.n % 4
    return redei_g_parts(t.a, t.z, mod4)


# The largest g table built in this process, empty before the first.
_G_TABLE = np.zeros(0, dtype=np.uint8)


def redei_g_table(limit: int, sieve: PrimeSieve) -> np.ndarray:
    """g(d) for every squarefree d <= limit (`_build_g_table`), from the
    largest table built in this process: the same object for the same
    limit, a prefix view for a smaller one, a rebuild for a larger one."""
    global _G_TABLE
    if limit > sieve.limit:
        raise ValueError(f"range end {limit} exceeds sieve limit {sieve.limit}")
    size = max(limit, 0) + 1
    if _G_TABLE.size < size:
        _G_TABLE = np.zeros(0, dtype=np.uint8)  # dropped before the larger build
        _G_TABLE = _build_g_table(limit, sieve)
    return _G_TABLE if _G_TABLE.size == size else _G_TABLE[:size]


def _build_g_table(limit: int, sieve: PrimeSieve) -> np.ndarray:
    """g(d) for every squarefree d <= limit, as a read-only uint8 array
    of one byte per d (0 for the other d).

    An odd d and 2d share the (A, z) of d, so only the odd d are
    factored, once per block of `BLOCK` integers, and cut into same-r
    stacks (`numtheory.same_r_stacks`); `_redei_coranks` ranks the d of a
    stack and every 2d <= limit together, and g = 1 iff the corank is 0.
    """
    table = np.zeros(max(limit, 0) + 1, dtype=np.uint8)
    for lo, hi in spans(1, limit + 1, BLOCK):
        for d, primes in same_r_stacks(lo, hi, sieve, 1, 2):
            a, _, z = twist_batch(primes)
            double = np.flatnonzero(d <= limit // 2)
            k = np.concatenate([np.arange(d.size), double])
            both = np.concatenate([d, 2 * d[double]])
            table[both] = _redei_coranks(both, a.take(k, axis=0), z.take(k, axis=0)) == 0
    table.flags.writeable = False
    return table


@cache
def _redei_tables(r: int, dtype: np.dtype) -> np.ndarray:
    """(3, 4, r) read-only row words of the g forms by d & 3, taken whole
    as a broadcast over a short last axis is slow: the bits each row keeps,
    where z_i goes (bit 0 for d = 1, bit i for d = 2), bit 0 of row 0 for d = 3."""
    zero = np.zeros(r, dtype=dtype)
    one, bit = zero + 1, np.left_shift(zero + 1, np.arange(r, dtype=dtype))
    tables = np.array([[~zero, ~one, ~zero, ~one], [zero, one, bit, zero], [zero] * 3 + [bit & 1]])
    tables.setflags(write=False)
    return tables


def _redei_coranks(d: np.ndarray, a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Coranks of the `redei_g_parts` forms of a stack of squarefree d,
    given the (A, z) of `twist_batch` for their odd parts (r primes each).

    The r x r forms are built in A's row words as `twist_batch` gives
    them, with nothing packed: for d = 1 (mod 4) bit 0 of row i is z_i (a
    column permutation of [A without column 1 | z]); for d = 3 (mod 4)
    bit 0 is cleared and set in row 0 only, a pivot of its own, so the
    corank is that of A without row and column 1 (`altsim.four_rank`);
    for even d, A + D_z.  One `rank_batch` call ranks them all; the 0 x 0
    forms of d = 1 and 2 have corank 0.
    """
    r = z.shape[1]
    keep, flip, put = _redei_tables(r, a.dtype)
    low = d & 3
    rows = a & keep.take(low, axis=0)
    rows ^= z * flip.take(low, axis=0) | put.take(low, axis=0)
    return r - rank_batch(rows[..., None])


# The widest code of symbol bits that is looked up in a table rather
# than ranked: 2^15 one-byte entries a form.  The census's 4-rank codes
# (P + r bits) reach r = 5 and the scan's form codes (P + 2r bits) r = 4;
# r = 6 would take 2^21 census codes and about 0.5 s to build.
_CODE_BITS = 15

# The codes `_code_table` decodes and ranks at a time.
_CODE_SLICE = 4096


def _symbol_bits(primes: np.ndarray, with_z: bool) -> np.ndarray:
    """The (count, P + r) 0/1 bits of a stack of same-r n (`twist_batch`'s
    primes) that fix A: the P = r(r-1)/2 symbols above its diagonal in
    `_pair_indices` order, then y; then z too (P + 2r bits) if with_z.
    Bit k of an n's code is its k-th bit here."""
    low = primes & 7
    parts = [_upper_symbols(primes), ((low & 3) == 3).view(np.uint8)]
    if with_z:
        parts.append(((low == 3) | (low == 5)).view(np.uint8))
    return np.concatenate(parts, axis=1)


def _code_twist(bits: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, y, z) as `twist_batch` gives them from the `_symbol_bits` of a
    stack, A by `_row_words`; z is zero where the bits end at y."""
    p = r * (r - 1) // 2
    y, z = bits[:, p : p + r], bits[:, p + r :]
    if z.shape[1] < r:
        z = np.zeros_like(y)
    return _row_words(bits[:, :p], y), y, z


def _code_table(r: int, vectors: int, rank) -> np.ndarray:
    """rank(bits) of every code of the P + vectors * r bits of
    `_symbol_bits` (vectors 1 for y, 2 for y and z), as a read-only uint8
    array whose last axis is the code, for 1 <= r and at most
    `_CODE_BITS` bits (else ValueError, before anything is allocated).
    The codes are decoded into 0/1 bits, bit k of a code in column k,
    `_CODE_SLICE` at a time, and rank maps each (count, bits) slice to
    (..., count) values."""
    width = r * (r - 1) // 2 + vectors * r
    if r < 1 or width > _CODE_BITS:
        top = max(k for k in range(_CODE_BITS + 1) if k * (k - 1) // 2 + vectors * k <= _CODE_BITS)
        raise ValueError(f"tables of P + {vectors}r code bits exist for 1 <= r <= {top}, got {r}")
    parts = []
    for lo, hi in spans(0, 1 << width, _CODE_SLICE):
        codes = np.arange(lo, hi, dtype="<u4").view(np.uint8).reshape(-1, 4)
        bits = np.unpackbits(codes, axis=1, bitorder="little")
        parts.append(rank(bits[:, :width]).astype(np.uint8))
    table = np.concatenate(parts, axis=-1)
    table.flags.writeable = False
    return table


def four_ranks(primes: np.ndarray) -> np.ndarray:
    """The uint8 4-rank of each n = 3 (mod 4) of a stack of same-r n
    (`twist_batch`'s (count, r) primes).  Its g form reads A and not z,
    so the P + r bits of `_symbol_bits` are taken once: up to
    `_CODE_BITS` of them (r <= 5) looked up in `four_rank_table(r)` at
    their code, and more ranked by `_code_ranks`."""
    primes = np.asarray(primes, dtype=np.int64)
    bits = _symbol_bits(primes, with_z=False)
    r = primes.shape[1]
    if 0 < bits.shape[1] <= _CODE_BITS:
        return four_rank_table(r).take(pack_rows(bits)[:, 0])
    return _code_ranks(bits, r)


def _code_ranks(bits: np.ndarray, r: int) -> np.ndarray:
    """`four_ranks` from the (count, P + r) bits of `_symbol_bits`: the
    forms of `_code_twist` ranked by `_redei_coranks` at d = 3."""
    a, _, z = _code_twist(bits, r)
    return _redei_coranks(np.full(bits.shape[0], 3), a, z).astype(np.uint8)


@cache
def four_rank_table(r: int) -> np.ndarray:
    """The 4-rank of n = 3 (mod 4) with r odd primes, indexed by the code
    of `four_ranks`: a read-only uint8 array of 2^(P + r) entries,
    P = r(r-1)/2 (32 kB at r = 5), built by `_code_table` from
    `_code_ranks` for 1 <= r <= 5."""
    return _code_table(r, 1, lambda bits: _code_ranks(bits, r))


def row_coranks(labels: tuple[str, ...], primes: np.ndarray) -> np.ndarray:
    """`form_coranks` of the forms `labels` for a stack of same-r n
    (`twist_batch`'s (count, r) primes), a (len(labels), count) array.
    Every form reads A, y and z only, so the P + 2r bits of
    `_symbol_bits` are taken once: up to `_CODE_BITS` of them (1 <= r <=
    4) looked up in `form_table(labels, r)` at their code, and more (or
    none, at r = 0) ranked by `form_coranks`."""
    primes = np.asarray(primes, dtype=np.int64)
    bits = _symbol_bits(primes, with_z=True)
    r = primes.shape[1]
    if 0 < bits.shape[1] <= _CODE_BITS:
        return form_table(labels, r).take(pack_rows(bits)[:, 0], axis=1)
    return form_coranks(labels, *_code_twist(bits, r))


@cache
def form_table(labels: tuple[str, ...], r: int) -> np.ndarray:
    """The coranks of the forms `labels` of a twist with r odd primes,
    indexed by the code of `row_coranks`: a read-only uint8 array of
    shape (len(labels), 2^(P + 2r)), P = r(r-1)/2 (48 kB for three forms
    at r = 4), built by `_code_table` from `form_coranks` of the
    (A, y, z) of `_code_twist` for 1 <= r <= 4."""
    return _code_table(r, 2, lambda bits: form_coranks(labels, *_code_twist(bits, r)))


def _b_mat(a: F2Matrix) -> F2Matrix:
    return a + a.transpose()


def row_matrix_parts(row: str, a: F2Matrix, y: F2Vector, z: F2Vector) -> F2Matrix:
    """The determinant-form matrix for a residue row, from raw (A, y, z)."""
    r = a.nrows
    at = a.transpose()
    dz = F2Matrix.diag(z)
    z0 = F2Matrix.zeros(r, 1)
    z0r = F2Matrix.zeros(1, r)
    if row == "1":
        return gf2.block([[_b_mat(a), at], [a, dz]])
    if row == "2":
        return gf2.block([[_b_mat(a) + F2Matrix.diag(y + z), at], [a, dz]])
    if row == "3":
        return gf2.block(
            [[_b_mat(a), at, y], [a, dz, z0], [y.as_row(), z0r, 0]]
        )
    if row == "5a":
        u = y + z
        return gf2.block(
            [[_b_mat(a), at, u], [a, dz, z0], [u.as_row(), z0r, 0]]
        )
    if row == "5b":
        return gf2.block(
            [[_b_mat(a), at, z0], [a, dz, y], [z0r, y.as_row(), 0]]
        )
    if row == "6":
        return gf2.block(
            [
                [_b_mat(a) + F2Matrix.diag(y + z), at, y],
                [a, dz, y],
                [y.as_row(), y.as_row(), 0],
            ]
        )
    if row == "7a":
        u = y + z
        return gf2.block(
            [
                [_b_mat(a), at, u, z0],
                [a, dz, z0, y],
                [u.as_row(), z0r, 0, 0],
                [z0r, y.as_row(), 0, 0],
            ]
        )
    if row == "7b":
        u = y + z
        return gf2.block(
            [
                [_b_mat(a), at, u, y],
                [a, dz, z0, z0],
                [u.as_row(), z0r, 0, 0],
                [y.as_row(), z0r, 0, 0],
            ]
        )
    raise ValueError(f"unknown row label {row!r}")


def row_matrix(row: str, t: TwistData) -> F2Matrix:
    """Determinant-form matrix for a twist; the row must match n mod 8."""
    if row not in ROW_RESIDUE:
        raise ValueError(f"unknown row label {row!r}")
    if t.f.n % 8 != ROW_RESIDUE[row]:
        raise ValueError(f"row {row} needs n = {ROW_RESIDUE[row]} (mod 8), n={t.f.n}")
    return row_matrix_parts(row, t.a, t.y, t.z)


def row_det(row: str, t: TwistData) -> int:
    return gf2.det(row_matrix(row, t))


# --- batched forms --------------------------------------------------------------


# Every row form is [[B + D_s, A^T, top], [A, D_z, bottom], [top^T,
# bottom^T, 0]] with B = A + A^T and s = y + z, as in `row_matrix_parts`.
# Per label: the diagonal of B, and the (top, bottom) pair of each border
# column, each y, u = y + z or 0.
_ROW_FORMS = {
    "1": ("0", ()),
    "2": ("u", ()),
    "3": ("0", (("y", "0"),)),
    "5a": ("0", (("u", "0"),)),
    "5b": ("0", (("0", "y"),)),
    "6": ("u", (("y", "y"),)),
    "7a": ("0", (("u", "0"), ("0", "y"))),
    "7b": ("0", (("u", "0"), ("y", "0"))),
}


def _words(bits: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The (..., r) 0/1 array bits, r <= 64, as (...) words of dtype,
    bit j of a word from bits[..., j]: the one word of `pack_rows`, or
    none at r = 0, ORed together."""
    return np.bitwise_or.reduce(pack_rows(bits), axis=-1).astype(dtype)


def _form_words(
    labels: Sequence[str], a: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """The forms `labels` of a stack of same-r twists as (len(labels),
    count, m) row words of `row_dtype(m)`, m the largest form size, each
    form padded to m by an identity block.

    Row i < r is B + D_diag beside A^T, row r + i is A beside D_z, and
    each border column c adds bit c to the rows of its (top, bottom)
    pair and a row of its own, the top vector beside the bottom one.  A
    comes as the row words of `twist_batch` and is not packed again:
    by reciprocity B = A + A^T is y y^T off the diagonal, so row i of B
    is y_i times the word of y with bit i cleared, and A^T = A + B.
    Forms of r > 31 (m > 64) raise ValueError; an n that int64 holds has
    at most 14 odd primes.
    """
    count, r = y.shape
    if unknown := sorted(set(labels) - _ROW_FORMS.keys()):
        raise ValueError(f"unknown row label {unknown[0]!r}")
    sizes = [2 * r + len(_ROW_FORMS[label][1]) for label in labels]
    m = max(sizes)
    if m > 64:
        raise ValueError(f"forms wider than 64 columns are not supported (r = {r})")
    dtype = row_dtype(m)
    bit = np.left_shift(dtype.type(1), np.arange(m, dtype=dtype))
    vec = {"y": y, "u": y ^ z}
    words = {"0": 0, **{name: _words(v, dtype) for name, v in vec.items()}}
    aw = a.astype(dtype)
    b = y * words["y"][:, None] & ~bit[:r]
    top = b | (aw ^ b) << r
    mid = aw | z * bit[r : 2 * r]
    out = np.empty((len(labels), count, m), dtype=dtype)
    for form, label, s in zip(out, labels, sizes):
        diag, borders = _ROW_FORMS[label]
        form[:, :r] = top if diag == "0" else top | vec[diag] * bit[:r]
        form[:, r : 2 * r] = mid
        for c, pair in enumerate(borders, 2 * r):
            for rows, name in zip((form[:, :r], form[:, r : 2 * r]), pair):
                if name != "0":
                    rows |= vec[name] * bit[c]
            form[:, c] = words[pair[0]] | words[pair[1]] << r
        form[:, s:] = bit[s:]
    return out


def form_coranks(
    labels: Sequence[str], a: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Coranks of the forms `labels` for a stack of same-r twists.

    a, y and z are the (count, r) row words of A and the (count, r) 0/1
    uint8 arrays of `twist_batch`.  Every form is built straight into
    row words by `_form_words`, padded to the largest size m by an
    identity block, which adds to the rank and leaves the corank alone,
    so all of them are ranked in one `rank_batch` call.  Returns a
    (len(labels), count) array; corank 0 means determinant 1.
    """
    words = _form_words(labels, a, y, z)
    n_forms, count, m = words.shape
    ranks = rank_batch(words.reshape(n_forms * count, m, 1))
    return m - ranks.reshape(n_forms, count)


# --- auxiliary block matrices -------------------------------------------------


def aux_o(a: F2Matrix, v1: F2Vector, v2: F2Vector) -> F2Matrix:
    """(r+1)-dimensional border of A by a column v1 and a row v2."""
    return gf2.block([[a, v1], [v2.as_row(), 0]])


def aux_n(a: F2Matrix, z: F2Vector, w: F2Vector) -> F2Matrix:
    """The (2r+2)-dimensional linearization with border columns z and w."""
    r = a.nrows
    z0 = F2Matrix.zeros(r, 1)
    z0r = F2Matrix.zeros(1, r)
    return gf2.block(
        [
            [_b_mat(a), a.transpose(), z0, z0],
            [a, F2Matrix.zeros(r, r), z, w],
            [z0r, z.as_row(), 0, 0],
            [z0r, w.as_row(), 0, 0],
        ]
    )


def aux_p(a: F2Matrix, y: F2Vector, z: F2Vector) -> F2Matrix:
    """2r-dimensional block with D_{y+z} and D_z on the diagonal."""
    return gf2.block([[F2Matrix.diag(y + z), a.transpose()], [a, F2Matrix.diag(z)]])


def aux_t(a: F2Matrix, y: F2Vector, z: F2Vector) -> F2Matrix:
    """aux_p bordered by the column y and the row y-transpose."""
    r = a.nrows
    return gf2.block(
        [
            [F2Matrix.diag(y + z), a.transpose(), y],
            [a, F2Matrix.diag(z), F2Matrix.zeros(r, 1)],
            [y.as_row(), F2Matrix.zeros(1, r), 0],
        ]
    )


# --- the determinant recursion ------------------------------------------------


def recursion_q(a: F2Matrix, z: F2Vector) -> F2Matrix:
    """A with its last column dropped, augmented by z."""
    r = a.nrows
    full = tuple(range(1, r + 1))
    return gf2.block([[gf2.submatrix(a, full, full[: r - 1]), z.as_col()]])


def _restrict_parts(
    a: F2Matrix, vs: tuple[F2Vector, ...], members: tuple[int, ...]
) -> tuple[F2Matrix, tuple[F2Vector, ...]]:
    return (
        gf2.rows_normalized(a, members, members),
        tuple(v.restrict(members) for v in vs),
    )


def det_recursion_rhs(a: F2Matrix, y: F2Vector, z: F2Vector) -> int:
    """Subset-sum side of the recursion for det of the residue-1 form.

    Sums over subsets S of [r] containing 1 the term
    (1 + sum_{i in S} y_i)(1 + sum_{i in S} z_i)
    * det Q(A,z)[S] * det M_1(A,z)[S'],
    where [S] restricts A by row-normalized submatrices and the vectors
    by coordinate selection.
    """
    r = a.nrows
    if r == 0:
        return 0
    total = 0
    for mask in range(1, 1 << r, 2):  # subsets containing index 1
        members = tuple(i + 1 for i in range(r) if (mask >> i) & 1)
        comp = tuple(i + 1 for i in range(r) if not (mask >> i) & 1)
        ys = y.restrict(members)
        zs = z.restrict(members)
        coeff = (1 ^ ys.parity()) & (1 ^ zs.parity())
        if not coeff:
            continue
        a_s, (z_s,) = _restrict_parts(a, (z,), members)
        dq = gf2.det(recursion_q(a_s, z_s))
        if not dq:
            continue
        a_c, (z_c,) = _restrict_parts(a, (z,), comp)
        y_c = y.restrict(comp)
        total ^= dq & gf2.det(row_matrix_parts("1", a_c, y_c, z_c))
    return total


# --- Selmer ranks ---------------------------------------------------------------


def selmer_rank(t: TwistData) -> int:
    """2-Selmer rank of the twist, for n = 1, 2 or 3 (mod 8)."""
    n = t.f.n
    res = n % 8
    if res == 1:
        return 2 + gf2.corank(row_matrix("1", t))
    if res == 2:
        return 2 + gf2.corank(row_matrix("2", t))
    if res == 3:
        m3 = row_matrix("3", t)
        idx = tuple(range(1, m3.nrows))  # drop the border row/column
        return 1 + gf2.corank(gf2.submatrix(m3, idx, idx))
    raise ValueError(f"selmer_rank needs n = 1, 2, 3 (mod 8); n={n}")


def rank3_indicator(t: TwistData) -> bool:
    """True iff the 2-Selmer rank is exactly 3, for n = 5, 6, 7 (mod 8).

    The minimal corank of the residue-1 form (residue-2 form for even n)
    is attained exactly at Selmer rank three.
    """
    n = t.f.n
    res = n % 8
    if res == 5:
        return gf2.corank(row_matrix_parts("1", t.a, t.y, t.z)) == 1
    if res == 6:
        return gf2.corank(row_matrix_parts("2", t.a, t.y, t.z)) == 1
    if res == 7:
        return gf2.corank(row_matrix_parts("1", t.a, t.y, t.z)) == 2
    raise ValueError(f"rank3_indicator needs n = 5, 6, 7 (mod 8); n={n}")


# The form whose corank gives the 2-Selmer rank of n = t (mod 8), for
# batched callers, as in selmer_rank and rank3_indicator: for t = 1, 2, 3
# the rank is the corank plus the value here (for t = 3 the residue-1
# form is the residue-3 form without its border); for t = 5, 6, 7 the
# rank is three iff the corank equals the value here.
SELMER_FORM = {1: ("1", 2), 2: ("2", 2), 3: ("1", 1), 5: ("1", 1), 6: ("2", 1), 7: ("1", 2)}


def reciprocal_fill(upper: Sequence[int], y: Sequence[int]) -> F2Matrix:
    """A from its strict upper rows (row i holds the bits j > i) and the
    bits y: the lower triangle by reciprocity, A_ji = A_ij + y_i y_j, and
    the diagonal by row parity, so that every row of A sums to zero."""
    r = len(upper)
    rows = list(upper)
    for i in range(r):
        for j in range(i + 1, r):
            rows[j] |= (((upper[i] >> j) & 1) ^ (y[i] & y[j])) << i
    for i in range(r):
        rows[i] |= (bin(rows[i]).count("1") & 1) << i
    return F2Matrix(r, r, tuple(rows))


def random_constrained_triple(rng, r: int) -> tuple[F2Matrix, F2Vector, F2Vector]:
    """Random (A, y, z) with rows of A summing to zero and A_ij + A_ji = y_i y_j.

    Samples y, z and the strictly-upper entries of A uniformly, then
    fills the lower triangle by reciprocity and the diagonal by row sums.
    rng is a numpy Generator.
    """
    y = F2Vector.from_bits(int(b) for b in rng.integers(0, 2, size=r))
    z = F2Vector.from_bits(int(b) for b in rng.integers(0, 2, size=r))
    upper = [0] * r
    for i in range(r):
        for j in range(i + 1, r):
            upper[i] |= int(rng.integers(0, 2)) << j
    return reciprocal_fill(upper, y), y, z
