"""Bit-packed linear algebra over GF(2).

Rows are Python ints used as bitsets (bit j = column j), so a whole row
XOR is one machine operation per word regardless of width.  Matrices are
immutable from the caller's perspective; rank and determinant work on
internal copies.

Index sets passed to submatrix/rows_normalized are 1-based and strictly
increasing, matching the usual [m] = {1, ..., m} convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "F2Matrix",
    "F2Vector",
    "IndexSet",
    "rank",
    "corank",
    "det",
    "submatrix",
    "rows_normalized",
    "block",
]

IndexSet = Sequence[int]


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


@dataclass(frozen=True)
class F2Vector:
    """A column vector over GF(2), packed into one int (bit i = entry i)."""

    len: int
    bits: int

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "F2Vector":
        value = 0
        n = 0
        for b in bits:
            if b & 1:
                value |= 1 << n
            n += 1
        return cls(len=n, bits=value)

    @classmethod
    def zeros(cls, n: int) -> "F2Vector":
        return cls(len=n, bits=0)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.len:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if self.len != other.len:
            raise ValueError(f"length mismatch: {self.len} vs {other.len}")
        return F2Vector(len=self.len, bits=self.bits ^ other.bits)

    def tolist(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.len)]

    def parity(self) -> int:
        """Sum of the entries in GF(2)."""
        return _parity(self.bits)

    def restrict(self, members: IndexSet) -> "F2Vector":
        """v[S] for a 1-based strictly increasing index set S."""
        _check_members(members, self.len)
        return F2Vector.from_bits((self.bits >> (s - 1)) & 1 for s in members)

    def as_col(self) -> "F2Matrix":
        return F2Matrix(self.len, 1, tuple(self.tolist()))

    def as_row(self) -> "F2Matrix":
        return F2Matrix(1, self.len, (self.bits,))


@dataclass(frozen=True)
class F2Matrix:
    """A dense matrix over GF(2) with int-bitset rows.

    The 0x0 matrix is a valid value and has determinant 1.
    """

    nrows: int
    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        mask = (1 << self.ncols) - 1
        if any(row & ~mask for row in self.rows):
            raise ValueError("nonzero padding bits")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "F2Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        packed = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            packed.append(sum((b & 1) << j for j, b in enumerate(row)))
        return cls(nrows, ncols, tuple(packed))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "F2Matrix":
        return cls(nrows, ncols, (0,) * nrows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def diag(cls, v: F2Vector) -> "F2Matrix":
        return cls(v.len, v.len, tuple(((v.bits >> i) & 1) << i for i in range(v.len)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(ij)
        return (self.rows[i] >> j) & 1

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return F2Matrix(
            self.nrows, self.ncols, tuple(a ^ b for a, b in zip(self.rows, other.rows))
        )

    def transpose(self) -> "F2Matrix":
        cols = [0] * self.ncols
        for i, row in enumerate(self.rows):
            while row:
                j = (row & -row).bit_length() - 1
                cols[j] |= 1 << i
                row &= row - 1
        return F2Matrix(self.ncols, self.nrows, tuple(cols))

    def column(self, j: int) -> F2Vector:
        if not 0 <= j < self.ncols:
            raise IndexError(j)
        bits = 0
        for i, row in enumerate(self.rows):
            bits |= ((row >> j) & 1) << i
        return F2Vector(len=self.nrows, bits=bits)

    def tolist(self) -> list[list[int]]:
        return [[(row >> j) & 1 for j in range(self.ncols)] for row in self.rows]


def _check_members(members: IndexSet, bound: int) -> None:
    prev = 0
    for s in members:
        if s <= prev:
            raise ValueError(f"index set not strictly increasing: {tuple(members)}")
        prev = s
    if prev > bound:
        raise ValueError(f"index {prev} out of range 1..{bound}")


def rank(m: F2Matrix) -> int:
    """Row rank via Gaussian elimination on the packed rows."""
    pivots: dict[int, int] = {}
    rk = 0
    for row in m.rows:
        while row:
            h = row.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = row
                rk += 1
                break
            row ^= p
    return rk


def corank(m: F2Matrix) -> int:
    """ncols - rank, for square matrices."""
    if m.nrows != m.ncols:
        raise ValueError(f"corank needs a square matrix, got {m.nrows}x{m.ncols}")
    return m.ncols - rank(m)


def det(m: F2Matrix) -> int:
    """Determinant in GF(2): 1 iff full rank.  det of the 0x0 matrix is 1."""
    if m.nrows != m.ncols:
        raise ValueError(f"det needs a square matrix, got {m.nrows}x{m.ncols}")
    return 1 if rank(m) == m.ncols else 0


def submatrix(b: F2Matrix, s: IndexSet, c: IndexSet) -> F2Matrix:
    """B[S, C]: entries (B_{s_i c_j}) for 1-based index sets S, C."""
    _check_members(s, b.nrows)
    _check_members(c, b.ncols)
    rows = []
    for si in s:
        src = b.rows[si - 1]
        packed = 0
        for j, cj in enumerate(c):
            packed |= ((src >> (cj - 1)) & 1) << j
        rows.append(packed)
    return F2Matrix(len(s), len(c), tuple(rows))


def rows_normalized(b: F2Matrix, s: IndexSet, c: IndexSet) -> F2Matrix:
    """B[S, C] with each diagonal entry replaced so the row sums to zero."""
    if len(s) != len(c):
        raise ValueError("rows_normalized needs |S| == |C|")
    sub = submatrix(b, s, c)
    n = sub.nrows
    rows = []
    for i, row in enumerate(sub.rows):
        off = row & ~(1 << i)
        rows.append(off | (_parity(off) << i))
    return F2Matrix(n, n, tuple(rows))


def block(grid: Sequence[Sequence["F2Matrix | F2Vector | int"]]) -> F2Matrix:
    """Assemble a matrix from a grid of blocks.

    Vectors are placed as columns; pass v.as_row() where a row is meant.
    Plain ints become 1x1 blocks.  Dimensions must be consistent across
    each grid row and column.
    """
    norm: list[list[F2Matrix]] = []
    for grow in grid:
        out = []
        for cell in grow:
            if isinstance(cell, F2Vector):
                cell = cell.as_col()
            elif isinstance(cell, int):
                cell = F2Matrix(1, 1, (cell & 1,))
            out.append(cell)
        norm.append(out)
    heights = [row[0].nrows for row in norm]
    widths = [cell.ncols for cell in norm[0]]
    for gi, grow in enumerate(norm):
        if len(grow) != len(widths):
            raise ValueError("ragged block grid")
        for gj, cell in enumerate(grow):
            if cell.nrows != heights[gi] or cell.ncols != widths[gj]:
                raise ValueError(
                    f"block ({gi},{gj}) is {cell.nrows}x{cell.ncols}, "
                    f"expected {heights[gi]}x{widths[gj]}"
                )
    offsets = [0]
    for w in widths:
        offsets.append(offsets[-1] + w)
    rows = []
    for gi, grow in enumerate(norm):
        for i in range(heights[gi]):
            packed = 0
            for gj, cell in enumerate(grow):
                packed |= cell.rows[i] << offsets[gj]
            rows.append(packed)
    return F2Matrix(sum(heights), offsets[-1], tuple(rows))
