"""Recursive L-value parity and the eight residue-row divisor sums.

These are the arithmetic side of the row identities: each residue row
pairs a divisor sum built from g and the recursive parity function with
a determinant form from monsky.  The divisor sums iterate literally over
(pairs of coprime) divisors.

Divisors of squarefree n are encoded as (mask over odd primes, power of
2), so subset iteration covers them exactly once.  The sums come two
ways:

- n by n (`divisor_sum`, `verify_rows`): the readable reference and the
  test oracle.  The parity function is memoized by integer value, since
  the same divisors recur; g is computed from the restricted twist data
  with `monsky.redei_g_parts` and memoized like the parity (a caller may
  seed `LCache.gvals`).  The subset products of n are built on each
  call.
- for a stack of n with the same prime count r (`divisor_sums_batch`,
  what scans, certification and the identity check use): the same
  literal sums in numpy, over (count, 2^r) arrays of subset products, g
  from a g table and L(n/d), with the pair sums taken over a per-r table
  of the 3^r disjoint mask pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import gf2
from .monsky import (
    ROW_RESIDUE,
    TwistData,
    build_twist,
    redei_g_parts,
    row_det,
    rows_for_residue,
)
from .numtheory import FactoredInteger

__all__ = [
    "LCache",
    "RowCheck",
    "lvalue_parity",
    "divisor_sum",
    "divisor_sums_batch",
    "verify_rows",
]

# A stack is cut so that count * 3^r, the size of the pair-sum arrays
# (one byte per entry), stays within this budget.
PAIR_BUDGET = 1 << 18


@dataclass
class LCache:
    """Memo tables for the recursive parity function and for g.

    Values are keyed by the integer they belong to, so caches can be
    shared across every n of a range.  Single writer per cache; share
    read-only or keep one per worker.  g(d) is read from `gvals` when
    present there, and otherwise computed and stored in it.
    """

    lvals: dict[int, int] = field(default_factory=dict)
    gvals: dict[int, int] = field(default_factory=dict)


class _Ctx:
    """Divisor bookkeeping for one squarefree n: subset products, and the
    twist data restricted to a divisor when a g must be computed."""

    __slots__ = ("f", "twist", "prods", "lvals", "gvals")

    def __init__(self, f: FactoredInteger, cache: LCache, twist: TwistData | None):
        self.f = f
        self.twist = twist
        self.lvals = cache.lvals
        self.gvals = cache.gvals
        primes = f.odd_primes
        r = len(primes)
        prods = [1] * (1 << r)
        for mask in range(1, 1 << r):
            low = (mask & -mask).bit_length() - 1
            prods[mask] = prods[mask & (mask - 1)] * primes[low]
        self.prods = prods

    def g(self, mask: int, with2: bool) -> int:
        d = self.prods[mask] * (2 if with2 else 1)
        got = self.gvals.get(d)
        if got is not None:
            return got
        if self.twist is None:
            self.twist = build_twist(self.f)
        members = tuple(i + 1 for i in range(self.f.r) if (mask >> i) & 1)
        a_s = gf2.rows_normalized(self.twist.a, members, members)
        z_s = self.twist.z.restrict(members)
        val = redei_g_parts(a_s, z_s, 2 if with2 else d % 4)
        self.gvals[d] = val
        return val

    def lval(self, mask: int) -> int:
        m = self.prods[mask]
        if m == 1:
            return 1
        if m % 8 != 1:
            return 0
        got = self.lvals.get(m)
        if got is not None:
            return got
        low = mask & -mask
        rest = mask ^ low
        total = 0
        # Divisors d with p | d | m for the smallest prime factor p of m.
        sub = rest
        while True:
            dmask = sub | low
            if self.prods[dmask] % 8 == 1:
                gd = self.g(dmask, False)
                if gd:
                    total ^= gd & self.lval(mask ^ dmask)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        self.lvals[m] = total
        return total


def lvalue_parity(f: FactoredInteger, cache: LCache) -> int:
    """The recursive parity bit: 1 at n=1, the divisor recursion on
    n = 1 (mod 8), and 0 elsewhere."""
    if f.n == 1:
        return 1
    if f.is_even or f.n % 8 != 1:
        return 0
    return _Ctx(f, cache, None).lval((1 << f.r) - 1)


def _single_sum(ctx: _Ctx, f: FactoredInteger, want_mod: int, modulus: int) -> int:
    """Sum of g(d) * L(n/d) over divisors d = want_mod (mod modulus)."""
    r = f.r
    total = 0
    for mask in range(1 << r):
        for with2 in ((False, True) if f.is_even else (False,)):
            d = ctx.prods[mask] * (2 if with2 else 1)
            if d % modulus != want_mod:
                continue
            if f.is_even and not with2:
                continue  # quotient would be even, parity term vanishes
            comp = ((1 << r) - 1) ^ mask
            lv = ctx.lval(comp)
            if lv:
                total ^= ctx.g(mask, with2) & lv
    return total


def _pair_sum(
    ctx: _Ctx,
    f: FactoredInteger,
    mod0: int,
    want0: int,
    mod1: int,
    want1: int,
) -> int:
    """Sum of g(d0) g(d1) L(n/(d0 d1)) over coprime divisor pairs with
    d0 = want0 (mod mod0) and d1 = want1 (mod mod1)."""
    r = f.r
    full = (1 << r) - 1
    twos = ((False, True) if f.is_even else (False,))
    total = 0
    for mask0 in range(1 << r):
        rest = full ^ mask0
        for with2_0 in twos:
            d0 = ctx.prods[mask0] * (2 if with2_0 else 1)
            if d0 % mod0 != want0:
                continue
            g0 = ctx.g(mask0, with2_0)
            if not g0:
                continue
            sub = rest
            while True:
                for with2_1 in twos:
                    if with2_0 and with2_1:
                        continue
                    d1 = ctx.prods[sub] * (2 if with2_1 else 1)
                    if d1 % mod1 == want1:
                        if f.is_even and not (with2_0 or with2_1):
                            pass  # quotient even, term vanishes
                        else:
                            comp = rest ^ sub
                            lv = ctx.lval(comp)
                            if lv:
                                total ^= g0 & ctx.g(sub, with2_1) & lv
                if sub == 0:
                    break
                sub = (sub - 1) & rest
    return total


def divisor_sum(
    row: str, f: FactoredInteger, cache: LCache, twist: TwistData | None = None
) -> int:
    """The literal divisor-sum bit for a residue row at n."""
    if row not in ROW_RESIDUE:
        raise ValueError(f"unknown row label {row!r}")
    if f.n % 8 != ROW_RESIDUE[row]:
        raise ValueError(f"row {row} needs n = {ROW_RESIDUE[row]} (mod 8), n={f.n}")
    ctx = _Ctx(f, cache, twist)
    n = f.n
    if row == "1":
        return ctx.lval((1 << f.r) - 1)
    if row == "2":
        return _single_sum(ctx, f, n % 16, 16)
    if row == "3":
        return _single_sum(ctx, f, 3, 8)
    if row == "5a":
        return _single_sum(ctx, f, 5, 8)
    if row == "5b":
        return _pair_sum(ctx, f, 8, 7, 8, 3)
    if row == "6":
        first = _pair_sum(ctx, f, 16, (7 * n) % 16, 8, 7)
        return first ^ _single_sum(ctx, f, n % 16, 16)
    if row == "7a":
        return _single_sum(ctx, f, 7, 8)
    if row == "7b":
        return _pair_sum(ctx, f, 8, 5, 8, 3)
    raise AssertionError(row)


@cache
def _mask_tables(r: int):
    """Index tables over the masks of r odd primes.

    steps: for each popcount k = 1..r in turn, the masks m of popcount k,
    the divisor masks d of the L recursion of each (those holding the
    lowest bit of m) and m ^ d, as (C,) and two (C, 2^(k-1)) arrays.
    pairs: the 3^r disjoint (mask0, mask1) and the complement of their
    union.
    """
    by_k: dict[int, tuple[list, list]] = {}
    for mask in range(1, 1 << r):
        low = mask & -mask
        rest = mask ^ low
        subs = [sub | low for sub in range(1 << r) if sub & rest == sub]
        masks, dmasks = by_k.setdefault(len(subs), ([], []))
        masks.append(mask)
        dmasks.append(subs)
    steps = []
    for k in sorted(by_k):
        masks, dmasks = (np.array(v, dtype=np.intp) for v in by_k[k])
        steps.append((masks, dmasks, masks[:, None] ^ dmasks))
    every = np.arange(1 << r)
    mask0, mask1 = np.nonzero((every[:, None] & every[None, :]) == 0)
    return steps, (mask0, mask1, ((1 << r) - 1) ^ mask0 ^ mask1)


def _parity(terms: np.ndarray) -> np.ndarray:
    """XOR of a bool array along its last axis."""
    return np.count_nonzero(terms, axis=-1) % 2 == 1


def _stack_sums(
    residue: int, ns: np.ndarray, primes: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """`divisor_sums_batch` for a stack small enough to take whole."""
    rows = rows_for_residue(residue)
    count, r = primes.shape
    steps, (pair0, pair1, pair_rest) = _mask_tables(r)
    prods = np.ones((count, 1 << r), dtype=np.int64)
    for i in range(r):
        prods[:, 1 << i : 2 << i] = prods[:, : 1 << i] * primes[:, i : i + 1]
    # (d mod 16, g(d)) of every divisor d of n: keyed by whether d holds
    # the 2, d = prods or 2 * prods.
    divs = {False: (prods & 15, table.take(prods) != 0)}
    even = residue % 2 == 0
    if even:
        divs[True] = (2 * prods & 15, table.take(2 * prods) != 0)

    # L of every odd divisor, by the recursion of `_Ctx.lval`: a strict
    # submask has a smaller popcount, so each step reads filled entries.
    res, g = divs[False]
    ok = (res & 7) == 1
    g_ok = g & ok
    lv = np.zeros((count, 1 << r), dtype=bool)
    lv[:, 0] = True
    for masks, dmasks, quots in steps:
        lv[:, masks] = ok[:, masks] & _parity(g_ok[:, dmasks] & lv[:, quots])
    # L(n/d) with d = mask (times 2 for even n) is L(full ^ mask).
    lcomp = lv[:, ::-1]

    def hits(mod: int, want, with2: bool) -> np.ndarray:
        res, g = divs[with2]
        return ((res & (mod - 1)) == want) & g

    def single(mod: int, want) -> np.ndarray:
        # For even n only d holding the 2 leave an odd quotient.
        return _parity(hits(mod, want, even) & lcomp)

    def pair(mod0: int, want0, mod1: int, want1) -> np.ndarray:
        # d1 = 3 or 7 (mod 8) is odd in every pair row, so for even n it is
        # d0 that holds the 2.
        terms = hits(mod0, want0, even)[:, pair0] & hits(mod1, want1, False)[:, pair1]
        return _parity(terms & lv[:, pair_rest])

    n16 = (ns & 15)[:, None]
    out = np.empty((count, len(rows)), dtype=bool)
    for col, row in enumerate(rows):
        if row == "1":
            out[:, col] = lv[:, -1]
        elif row == "2":
            out[:, col] = single(16, n16)
        elif row == "3":
            out[:, col] = single(8, 3)
        elif row == "5a":
            out[:, col] = single(8, 5)
        elif row == "5b":
            out[:, col] = pair(8, 7, 8, 3)
        elif row == "6":
            out[:, col] = pair(16, 7 * n16 & 15, 8, 7) ^ single(16, n16)
        elif row == "7a":
            out[:, col] = single(8, 7)
        elif row == "7b":
            out[:, col] = pair(8, 5, 8, 3)
        else:
            raise AssertionError(row)
    return out


def divisor_sums_batch(
    residue: int, ns: np.ndarray, primes: np.ndarray, gtable: np.ndarray
) -> np.ndarray:
    """The divisor sums of a stack of same-r n, as a (count, rows) bool
    array: row k is `divisor_sum` of every row for `residue` at ns[k].

    ns are squarefree n = residue (mod 8); primes is their (count, r)
    int64 array of odd primes; gtable is a `monsky.redei_g_table` covering
    every n.
    """
    ns = np.asarray(ns, dtype=np.int64)
    out = np.empty((ns.size, len(rows_for_residue(residue))), dtype=bool)
    if np.any((ns & 7) != residue):
        raise ValueError(f"every n must be {residue} (mod 8)")
    step = max(1, PAIR_BUDGET // 3 ** primes.shape[1])
    for lo in range(0, ns.size, step):
        cut = slice(lo, lo + step)
        out[cut] = _stack_sums(residue, ns[cut], primes[cut], gtable)
    return out


@dataclass(frozen=True)
class RowCheck:
    """One row's divisor sum against its determinant form."""

    sum_value: int
    det_value: int

    @property
    def equal(self) -> bool:
        return self.sum_value == self.det_value


def verify_rows(
    f: FactoredInteger, cache: LCache, twist: TwistData | None = None
) -> dict[str, RowCheck]:
    """Evaluate both columns of every row applicable to n and compare."""
    if twist is None:
        twist = build_twist(f)
    out = {}
    for row in rows_for_residue(f.n % 8):
        out[row] = RowCheck(
            sum_value=divisor_sum(row, f, cache, twist),
            det_value=row_det(row, twist),
        )
    return out
