"""Sieving, squarefree factorization and quadratic residue symbols.

Everything downstream consumes bits produced here: Legendre/Jacobi
symbols in additive (F2) form, and squarefree integers together with
their ordered odd prime factors.  Both come n by n (the reference) or in
bulk as numpy arrays (`same_r_stacks`, `legendre_plus_bulk`).
One n is factored by trial division (`try_factor_squarefree`), with no
table; a range is factored a block at a time from the
smallest-prime-factor table of a `PrimeSieve`, which holds odd m only
(the pass takes the powers of 2 out first) and serves only that bulk
pass, with bit operations and exact float64 quotients instead of
integer division.  The pass writes each n's primes straight into its
stack of exact size (count, r), with no padded row per n, and every
caller reads the stacks as they are; only `enumerate_squarefree`, which
yields n by n, merges them back into the order of n.  The bulk symbols are one lookup in a table of
quadratic characters modulo every odd prime below a power of two,
built once per process and capped at `QR_TABLE_CAP`.

Range work is cut one way: `spans` cuts a range into blocks of `BLOCK`
integers, `map_blocks` maps over them, and `same_r_stacks` factors one
block at once and hands it on as one stack per prime count r, ascending.
A block pass takes the tables of its run (a sieve, a g table) as
arguments after the block, which `map_blocks` hands to each pool worker
once, so that no module keeps run state between blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from heapq import merge
from typing import Iterator

import numpy as np

__all__ = [
    "BLOCK",
    "NotSquarefreeError",
    "ResourceLimitError",
    "PrimeSieve",
    "FactoredInteger",
    "sieve_init",
    "factor_squarefree",
    "try_factor_squarefree",
    "spans",
    "same_r_stacks",
    "map_blocks",
    "jacobi",
    "legendre",
    "legendre_plus",
    "legendre_plus_bulk",
    "QR_TABLE_CAP",
    "is_square_class",
    "enumerate_squarefree",
]


class NotSquarefreeError(ValueError):
    """Raised when an integer expected to be squarefree is not."""


class ResourceLimitError(RuntimeError):
    """Raised when a request would exceed a stated limit or memory budget."""


BLOCK = 1 << 16  # integers per block: the one width a range is cut by

# The largest sieve limit: `QR_TABLE_CAP` and the exact float64 quotient
# of `_factor_range` rely on n <= 2**30 - 1.
SIEVE_LIMIT = 2 ** 30 - 1


@dataclass(frozen=True)
class PrimeSieve:
    """Smallest-prime-factor table for the odd m <= limit, read by the
    bulk factorization of a range (`same_r_stacks`).

    spf[k] is the smallest prime factor of 2k + 1, with spf[0] == 1, so
    spf[p >> 1] == p exactly for odd primes.  Immutable after
    construction and safe to share between workers.
    """

    limit: int
    spf: np.ndarray  # uint32, length (limit + 1) // 2


@dataclass(frozen=True)
class FactoredInteger:
    """A positive squarefree integer with its ordered odd prime factors."""

    n: int
    odd_primes: tuple[int, ...]
    is_even: bool

    @property
    def r(self) -> int:
        return len(self.odd_primes)


def sieve_init(limit: int) -> PrimeSieve:
    """Build the odd smallest-prime-factor table for the bulk factorization
    of ranges up to limit, at most `SIEVE_LIMIT`, one uint32 per odd m."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_LIMIT:
        raise ResourceLimitError(f"sieve limit {limit} is over the largest, {SIEVE_LIMIT}")
    # Every odd m starts as its own factor; each odd prime p lowers its
    # odd multiples from p^2 on (a stride of p in k is 2p in m), and
    # smaller primes, struck first, stay.
    spf = np.arange(1, limit + 1, 2, dtype=np.uint32)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if spf[p >> 1] == p:
            strike = spf[p * p >> 1 :: p]
            np.minimum(strike, p, out=strike)
    return PrimeSieve(limit=limit, spf=spf)


def try_factor_squarefree(n: int) -> FactoredInteger | None:
    """FactoredInteger for n in [1, `SIEVE_LIMIT`] by trial division, or
    None when n is not squarefree; the one scalar factorization."""
    if n < 1 or n > SIEVE_LIMIT:
        raise ValueError(f"n={n} outside [1, {SIEVE_LIMIT}]")
    if n % 4 == 0:
        return None
    is_even = n % 2 == 0
    m = n // 2 if is_even else n
    primes = []
    p = 3
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return None
            primes.append(p)
        p += 2
    if m > 1:
        primes.append(m)
    return FactoredInteger(n=n, odd_primes=tuple(primes), is_even=is_even)


def _factor_range(
    lo: int, hi: int, sieve: PrimeSieve, residue: int, modulus: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """`same_r_stacks`: the one factorization pass.

    The powers of 2 are read from n & 3 and taken out by one shift, so
    every m left is odd, as is every quotient of it, and is read in the
    odd table at m >> 1.  Then every n still being divided loses the
    smallest prime factor p of its m in the same pass, with no integer
    division and no remainder: the quotient q = m / p is a float64
    division, exact because p divides m and m <= SIEVE_LIMIT < 2**53, and
    the factor of q, which the next step reads anyway, equals p exactly
    when p^2 divides m.  Step j writes its primes into row j of an
    (r_max, count) table, and r is counted as the rows are written, so the
    stack of prime count r is the table's first r rows taken once at its
    n, ascending, and transposed.
    """
    if hi - 1 > sieve.limit:
        raise ValueError(f"range end {hi - 1} exceeds sieve limit {sieve.limit}")
    lo = max(lo, 1)
    ns = np.arange(lo + (residue - lo) % modulus, hi, modulus, dtype=np.int64)
    low = ns & 3
    ok = low != 0  # n not divisible by 4
    m = ns >> (low == 2)
    # idx: the n still being divided; m: what is left of each; p: its
    # smallest prime factor
    idx = np.flatnonzero(ok & (m > 1))
    m = m[idx]
    spf = sieve.spf
    p = spf[m >> 1]
    steps = []
    while idx.size:
        q = (m / p).astype(np.int64)
        spf_q = spf[q >> 1]
        bad = spf_q == p
        ok[idx[bad]] = False
        steps.append((idx, p))
        more = np.flatnonzero((q > 1) & ~bad)
        idx, m, p = idx[more], q[more], spf_q[more]
    # Row j is written at every n with r > j, and no other entry is read.
    table = np.empty((len(steps), ns.size), dtype=np.int64)
    r = np.zeros(ns.size, dtype=np.uint8)
    for j, (idx, p) in enumerate(steps):
        table[j, idx] = p
        r[idx] = j + 1
    stacks = []
    for rv in range(len(steps) + 1):
        (at,) = np.nonzero(ok & (r == rv))
        if at.size:
            stacks.append((ns.take(at), table[:rv].take(at, axis=1).T))
    return stacks


def spans(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """[lo, hi) cut into consecutive (lo, hi) pairs at most width long."""
    return [(a, min(a + width, hi)) for a in range(lo, hi, width)]


def enumerate_squarefree(
    residue: int, modulus: int, limit: int, sieve: PrimeSieve
) -> Iterator[FactoredInteger]:
    """All squarefree n <= limit with n == residue (mod modulus), ascending:
    the `same_r_stacks` of one `BLOCK` at a time, each ascending in n,
    merged by n."""
    if limit > sieve.limit:
        raise ValueError(f"limit {limit} exceeds sieve limit {sieve.limit}")
    for lo, hi in spans(1, limit + 1, BLOCK):
        stacks = same_r_stacks(lo, hi, sieve, residue, modulus)
        for n, row in merge(*(zip(ns.tolist(), ps.tolist()) for ns, ps in stacks)):
            yield FactoredInteger(n, tuple(row), n % 2 == 0)


def same_r_stacks(
    lo: int, hi: int, sieve: PrimeSieve, residue: int = 0, modulus: int = 1
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The squarefree n in [lo, hi) with n = residue (mod modulus), as
    same-r stacks: [lo, hi) is factored at once, and for each prime count
    r in ascending order there is one (ns, primes), ns ascending and
    primes their exact-size (count, r) int64 array of odd primes, each row
    ascending.  primes is the transpose of an (r, count) array, so each
    column, one prime of every n, is contiguous."""
    return _factor_range(lo, hi, sieve, residue, modulus)


# Imported by the first pool run of `map_blocks`, so that importing cnkit
# for a serial run loads no process machinery.
ProcessPoolExecutor = None

# The shared arguments of the pool run this worker serves, set once per
# worker by `_set_shared`; the parent never sets them.
_SHARED: tuple = ()


def _set_shared(shared: tuple) -> None:
    global _SHARED
    _SHARED = shared


def _run_shared(fn, block):
    return fn(block, *_SHARED)


def map_blocks(fn, blocks, workers: int = 1, shared: tuple = ()) -> Iterator:
    """fn(block, *shared) for each block of the sequence blocks, results in
    block order: in a pool of min(workers, len(blocks)) processes, each of
    which receives shared once, or else in this process.  fn is a
    module-level function, so that a pool can send it by name."""
    global ProcessPoolExecutor
    workers = min(workers, len(blocks))
    if workers > 1:
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, initializer=_set_shared, initargs=(shared,)) as pool:
            yield from pool.map(partial(_run_shared, fn), blocks)
        return
    for block in blocks:
        yield fn(block, *shared)


def factor_squarefree(n: int) -> FactoredInteger:
    """Like try_factor_squarefree but raising NotSquarefreeError."""
    f = try_factor_squarefree(n)
    if f is None:
        raise NotSquarefreeError(f"{n} is not squarefree")
    return f


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd positive m, via the binary algorithm.

    Handles negative and even a through the (-1/m) and (2/m)
    supplements.  Returns 0 when gcd(a, m) > 1.
    """
    if m <= 0 or m % 2 == 0:
        raise ValueError(f"Jacobi denominator must be odd and positive, got {m}")
    a %= m
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def legendre(d: int, p: int) -> int:
    """Legendre symbol (d/p) in {+1, -1} for an odd prime p with p not dividing d."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if d % p == 0:
        raise ValueError(f"p={p} divides d={d}")
    return jacobi(d, p)


def legendre_plus(d: int, p: int) -> int:
    """Additive Legendre symbol: 0 for residues, 1 for non-residues."""
    return (1 - legendre(d, p)) // 2


# Moduli of `legendre_plus_bulk` lie below this cap.  It covers the
# smaller prime of every pair of an n in the largest sieve
# (n <= SIEVE_LIMIT < 2**30), and its table holds about 54 MB.
QR_TABLE_CAP = 2 ** 15

# (bound, offset, bits): the additive quadratic characters modulo every
# odd prime p < bound, (x/p)_+ at bits[offset[p] + x], with offset -1 at
# every other index.  Only the largest table built is kept.
_QR_TABLE: tuple[int, np.ndarray, np.ndarray] = (0, np.empty(0, np.int64), np.empty(0, np.uint8))


def _qr_table(p_max: int) -> tuple[int, np.ndarray, np.ndarray]:
    """A table serving every odd prime p <= p_max: the one at hand, or a
    new one for the next power of two above p_max."""
    global _QR_TABLE
    table = _QR_TABLE
    if p_max >= table[0]:
        bound = 1 << p_max.bit_length()
        odd = np.arange(1, bound, 2)
        primes = odd[sieve_init(bound - 1).spf == odd][1:]
        starts = np.cumsum(primes) - primes
        offset = np.full(bound, -1, dtype=np.int64)
        offset[primes] = starts
        bits = np.ones(int(primes.sum()), dtype=np.uint8)
        for p, start in zip(primes.tolist(), starts.tolist()):
            x = np.arange(1, (p + 1) // 2, dtype=np.int64)
            bits[start + x * x % p] = 0
        table = _QR_TABLE = (bound, offset, bits)
    return table


def _not_an_odd_prime(p: int) -> ValueError:
    return ValueError(f"p must be an odd prime below 2**15, got {p}")


def legendre_plus_bulk(d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Additive Legendre symbols (d/p)_+ elementwise, for odd primes
    p < QR_TABLE_CAP not dividing d, looked up in one table of quadratic
    characters built once per process.

    d and p broadcast against each other; returns uint8 0/1.
    """
    d, p = np.broadcast_arrays(np.asarray(d, dtype=np.int64), np.asarray(p, dtype=np.int64))
    if p.size == 0:
        return np.zeros(p.shape, dtype=np.uint8)
    p_min, p_max = int(p.min()), int(p.max())
    if p_min < 3 or p_max >= QR_TABLE_CAP:
        raise _not_an_odd_prime(p_min if p_min < 3 else p_max)
    _, offset, bits = _qr_table(p_max)
    start = offset[p]
    if (start < 0).any():
        raise _not_an_odd_prime(int(p[start < 0][0]))
    rem = d % p
    if (rem == 0).any():
        raise ValueError("p divides d")
    return bits[start + rem]


@cache
def _square_classes_mod(mod: int) -> frozenset[int]:
    return frozenset((x * x) % mod for x in range(1, mod) if math.gcd(x, mod) == 1)


def is_square_class(a: int, n0: int, D: int) -> bool:
    """True iff a/n0 > 0 and a*n0 is a square modulo 8D.

    Membership test for the twist families indexed by (n0, D): the set of
    squarefree integers coprime to 2D landing in n0's square class.
    """
    if D <= 0 or D % 2 == 0:
        raise ValueError(f"D must be odd and positive, got {D}")
    mod = 8 * D
    if math.gcd(a, 2 * D) != 1 or math.gcd(n0, 2 * D) != 1:
        raise ValueError(f"arguments must be coprime to 2D: a={a}, n0={n0}, D={D}")
    if (a > 0) != (n0 > 0):
        return False
    return (a * n0) % mod in _square_classes_mod(mod)
