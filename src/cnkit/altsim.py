"""Alternating-matrix ensembles, corank distributions and Markov models.

An ensemble is defined by an odd modulus D, admissible square classes
n0, divisor sequences T1/T2/Q1/Q2, a diagonal divisor and an alternating
seed block B.  For each admissible squarefree n (or each random bit
assignment standing in for one) it yields a (2r+t)-dimensional
alternating matrix whose corank, shifted by the structural offset delta,
follows the alpha_k distribution in the limit.

Also here: the two Markov chains (corank steps of +-2 for the ensemble,
+-1 for class-group 4-ranks), the closed-form limit laws, Monte Carlo
over bit assignments, and the scalar 4-rank map for n = 3 (mod 4), the
oracle of the census, which ranks the g forms of `monsky` instead.

The Monte Carlo path works on blocks of MC_BLOCK assignments: one draw
of class indices and of the strict upper triangle U as uint64 row words
per block.  The block is then assembled and ranked one sub-block at a
time, each sub-block one tile of the rank kernel
(`_batchrank.tile_matrices`, 1,074 samples at r = 30), so that every
temporary stays cache-sized: U^T by a word-level bit transpose, the
matrices assembled straight into the words of `rank_batch` (no 0/1
matrix is built), and one `rank_batch` call.  `build_alt` is the scalar
reference for each matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from math import gcd, isqrt, prod

import numpy as np

from . import gf2
from ._batchrank import pack_rows, rank_batch, row_dtype, tile_matrices
from .gf2 import F2Matrix, F2Vector
from .lfun import LCache, divisor_sum
from .monsky import reciprocal_fill, twist_matrix
from .numtheory import (
    FactoredInteger,
    ResourceLimitError,
    is_square_class,
    jacobi,
    map_blocks,
    spans,
    try_factor_squarefree,
)

__all__ = [
    "AltConfig",
    "BitAssignment",
    "CorankHistogram",
    "EquivalenceResult",
    "ENSEMBLE_LABELS",
    "ensemble_config",
    "validate_config",
    "build_alt",
    "delta",
    "alpha",
    "equivalence_check",
    "sample_assignment",
    "draw_assignments",
    "corank_distribution_mc",
    "markov_step",
    "markov_stationary",
    "classrank_markov_step",
    "classrank_stationary",
    "gerth_pmf",
    "four_rank",
]


@dataclass(frozen=True)
class AltConfig:
    """Data defining one alternating-matrix ensemble.

    n0 lists the admissible square classes (one entry except for the
    even-twist family, which covers both classes of n = 3 mod 4).
    """

    d: int
    n0: tuple[int, ...]
    t1: tuple[int, ...]
    t2: tuple[int, ...]
    q1: tuple[int, ...]
    q2: tuple[int, ...]
    d_diag: int = 1
    b: F2Matrix | None = None
    label: str = ""
    delta_expected: int | None = None

    @property
    def t(self) -> int:
        return len(self.t1)

    def b_block(self) -> F2Matrix:
        return self.b if self.b is not None else F2Matrix.zeros(self.t, self.t)

    def accepts(self, n: int) -> bool:
        """Membership of n in the ensemble's squarefree family (class part)."""
        return gcd(n, 2 * self.d) == 1 and any(
            is_square_class(n, n0, self.d) for n0 in self.n0
        )


def _is_square(x: int) -> bool:
    return x > 0 and isqrt(x) ** 2 == x


def validate_config(cfg: AltConfig) -> None:
    """Reject configurations outside the ensemble hypotheses."""
    if cfg.d <= 0 or cfg.d % 2 == 0:
        raise ValueError(f"D must be odd and positive, got {cfg.d}")
    if len(cfg.t1) != len(cfg.t2):
        raise ValueError("T1 and T2 must have equal length")
    lim = 2 * cfg.d
    for name, seq in (("T1", cfg.t1), ("T2", cfg.t2), ("Q1", cfg.q1), ("Q2", cfg.q2)):
        for dd in seq:
            if dd == 0 or lim % abs(dd):
                raise ValueError(f"{name} entry {dd} is not a divisor of 2D={lim}")
    if cfg.d_diag == 0 or lim % abs(cfg.d_diag):
        raise ValueError(f"d_diag {cfg.d_diag} is not a divisor of 2D={lim}")
    for n0 in cfg.n0:
        if gcd(n0, lim) != 1:
            raise ValueError(f"n0={n0} not coprime to 2D={lim}")
    if cfg.b is not None:
        t, rows = cfg.t, cfg.b.rows
        if cfg.b.nrows != t or cfg.b.ncols != t:
            raise ValueError("B block must be t x t")
        if any(
            ((rows[i] >> j) ^ (rows[j] >> i)) & 1 for i in range(t) for j in range(i)
        ) or any((rows[i] >> i) & 1 for i in range(t)):
            raise ValueError("B block must be alternating")
    b1, b2 = prod(cfg.q1), prod(cfg.q2)
    if _is_square(b1) or _is_square(b2) or _is_square(-b1 * b2):
        raise ValueError(f"Q products violate the non-square condition: {b1}, {b2}")
    if _is_square(-b1) and _is_square(-b2):
        raise ValueError("at least one of the Q products must not be -1 times a square")


# The seven reference ensembles (d_diag = 1, B = 0 throughout).  The
# final field is the structural corank offset each is known to have.
_ENSEMBLES = {
    "5a": AltConfig(1, (5,), (-2,), (2,), (-1,), (2,), label="5a", delta_expected=1),
    "5b": AltConfig(1, (5,), (1,), (-1,), (-1,), (2,), label="5b", delta_expected=1),
    "5ab": AltConfig(1, (5,), (-2,), (-2,), (-1,), (2,), label="5ab", delta_expected=1),
    "6": AltConfig(1, (3, 7), (2,), (-2,), (-2, -1), (2,), label="6", delta_expected=1),
    "7a": AltConfig(
        1, (7,), (-2, 1), (1, -2), (-1,), (2,), label="7a", delta_expected=0
    ),
    "7b": AltConfig(
        1, (7,), (-2, -1), (1, 1), (-1,), (2,), label="7b", delta_expected=0
    ),
    "7ab": AltConfig(
        1, (7,), (-2, -1), (1, -2), (-1,), (2,), label="7ab", delta_expected=0
    ),
}

ENSEMBLE_LABELS = tuple(_ENSEMBLES)


def ensemble_config(label: str) -> AltConfig:
    try:
        return _ENSEMBLES[label]
    except KeyError:
        raise ValueError(f"unknown ensemble label {label!r}") from None


# --- bit sources ---------------------------------------------------------------


def _sym_plus(d: int, m: int) -> int:
    """(d/m)_+ for odd positive m coprime to 2D, d a signed divisor of 2D."""
    return (1 - jacobi(d, m)) // 2


@cache
def _unit_class_reps(d: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Representatives of (Z/8D)^x modulo squares, and the rep index of
    each residue mod 8D (0 at non-units).  The result is shared, so the
    table is read-only."""
    mod = 8 * d
    units = [u for u in range(1, mod) if gcd(u, mod) == 1]
    squares = {u * u % mod for u in units}
    reps: list[int] = []
    unit_to_idx: dict[int, int] = {}
    for u in units:
        if u in unit_to_idx:
            continue
        idx = len(reps)
        reps.append(u)
        for s in squares:
            unit_to_idx[u * s % mod] = idx
    index = np.zeros(mod, dtype=np.int64)
    index[list(unit_to_idx)] = list(unit_to_idx.values())
    index.flags.writeable = False
    return tuple(reps), index


@cache
def _class_codes(d: int) -> tuple[np.ndarray, np.ndarray]:
    """XOR codes of the classes of `_unit_class_reps(d)`: (Z/8D)^x modulo
    squares is an elementary abelian 2-group, so each class index gets the
    code of its coordinates in a basis, and the code of a product of
    classes is the XOR of their codes.  Returns code (by class index) and
    decode (by code), read-only."""
    reps, index = _unit_class_reps(d)
    mod = 8 * d
    members = [int(index[1])]  # members[c] is the class index of code c
    for g in range(len(reps)):
        if g not in members:
            members += [int(index[reps[m] * reps[g] % mod]) for m in members]
    decode = np.array(members, dtype=np.min_scalar_type(len(reps) - 1))
    code = np.empty_like(decode)
    code[decode] = np.arange(len(reps))
    code.flags.writeable = decode.flags.writeable = False
    return code, decode


@dataclass(frozen=True)
class BitAssignment:
    """Uniform stand-in for the Legendre-symbol bits of an admissible n.

    classes holds one unit representative mod 8D per prime; upper holds
    the strictly-upper rows of A as packed ints.  The product of the
    classes is constrained to an admissible square class.
    """

    d: int
    r: int
    classes: tuple[int, ...]
    upper: tuple[int, ...]

    def product_class(self) -> int:
        mod = 8 * self.d
        out = 1
        for c in self.classes:
            out = out * c % mod
        return out


@dataclass
class CorankHistogram:
    """Aggregated coranks from a Monte Carlo run."""

    label: str
    r: int
    samples: int
    seed: int
    counts: dict[int, int] = field(default_factory=dict)

    def frequency(self, corank: int) -> float:
        return self.counts.get(corank, 0) / self.samples

    def total(self) -> int:
        return sum(self.counts.values())


def _assignment_bits(src: BitAssignment):
    """Per-prime symbol bits and the A matrix encoded by an assignment."""
    a = reciprocal_fill(src.upper, [_sym_plus(-1, c) for c in src.classes])
    sym = lambda dd: [_sym_plus(dd, c) for c in src.classes]  # noqa: E731
    return a, sym


def build_alt(cfg: AltConfig, source: "FactoredInteger | BitAssignment") -> F2Matrix:
    """The (2r+t)-dimensional alternating matrix for one bit source."""
    if isinstance(source, FactoredInteger):
        if source.is_even or not cfg.accepts(source.n):
            raise ValueError(f"n={source.n} not in the ensemble family")
        r = source.r
        a = twist_matrix(source.odd_primes)
        sym = lambda dd: [_sym_plus(dd, p) for p in source.odd_primes]  # noqa: E731
    else:
        a, sym = _assignment_bits(source)
        r = source.r

    def b_block(q: tuple[int, ...]) -> F2Matrix:
        rows = [0] * r
        for dd in q:
            mask = sum(bit << i for i, bit in enumerate(sym(dd)))
            for i in range(r):
                if (mask >> i) & 1:
                    rows[i] ^= mask
        rows = [row & ~(1 << i) for i, row in enumerate(rows)]
        return F2Matrix(r, r, tuple(rows))

    def r_block(t_seq: tuple[int, ...]) -> F2Matrix:
        return F2Matrix.from_rows([sym(dd) for dd in t_seq])

    ddiag = F2Matrix.diag(F2Vector.from_bits(sym(cfg.d_diag)))
    a_d = a + ddiag
    at_d = a.transpose() + ddiag
    r1 = r_block(cfg.t1)
    r2 = r_block(cfg.t2)
    return gf2.block(
        [
            [b_block(cfg.q1), at_d, r1.transpose()],
            [a_d, b_block(cfg.q2), r2.transpose()],
            [r1, r2, cfg.b_block()],
        ]
    )


# --- structural corank offset ---------------------------------------------------


DELTA_SEARCH_BUDGET = 200  # family members `delta` tries
FAMILY_HARD_CAP = 10 ** 7  # no family member is sought above this n


def family_members(cfg: AltConfig, count: int):
    """The first `count` squarefree members of the ensemble family below
    `FAMILY_HARD_CAP`, ascending."""
    found = 0
    n = 1
    while n <= FAMILY_HARD_CAP and found < count:
        if cfg.accepts(n):
            f = try_factor_squarefree(n)
            if f is not None:
                yield f
                found += 1
        n += 2


def delta(cfg: AltConfig) -> int:
    """Structural corank offset: t + 2 minus the best achievable rank of
    the marked column family (first-block sum, second-block sum, and the
    t border columns), over the first `DELTA_SEARCH_BUDGET` family members."""
    t = cfg.t
    best = -1
    found = 0
    for f in family_members(cfg, DELTA_SEARCH_BUDGET):
        found += 1
        m = build_alt(cfg, f)
        r = f.r
        v = F2Vector.zeros(m.nrows)
        vp = F2Vector.zeros(m.nrows)
        for j in range(r):
            v = v + m.column(j)
            vp = vp + m.column(r + j)
        vecs = [v.bits, vp.bits] + [m.column(2 * r + i).bits for i in range(t)]
        rank = gf2.rank(F2Matrix(len(vecs), m.nrows, tuple(vecs)))
        if rank > best:
            best = rank
            if best == t + 2:
                break
    if found == 0:
        raise RuntimeError("no family members found within the search budget")
    return t + 2 - best


# --- the limit law and its Markov chains -----------------------------------------


def _inv_prod() -> float:
    out = 1.0
    for j in range(0, 65):
        out /= 1.0 + 2.0 ** (-j)
    return out


_INV_PROD = _inv_prod()


def alpha(k: int) -> float:
    """Limiting proportion of family members with corank k + delta
    (within the parity class k = t + delta mod 2)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    try:
        out = 2.0 ** (k + 1) * _INV_PROD
    except OverflowError:  # k >= 1023, where alpha has been 0.0 since k = 47
        return 0.0
    for j in range(1, k + 1):
        out /= 2.0 ** j - 1.0
    return out


def markov_step(k: int) -> tuple[float, float, float]:
    """Transition probabilities (corank +2, unchanged, -2) from corank k."""
    up = 2.0 ** (-2 * k - 1)
    stay = 3.0 * 2.0 ** (-k) - 5.0 * 2.0 ** (-2 * k - 1)
    down = 1.0 - 3.0 * 2.0 ** (-k) + 2.0 ** (-2 * k + 1)
    return up, stay, down


CHAIN_K_MAX = 1 << 16  # every state past k = 50 or so is 0.0 in float64 anyway
CHAIN_TOL = 1e-13  # bound on a stationary law's residual; measured ones are below 3e-17


def _stationary(step, k_min: int, k_max: int, stride: int) -> dict[int, float]:
    """Stationary law of the birth-death chain on range(k_min, k_max + 1, stride),
    the top state's up folded into its stay, by detailed balance:
    pi(k + stride) / pi(k) = up(k) / down(k + stride).  The law is accepted
    only if its residual |pi P - pi|_1 is below CHAIN_TOL."""
    if k_max < 8:
        raise ValueError("k_max must be at least 8")
    if k_max > CHAIN_K_MAX:
        raise ResourceLimitError(f"k_max={k_max} is over the chain bound of {CHAIN_K_MAX}")
    states = range(k_min, k_max + 1, stride)
    up, stay, down = np.array([step(k) for k in states]).T
    stay[-1] += up[-1]  # reflect the (astronomically small) top overflow
    up[-1] = 0.0
    pi = np.cumprod(np.concatenate(([1.0], up[:-1] / down[1:])))
    pi /= pi.sum()
    flow = pi * stay
    flow[1:] += pi[:-1] * up[:-1]
    flow[:-1] += pi[1:] * down[1:]
    residual = float(np.abs(flow - pi).sum())
    if not residual < CHAIN_TOL:
        raise ValueError(f"stationary law residual {residual:.3g} is not below tol={CHAIN_TOL}")
    return {k: float(p) for k, p in zip(states, pi)}


def markov_stationary(parity: str, k_max: int = 64) -> dict[int, float]:
    """Fixed point of the corank chain on one parity class, by detailed balance."""
    k_min = {"even": 0, "odd": 1}.get(parity)
    if k_min is None:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return _stationary(markov_step, k_min, k_max, 2)


def classrank_markov_step(k: int) -> tuple[float, float, float]:
    """Transition probabilities (4-rank +1, unchanged, -1) from rank k."""
    up = 2.0 ** (-2 * k - 1)
    stay = 2.0 ** (-k + 1) - 3.0 * 2.0 ** (-2 * k - 1)
    down = 1.0 - 2.0 ** (-k + 1) + 2.0 ** (-2 * k)
    return up, stay, down


def classrank_stationary(k_max: int = 64) -> dict[int, float]:
    """Fixed point of the 4-rank chain, by detailed balance."""
    return _stationary(classrank_markov_step, 0, k_max, 1)


def gerth_pmf(k: int) -> float:
    """Limiting proportion of imaginary quadratic class groups of 4-rank k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 2.0 ** (-k * k)
    if out == 0.0:  # k >= 33: the factors below would keep it 0.0 in O(k) steps
        return 0.0
    for i in range(1, k + 1):
        out /= (1.0 - 2.0 ** (-i)) ** 2
    for i in range(1, 65):
        out *= 1.0 - 2.0 ** (-i)
    return out


# --- equivalence with the divisor sums -------------------------------------------


@dataclass(frozen=True)
class EquivalenceResult:
    """Both sides of the nonvanishing criterion for one member."""

    label: str
    n: int
    value_nonzero: bool
    corank: int
    delta: int

    @property
    def corank_minimal(self) -> bool:
        return self.corank == self.delta

    @property
    def agrees(self) -> bool:
        return self.value_nonzero == self.corank_minimal


def _ensemble_value(label: str, f: FactoredInteger, cache: LCache) -> int:
    if label in ("5a", "5b", "7a", "7b"):
        return divisor_sum(label, f, cache)
    if label == "5ab":
        return divisor_sum("5a", f, cache) ^ divisor_sum("5b", f, cache)
    if label == "7ab":
        return divisor_sum("7a", f, cache) ^ divisor_sum("7b", f, cache)
    if label == "6":
        doubled = FactoredInteger(n=2 * f.n, odd_primes=f.odd_primes, is_even=True)
        return divisor_sum("6", doubled, cache)
    raise ValueError(f"unknown ensemble label {label!r}")


def equivalence_check(
    label: str, f: FactoredInteger, cache: LCache | None = None
) -> EquivalenceResult:
    """Compare divisor-sum nonvanishing against minimal ensemble corank."""
    cfg = ensemble_config(label)
    if f.is_even or not cfg.accepts(f.n):
        raise ValueError(f"n={f.n} not admissible for ensemble {label}")
    if cache is None:
        cache = LCache()
    value = _ensemble_value(label, f, cache)
    crk = gf2.corank(build_alt(cfg, f))
    return EquivalenceResult(
        label=label,
        n=f.n,
        value_nonzero=bool(value),
        corank=crk,
        delta=cfg.delta_expected if cfg.delta_expected is not None else delta(cfg),
    )


# --- Monte Carlo over bit assignments --------------------------------------------

MC_BLOCK = 4096
MC_BLOCKS_MAX = 1 << 16  # blocks of one run: 268,435,456 samples
MC_BUDGET = 2 ** 30  # bytes that one Monte Carlo block may take


def _check_block(r: int, count: int, need: int) -> None:
    """Reject r < 1, and a block whose arrays would take need > MC_BUDGET
    bytes, before anything is allocated."""
    if r < 1:
        raise ValueError("r must be positive")
    if need > MC_BUDGET:
        raise ResourceLimitError(
            f"a block of {count} samples at r={r} needs about {need} bytes, "
            f"over the budget of {MC_BUDGET}"
        )


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    )


@cache
def _row_masks(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row words (r, wr) of the bits above the diagonal, below it and on
    it: row i holds the bits j > i, j < i and j = i, in the uint64 words
    of the draw.  The result is shared, so the arrays are read-only."""
    ones = np.ones((r, r), dtype=np.uint8)
    masks = tuple(
        pack_rows(bits).astype(np.uint64)
        for bits in (np.triu(ones, 1), np.tril(ones, -1), np.eye(r, dtype=np.uint8))
    )
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _draw_block(cfg: AltConfig, r: int, rng: np.random.Generator, count: int):
    """Raw per-sample draws, in a fixed call order for reproducibility:
    class indices (count, r), and U, the strict upper triangle of A, as
    row words (count, r, wr) with row i holding random bits j > i only."""
    reps, index = _unit_class_reps(cfg.d)
    mod = 8 * cfg.d
    cls = np.empty((count, r), dtype=np.int64)
    cls[:, : r - 1] = rng.integers(0, len(reps), size=(count, r - 1))
    if len(cfg.n0) > 1:
        targets = np.array(cfg.n0)[rng.integers(0, len(cfg.n0), size=count)]
    else:
        targets = np.full(count, cfg.n0[0])
    wr = (r + 63) // 64
    upper = rng.integers(0, 2 ** 64 - 1, size=(count, r, wr), dtype=np.uint64, endpoint=True)
    upper &= _row_masks(r)[0]
    # The last class is the target's divided by the product of the others,
    # in XOR codes: every class is its own inverse.
    code, decode = _class_codes(cfg.d)
    last = code.take(index.take(targets % mod))
    last ^= np.bitwise_xor.reduce(code.take(cls[:, : r - 1].T), axis=0)
    cls[:, r - 1] = decode.take(last)
    return cls, upper


def _materialize(cfg: AltConfig, cls_row: np.ndarray, upper_words: np.ndarray):
    reps = _unit_class_reps(cfg.d)[0]
    rows = upper_words.astype("<u8", copy=False)  # word q holds bits 64q..64q+63
    return BitAssignment(
        d=cfg.d,
        r=len(cls_row),
        classes=tuple(reps[i] for i in cls_row),
        upper=tuple(int.from_bytes(row.tobytes(), "little") for row in rows),
    )


def sample_assignment(
    cfg: AltConfig, r: int, rng: np.random.Generator
) -> BitAssignment:
    """One uniform bit assignment with the product-class constraint."""
    return draw_assignments(cfg, r, rng, 1)[0]


def draw_assignments(
    cfg: AltConfig, r: int, rng: np.random.Generator, count: int
) -> list[BitAssignment]:
    """A block of assignments drawn exactly as the Monte Carlo path draws them."""
    # per sample: the class indices and U's words (8 r + 8 r wr bytes),
    # then the assignment: r row ints of up to 28 + 9 wr bytes and two
    # tuples of r pointers (tracemalloc peaks of 4096 samples: 2.0 kB at
    # r = 30 and 5.4 kB at r = 70; this gives 2.6 and 7.8 kB)
    _check_block(r, count, count * r * (64 + 24 * ((r + 63) // 64)))
    cls, upper = _draw_block(cfg, r, rng, count)
    return [_materialize(cfg, cls[i], upper[i]) for i in range(count)]


@cache
def _symbol_bits(d: int, dd: int) -> np.ndarray:
    """(dd/rep)_+ over the unit class representatives mod 8D.  The
    result is shared, so it is read-only."""
    bits = np.array([_sym_plus(dd, rep) for rep in _unit_class_reps(d)[0]], dtype=np.uint8)
    bits.flags.writeable = False
    return bits


def _or_at(rows: np.ndarray, field: np.ndarray, off: int) -> None:
    """OR the words of a bit field (n, wf, c) into the word rows (n, w, c)
    at bit offset off: at a word boundary straight in, elsewhere shifted,
    spilling into the next word."""
    q, s = divmod(off, 64)
    wf = field.shape[1]
    if s == 0:
        rows[:, q : q + wf] |= field
        return
    rows[:, q : q + wf] |= field << s
    spill = min(wf, rows.shape[1] - q - 1)
    if spill:
        rows[:, q + 1 : q + 1 + spill] |= field[:, :spill] >> (64 - s)


# The masked swap stages of a 64 x 64 bit transpose, widest first: stage
# s swaps the bits j + s of row k with the bits j of row k + s, for every
# j and k with bit s clear (the bits j that the mask keeps).  A narrower
# transpose runs the stages below its width, on the masks' low bits.
_SWAP_STAGES = (
    (32, 0x00000000FFFFFFFF),
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)


def _transpose_words(words: np.ndarray) -> np.ndarray:
    """The transposes of a stack of r x r bit matrices in row words
    (count, r, wr), in the same layout.

    The rows are padded to b, a power of two (64 once r > 64), and cut
    into b x b blocks held as a (row block, row, word, sample) array, the
    samples innermost, in words of `row_dtype(b)` (uint32 at b = 32).
    The log2(b) masked swap stages transpose every block in place, and
    block (p, q) of the result is block (q, p)."""
    count, r, wr = words.shape
    b = 64 if wr > 1 else 1 << (r - 1).bit_length()
    dtype = row_dtype(b)
    x = np.zeros((wr * b, wr, count), dtype=dtype)
    x[:r] = words.transpose(1, 2, 0)
    t = np.empty((wr * b // 2, wr, count), dtype=dtype)
    for s, mask in _SWAP_STAGES:
        if s >= b:
            continue
        pairs = x.reshape(wr, b // (2 * s), 2, s, wr, count)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        t = t.reshape(lo.shape)
        shift, keep = dtype.type(s), dtype.type(mask & np.iinfo(dtype).max)
        np.right_shift(lo, shift, out=t)
        t ^= hi
        t &= keep
        hi ^= t
        t <<= shift
        lo ^= t
    blocks = x.reshape(wr, b, wr, count).transpose(2, 1, 0, 3)
    rows = blocks.reshape(wr * b, wr, count)[:r]
    return rows.astype(np.uint64, copy=False).transpose(2, 0, 1)


def _assemble_block(cfg: AltConfig, cls: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The matrices of a block of assignments as (count, m, w) uint64
    words ready for rank_batch, the words `pack_rows(build_alt(...))`
    would give, widened to uint64 where m <= 32.

    upper is U in the row words of `_draw_block`, with no bit at or below
    the diagonal.  The words are built as a (row, word, sample) array,
    the samples innermost, and returned as a (count, m, w) view of it.
    Each divisor's symbol bits are gathered once, as (row, sample), and
    packed once into symbol words (word, sample).  Every r x r block is
    built as r-bit row fields in words: S = U + U^T by `_transpose_words`,
    y.y^T and each B(q) as symbol bits times a symbol word, and the
    diagonal of A as the parity of its rows.  The fields at column 0 are
    written straight into their rows, the others ORed in at their offsets.
    """
    count, r = cls.shape
    m = 2 * r + cfg.t
    below, eye = (mask[:, :, None] for mask in _row_masks(r)[1:])
    wr = eye.shape[1]
    bits, word = {}, {}
    for dd in {-1, cfg.d_diag, *cfg.t1, *cfg.t2, *cfg.q1, *cfg.q2}:
        bits[dd] = _symbol_bits(cfg.d, dd)[cls.T]
        word[dd] = np.dot(eye[:, :, 0].T, bits[dd])  # bit i into bit i % 64 of word i // 64

    terms = {}

    def b_term(dd: int) -> np.ndarray:
        """B((dd,)): row i is dd's symbol word where its bit i is set, else
        0, off the diagonal; y.y^T off the diagonal for dd = -1."""
        if dd not in terms:
            terms[dd] = np.multiply(bits[dd][:, None], word[dd])
            terms[dd] &= ~eye
        return terms[dd]

    def b_block(q: tuple[int, ...]) -> np.ndarray:
        return reduce(np.bitwise_xor, map(b_term, q))

    words = np.zeros((m, (m + 63) // 64, count), dtype=np.uint64)
    top, mid, bot = words[:r], words[r : 2 * r], words[2 * r :]
    # A + D = S + (y.y^T below the diagonal) + D, written straight into its
    # rows, with S = U + U^T and D the diagonal that makes A's rows even
    # (plus the d_diag symbols); A^T + D = A + D + y.y^T off the diagonal
    s = _transpose_words(upper).transpose(1, 2, 0)
    s ^= upper.transpose(1, 2, 0)
    yy = b_term(-1)
    a = np.bitwise_and(yy, below, out=mid[:, :wr])
    a ^= s
    parity = np.bitwise_count(a[:, 0] if wr == 1 else np.bitwise_xor.reduce(a, axis=1))
    parity &= 1
    parity ^= bits[cfg.d_diag]
    a |= parity[:, None] * eye
    _or_at(top, b_block(cfg.q1), 0)
    _or_at(top, a ^ yy, r)
    _or_at(mid, b_block(cfg.q2), r)
    for i, (d1, d2) in enumerate(zip(cfg.t1, cfg.t2)):
        q, bit = divmod(2 * r + i, 64)
        top[:, q] |= bits[d1] * np.uint64(1 << bit)  # one-bit columns
        mid[:, q] |= bits[d2] * np.uint64(1 << bit)
        _or_at(bot[i : i + 1], word[d1][None], 0)
        _or_at(bot[i : i + 1], word[d2][None], r)
    if cfg.b is not None:
        seed_rows = np.array(cfg.b.tolist(), dtype=np.uint8).reshape(cfg.t, cfg.t)
        _or_at(bot, pack_rows(seed_rows).astype(np.uint64)[:, :, None], 2 * r)
    return words.transpose(2, 0, 1)


def _mc_block_bytes(r: int, t: int, count: int) -> int:
    """An upper bound on the bytes a Monte Carlo block of count samples takes.

    Per sample of the block: the class indices, with the draw's copy of
    them, and U (16 r + 8 r wr).  Per sample of one sub-block, at most
    `tile_matrices(m, 8 w)` samples: the word matrix with the kernel's tile
    copy and scratch array (24 m w), and the assembly's r-row word arrays,
    the transpose's padded copies among them (under 64 r wr).  The
    tracemalloc peaks of a 4096 block are 0.93 kB per sample at r = 30 and
    2.15 kB at r = 70; this gives 1.61 and 2.96 kB.
    """
    m = 2 * r + t
    w, wr = (m + 63) // 64, (r + 63) // 64
    sub = min(count, tile_matrices(m, 8 * w))
    return count * (16 * r + 8 * r * wr) + sub * (24 * m * w + 64 * r * wr)


def _mc_block(args, cfg: AltConfig, r: int, seed: int) -> np.ndarray:
    """The corank counts of one block, args = (block index, samples)."""
    block, count = args
    rng = _block_rng(seed, block)
    cls, upper = _draw_block(cfg, r, rng, count)
    m = 2 * r + cfg.t
    counts = np.zeros(m + 1, dtype=np.int64)
    for lo, hi in spans(0, count, tile_matrices(m, 8 * ((m + 63) // 64))):
        ranks = rank_batch(_assemble_block(cfg, cls[lo:hi], upper[lo:hi]))
        counts += np.bincount(m - ranks, minlength=m + 1)
    return counts


def corank_distribution_mc(
    cfg: AltConfig,
    r: int,
    samples: int,
    seed: int,
    workers: int = 1,
) -> CorankHistogram:
    """Empirical corank distribution over uniform bit assignments.

    Samples are partitioned into fixed blocks with per-block RNG streams
    derived from (seed, block index), so results are bit-identical for
    any worker count.  Every field of cfg is used, and cfg is checked
    with validate_config; r < 1 or seed < 0 raises ValueError, and a
    block over MC_BUDGET or more than MC_BLOCKS_MAX blocks raise
    ResourceLimitError.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if samples > MC_BLOCKS_MAX * MC_BLOCK:
        raise ResourceLimitError(
            f"{samples} samples take more than {MC_BLOCKS_MAX} blocks of {MC_BLOCK}, "
            f"over the bound of {MC_BLOCKS_MAX * MC_BLOCK} samples"
        )
    validate_config(cfg)
    count = min(MC_BLOCK, samples)
    _check_block(r, count, _mc_block_bytes(r, cfg.t, count))
    m = 2 * r + cfg.t
    pieces = enumerate(spans(0, samples, MC_BLOCK))
    blocks = [(b, hi - lo) for b, (lo, hi) in pieces]
    total = np.zeros(m + 1, dtype=np.int64)
    for counts in map_blocks(_mc_block, blocks, workers, (cfg, r, seed)):
        total += counts
    hist = CorankHistogram(label=cfg.label, r=r, samples=samples, seed=seed)
    hist.counts = {k: int(c) for k, c in enumerate(total) if c}
    return hist


# --- 4-ranks of class groups ------------------------------------------------------


def four_rank(f: FactoredInteger) -> int:
    """4-rank of Cl(Q(sqrt(-n))) for squarefree n = 3 (mod 4), read off
    as the corank of A with its first row and column deleted."""
    if f.is_even or f.n % 4 != 3:
        raise ValueError(f"four_rank needs n = 3 (mod 4), got {f.n}")
    a = twist_matrix(f.odd_primes)
    idx = tuple(range(2, f.r + 1))
    return gf2.corank(gf2.submatrix(a, idx, idx))
