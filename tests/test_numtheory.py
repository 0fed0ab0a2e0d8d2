import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cnkit import numtheory
from cnkit.numtheory import (
    QR_TABLE_CAP,
    SIEVE_LIMIT,
    FactoredInteger,
    NotSquarefreeError,
    ResourceLimitError,
    enumerate_squarefree,
    factor_squarefree,
    is_square_class,
    jacobi,
    legendre,
    legendre_plus,
    legendre_plus_bulk,
    map_blocks,
    same_r_stacks,
    sieve_init,
    spans,
    try_factor_squarefree,
)


@pytest.fixture(scope="module")
def sieve():
    return sieve_init(10 ** 5)


@pytest.fixture(scope="module")
def big_sieve():
    return sieve_init(10 ** 7)  # about 20 MB


def test_sieve_small_table():
    # One entry per odd m <= limit: spf[k] is the factor of 2k + 1.
    s = sieve_init(10)
    assert {2 * k + 1: int(p) for k, p in enumerate(s.spf)} == {1: 1, 3: 3, 5: 5, 7: 7, 9: 3}


def test_sieve_boundary():
    s = sieve_init(2)
    assert s.spf.tolist() == [1]
    assert sieve_init(3).spf.tolist() == [1, 3]


def test_sieve_spot_values():
    s = sieve_init(30)
    assert int(s.spf[15 >> 1]) == 3
    assert int(s.spf[29 >> 1]) == 29


def test_sieve_invariants(sieve):
    # spf[k] divides 2k + 1 and is prime.
    spf = sieve.spf
    for k in range(1, 1000):
        p = int(spf[k])
        assert (2 * k + 1) % p == 0
        assert _spf_by_trial_division(p) == p


def _spf_by_trial_division(m):
    return next((p for p in range(2, math.isqrt(m) + 1) if m % p == 0), m)


def test_sieve_matches_trial_division_at_the_square_edges():
    # Every limit to 64, and p^2 - 1, p^2 and p^2 + 1 for each prime
    # p <= 31: the strike of p starts at p^2, and p is struck at all
    # only when p <= isqrt(limit).
    primes = [p for p in range(2, 32) if _spf_by_trial_division(p) == p]
    limits = set(range(2, 65)) | {p * p + e for p in primes for e in (-1, 0, 1)}
    for limit in sorted(limits):
        spf = sieve_init(limit).spf
        assert spf.dtype == np.uint32 and spf.size == (limit + 1) // 2, limit
        want = [1] + [_spf_by_trial_division(m) for m in range(3, limit + 1, 2)]
        assert spf.tolist() == want, limit


def test_sieve_budget(monkeypatch):
    # The limit is checked before anything is allocated.
    with pytest.raises(ResourceLimitError):
        sieve_init(SIEVE_LIMIT + 1)
    monkeypatch.setattr(numtheory, "SIEVE_LIMIT", 249)
    with pytest.raises(ResourceLimitError):
        sieve_init(10 ** 6)
    with pytest.raises(ResourceLimitError):
        sieve_init(250)
    assert sieve_init(249).limit == 249  # just within


def test_factor_squarefree_basic():
    f = factor_squarefree(15)
    assert f.odd_primes == (3, 5) and not f.is_even
    f = factor_squarefree(6)
    assert f.odd_primes == (3,) and f.is_even
    with pytest.raises(NotSquarefreeError):
        factor_squarefree(12)
    assert try_factor_squarefree(12) is None
    with pytest.raises(ValueError):
        factor_squarefree(SIEVE_LIMIT + 1)


def test_scalar_factorization_bounds_and_no_sieve(monkeypatch):
    # Trial division takes any n in [1, SIEVE_LIMIT] and builds no table.
    def forbidden(*args, **kwargs):
        raise AssertionError("a sieve was built")

    monkeypatch.setattr(numtheory, "sieve_init", forbidden)
    monkeypatch.setattr(numtheory, "PrimeSieve", forbidden)
    for fn in (try_factor_squarefree, factor_squarefree):
        for n in (0, -1, SIEVE_LIMIT + 1):
            with pytest.raises(ValueError, match="outside"):
                fn(n)
    assert try_factor_squarefree(SIEVE_LIMIT) is None  # 3**2 * 7 * 11 * 31 * 151 * 331
    f = factor_squarefree(SIEVE_LIMIT - 1)
    assert f.odd_primes == (233, 1103, 2089) and f.is_even
    f = factor_squarefree(1073741789)  # the largest prime below 2**30
    assert f.odd_primes == (1073741789,) and not f.is_even


def test_factor_reconstruction():
    # every squarefree n <= 1e5 rebuilds exactly
    for n in range(1, 10 ** 5 + 1):
        f = try_factor_squarefree(n)
        if f is None:
            continue
        prod = 2 if f.is_even else 1
        for p in f.odd_primes:
            prod *= p
        assert prod == n
        assert f.odd_primes == tuple(sorted(set(f.odd_primes)))


def test_legendre_examples():
    assert legendre(2, 7) == 1
    assert legendre(-1, 5) == 1
    assert legendre(3, 5) == -1
    assert legendre_plus(2, 5) == 1
    assert legendre_plus(-1, 3) == 1
    assert legendre_plus(2, 7) == 0
    with pytest.raises(ValueError):
        legendre(10, 5)


def test_legendre_against_euler_criterion():
    primes = [p for p in range(3, 200) if _spf_by_trial_division(p) == p]
    for p in primes:
        for d in range(1, p):
            want = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
            assert legendre(d, p) == want


def test_quadratic_reciprocity():
    primes = [p for p in range(3, 1000) if _spf_by_trial_division(p) == p]
    for p in primes:
        for q in primes:
            if p == q:
                continue
            lhs = legendre_plus(p, q) ^ legendre_plus(q, p)
            rhs = legendre_plus(-1, p) & legendre_plus(-1, q)
            assert lhs == rhs


def test_legendre_plus_additive():
    rng = np.random.default_rng(1)
    primes = [p for p in range(3, 5000) if _spf_by_trial_division(p) == p]
    for _ in range(10 ** 4):
        p = primes[rng.integers(0, len(primes))]
        a = int(rng.integers(1, 10 ** 6))
        b = int(rng.integers(1, 10 ** 6))
        if a % p == 0 or b % p == 0:
            continue
        assert legendre_plus(a * b, p) == legendre_plus(a, p) ^ legendre_plus(b, p)


def test_jacobi_multiplicative_denominator():
    # (a/mn) = (a/m)(a/n) for odd coprime denominators
    for a in (-5, -2, -1, 2, 3, 7, 10):
        for m in (3, 5, 9, 11):
            for n in (7, 13, 15):
                if jacobi(a, m) and jacobi(a, n):
                    assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


def test_is_square_class():
    assert is_square_class(13, 5, 1)
    assert not is_square_class(7, 5, 1)
    assert is_square_class(5, 5, 1)
    assert is_square_class(11, 11, 3)
    assert not is_square_class(-13, 5, 1)
    with pytest.raises(ValueError):
        is_square_class(6, 5, 1)
    with pytest.raises(ValueError):
        is_square_class(5, 3, 3)


def test_is_square_class_matches_jacobi_on_primes():
    # For D=1 membership is just the class of p mod 8.
    for p in range(3, 500, 2):
        if _spf_by_trial_division(p) != p:
            continue
        for n0 in (1, 3, 5, 7):
            assert is_square_class(p, n0, 1) == (p % 8 == n0)


def test_enumerate_squarefree(sieve):
    assert [f.n for f in enumerate_squarefree(5, 8, 40, sieve)] == [5, 13, 21, 29, 37]
    assert [f.n for f in enumerate_squarefree(6, 8, 40, sieve)] == [6, 14, 22, 30, 38]
    assert [f.n for f in enumerate_squarefree(1, 8, 40, sieve)] == [1, 17, 33]


@pytest.mark.parametrize(
    "residue,modulus", [(t, 8) for t in range(1, 8)] + [(3, 4), (1, 1)]
)
def test_enumerate_squarefree_matches_trial_division(sieve, residue, modulus):
    # Up to 1e5, past the first BLOCK boundary at 65536.
    assert sieve.limit > numtheory.BLOCK
    want = [f for n in range(residue, sieve.limit + 1, modulus) if (f := try_factor_squarefree(n))]
    assert list(enumerate_squarefree(residue, modulus, sieve.limit, sieve)) == want
    # A limit past the sieve fails before the first n.
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        next(enumerate_squarefree(residue, modulus, sieve.limit + 1, sieve))


def test_factored_integer_r():
    f = FactoredInteger(n=1, odd_primes=(), is_even=False)
    assert f.r == 0


def _scalar_range(lo, hi, residue=0, modulus=1):
    # Trial division: an oracle that shares no code or table with the sieve.
    # n < 1 has no factorization.
    out = []
    for n in range(max(lo, 1), hi):
        if n % modulus == residue % modulus:
            f = try_factor_squarefree(n)
            if f is not None:
                out.append((n, f.odd_primes))
    return out


def _bulk_range(lo, hi, sieve, residue=0, modulus=1):
    # The same-r stacks of the range (the factorization of a range),
    # merged by n.
    out = []
    for ns, primes in same_r_stacks(lo, hi, sieve, residue, modulus):
        assert ns.dtype == primes.dtype == np.int64 and len(ns) == len(primes)
        out += zip(ns.tolist(), map(tuple, primes.tolist()))
    return sorted(out)


def test_factor_squarefree_range_matches_scalar(sieve):
    # Every n <= 1e5, even and non-squarefree n included; n < 1 has no
    # factorization either way.
    got = _bulk_range(-2, sieve.limit + 1, sieve)
    assert got == _scalar_range(-2, sieve.limit + 1)
    assert len(got) == 60794
    rs = [primes.shape[1] for _, primes in same_r_stacks(1, sieve.limit + 1, sieve)]
    assert rs == sorted({len(ps) for _, ps in got}) == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "lo,hi,residue,modulus",
    [(1, 100001, 3, 4), (65536, 65540, 3, 4), (-5, 40, 6, 8), (99990, 100001, 1, 2), (10, 10, 0, 1)],
)
def test_factor_squarefree_range_slices(sieve, lo, hi, residue, modulus):
    assert _bulk_range(lo, hi, sieve, residue, modulus) == _scalar_range(lo, hi, residue, modulus)


def test_factor_squarefree_range_edges(sieve):
    ((ns, primes),) = same_r_stacks(1, 3, sieve)
    assert ns.tolist() == [1, 2] and primes.shape == (2, 0)
    assert same_r_stacks(1, 3, sieve, residue=3, modulus=4) == []
    with pytest.raises(ValueError):
        same_r_stacks(1, sieve.limit + 2, sieve)


def test_legendre_plus_bulk_matches_scalar():
    primes = np.array([p for p in range(3, 2000, 2) if _spf_by_trial_division(p) == p])
    d, p = np.meshgrid(primes, primes)  # d varies along rows, p down columns
    off = d != p
    got = legendre_plus_bulk(d[off], p[off])
    want = [legendre_plus(int(a), int(b)) for a, b in zip(d[off], p[off])]
    assert got.dtype == np.uint8
    assert got.tolist() == want
    for dd in (-1, 2, -2, 1):
        assert legendre_plus_bulk(dd, primes).tolist() == [legendre_plus(dd, int(q)) for q in primes]


def test_legendre_plus_bulk_every_residue_below_2048():
    for p in range(3, 2048, 2):
        if _spf_by_trial_division(p) == p:
            d = np.concatenate([np.arange(1, p), [-1, 2, -2]])
            want = [legendre_plus(int(x), p) for x in d]
            assert legendre_plus_bulk(d, p).tolist() == want, p


def test_legendre_plus_bulk_table_grows_and_serves_smaller(monkeypatch):
    monkeypatch.setattr(
        numtheory, "_QR_TABLE", (0, np.empty(0, np.int64), np.empty(0, np.uint8))
    )
    bounds = []
    for p in (13, 1999, 31, 4093, 997):
        d = np.arange(-p, 2 * p)
        d = d[d % p != 0]
        assert legendre_plus_bulk(d, p).tolist() == [legendre_plus(int(x), p) for x in d], p
        bounds.append(numtheory._QR_TABLE[0])
    # Only the largest table is kept, and it serves every smaller prime.
    assert bounds == [16, 2048, 2048, 4096, 4096]


def test_legendre_plus_bulk_rejects_overflow_and_zero(monkeypatch):
    # Drop the 2**15 table this test builds when it ends.
    monkeypatch.setattr(numtheory, "_QR_TABLE", numtheory._QR_TABLE)
    for p in (2 ** 15 + 3, 2 ** 31 + 11):
        with pytest.raises(ValueError, match=r"odd prime below 2\*\*15"):
            legendre_plus_bulk(np.array([3]), np.array([p]))
    with pytest.raises(ValueError, match=r"below 2\*\*15"):
        legendre_plus_bulk(np.array([3, 5]), np.array([7, 2 ** 40]))
    # Composite, even, unit and negative moduli are no odd primes, even
    # where the Jacobi symbol is 1, as for (2/9) and (5/9).
    for d, p in ((2, 9), (5, 9), (7, 15), (3, 2), (3, 4), (3, 1), (3, 0), (3, -7)):
        with pytest.raises(ValueError, match="odd prime"):
            legendre_plus_bulk(np.array([d]), np.array([p]))
    with pytest.raises(ValueError, match="divides"):
        legendre_plus_bulk(np.array([21]), np.array([7]))
    # The largest prime below 2**15 is still served.
    p = 32749
    assert legendre_plus_bulk(np.array([-1, 2, 3]), p).tolist() == [
        legendre_plus(x, p) for x in (-1, 2, 3)
    ]


def test_qr_table_cap_covers_the_largest_default_sieve():
    # The largest sieve holds n <= SIEVE_LIMIT; the smaller prime of a
    # pair of such an n lies below its square root, hence below the cap.
    assert SIEVE_LIMIT == 2 ** 30 - 1
    assert QR_TABLE_CAP ** 2 > SIEVE_LIMIT


@pytest.mark.parametrize("residue,modulus", [(0, 1), (3, 4), (5, 8), (6, 8), (7, 8), (1, 2)])
def test_same_r_stacks_regroup_the_range(sieve, residue, modulus):
    # [lo, hi) crosses the edge of the first BLOCK.
    lo, hi = 50_000, 80_000
    assert lo < numtheory.BLOCK < hi
    want = dict(_scalar_range(lo, hi, residue, modulus))
    assert min(want) < numtheory.BLOCK < max(want)
    got, rs = {}, []
    for stack_ns, stack in same_r_stacks(lo, hi, sieve, residue, modulus):
        assert stack.shape[0] == stack_ns.size > 0 and (stack != 0).all()
        assert (stack_ns[1:] > stack_ns[:-1]).all()
        # Exact size: int64, one row per n and one column per odd prime.
        assert stack.dtype == np.int64 and stack.ndim == 2
        assert {len(want[n]) for n in stack_ns.tolist()} == {stack.shape[1]}
        got.update(zip(stack_ns.tolist(), map(tuple, stack.tolist())))
        rs.append(stack.shape[1])
    assert got == want
    assert rs == sorted(set(rs))  # one stack per r, in ascending r


@pytest.mark.parametrize("residue,modulus", [(3, 4), (5, 8), (1, 1)])
def test_factor_squarefree_range_near_1e7(big_sieve, residue, modulus):
    # m up to 1e7 - 1: the quotients m / p are taken in float64.
    hi = big_sieve.limit + 1
    for lo in (hi - 3000, hi - 65_536 - 1000):
        want = _scalar_range(lo, lo + 3000, residue, modulus)
        assert _bulk_range(lo, lo + 3000, big_sieve, residue, modulus) == want
        assert max(len(ps) for _, ps in want) >= 4


def _tag(block, *shared):
    return sum(block), shared


def test_map_blocks_passes_shared_in_order():
    blocks = spans(0, 10, 3)
    assert blocks == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert spans(4, 4, 3) == []
    want = [(s, ("a", 2)) for s in (3, 9, 15, 19)]
    assert list(map_blocks(_tag, blocks, 1, ("a", 2))) == want
    assert list(map_blocks(_tag, blocks, workers=2, shared=("a", 2))) == want
    assert list(map_blocks(_tag, blocks, workers=2)) == [(s, ()) for s in (3, 9, 15, 19)]
    assert numtheory._SHARED == ()  # only the pool's workers held the arguments


def test_map_blocks_pool_no_wider_than_the_work(monkeypatch):
    widths = []

    class RecordingPool:
        def __init__(self, max_workers, **kwargs):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            return map(fn, blocks)

    monkeypatch.setattr(numtheory, "ProcessPoolExecutor", RecordingPool)
    blocks = spans(0, 10, 3)
    assert list(map_blocks(sum, blocks, workers=64)) == [3, 9, 15, 19]
    assert list(map_blocks(sum, blocks, workers=3)) == [3, 9, 15, 19]
    assert list(map_blocks(sum, blocks[:1], workers=64)) == [3]  # serial, no pool
    assert list(map_blocks(sum, [], workers=64)) == []
    assert widths == [4, 3]


def test_import_loads_no_process_pool():
    src = Path(numtheory.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import cnkit, cnkit.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
