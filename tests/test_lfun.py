import numpy as np
import pytest

from cnkit.lfun import LCache, divisor_sum, divisor_sums_batch, lvalue_parity, verify_rows
from cnkit.monsky import redei_g, redei_g_table, rows_for_residue
from cnkit.numtheory import (
    factor_squarefree,
    factor_small,
    same_r_stacks,
    sieve_init,
    try_factor_squarefree,
)


@pytest.fixture(scope="module")
def sieve():
    return sieve_init(10 ** 5)


@pytest.fixture()
def cache():
    return LCache()


def brute_lvalue(n, sieve):
    """Direct recursion without masks or memoization."""
    if n == 1:
        return 1
    if n % 8 != 1:
        return 0
    f = factor_squarefree(n, sieve)
    p = f.odd_primes[0]
    total = 0
    for d in divisors(n):
        if d % p == 0 and d % 8 == 1:
            total ^= redei_g(factor_squarefree(d, sieve)) & brute_lvalue(n // d, sieve)
    return total


def divisors(n):
    out = [1]
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            out += [d * p for d in out]
        p += 1
    if m > 1:
        out += [d * m for d in out]
    return sorted(out)


def test_lvalue_examples(sieve, cache):
    assert lvalue_parity(factor_squarefree(1, sieve), cache) == 1
    assert lvalue_parity(factor_squarefree(17, sieve), cache) == 0
    assert lvalue_parity(factor_squarefree(33, sieve), cache) == 1
    assert lvalue_parity(factor_squarefree(5, sieve), cache) == 0
    assert lvalue_parity(factor_squarefree(6, sieve), cache) == 0


def test_lvalue_against_brute_force(sieve, cache):
    for n in range(1, 5000, 8):
        f = try_factor_squarefree(n, sieve)
        if f is None:
            continue
        assert lvalue_parity(f, cache) == brute_lvalue(n, sieve), n


def test_lvalue_pivot_independence(sieve, cache):
    # the recursion may be anchored at any prime divisor, not only the
    # smallest: recompute with every anchor and compare
    for n in range(9, 10 ** 5, 8):
        f = try_factor_squarefree(n, sieve)
        if f is None or f.r < 2:
            continue
        want = lvalue_parity(f, cache)
        for pivot in f.odd_primes:
            total = 0
            for d in divisors(n):
                if d % pivot == 0 and d % 8 == 1:
                    dd = factor_squarefree(d, sieve)
                    rest = factor_squarefree(n // d, sieve)
                    total ^= redei_g(dd) & lvalue_parity(rest, cache)
            assert total == want, (n, pivot)


def test_divisor_sum_examples(sieve, cache):
    assert divisor_sum("5a", factor_squarefree(5, sieve), cache) == 1
    assert divisor_sum("7a", factor_squarefree(7, sieve), cache) == 1
    assert divisor_sum("6", factor_squarefree(6, sieve), cache) == 1
    assert divisor_sum("5b", factor_squarefree(5, sieve), cache) == 0
    assert divisor_sum("5b", factor_squarefree(21, sieve), cache) == 1
    assert divisor_sum("2", factor_squarefree(2, sieve), cache) == 1


def test_divisor_sum_residue_mismatch(sieve, cache):
    with pytest.raises(ValueError):
        divisor_sum("5a", factor_squarefree(7, sieve), cache)
    with pytest.raises(ValueError):
        divisor_sum("x", factor_squarefree(7, sieve), cache)


def brute_row_sum(row, n, sieve, cache):
    """Sums taken literally over integer divisors, no subset tricks."""
    g = lambda d: redei_g(factor_squarefree(d, sieve))  # noqa: E731
    lv = lambda m: lvalue_parity(factor_squarefree(m, sieve), cache)  # noqa: E731
    ds = divisors(n)
    total = 0
    if row == "1":
        return lv(n)
    if row == "2":
        for d in ds:
            if d % 16 == n % 16:
                total ^= g(d) & lv(n // d)
        return total
    if row in ("3", "5a", "7a"):
        want = {"3": 3, "5a": 5, "7a": 7}[row]
        for d in ds:
            if d % 8 == want:
                total ^= g(d) & lv(n // d)
        return total
    if row in ("5b", "7b"):
        w0 = 7 if row == "5b" else 5
        for d0 in ds:
            if d0 % 8 != w0:
                continue
            for d1 in ds:
                if d1 % 8 != 3 or (d0 * d1 and n % (d0 * d1)):
                    continue
                from math import gcd

                if gcd(d0, d1) != 1:
                    continue
                total ^= g(d0) & g(d1) & lv(n // (d0 * d1))
        return total
    if row == "6":
        from math import gcd

        for d0 in ds:
            if d0 % 16 != (7 * n) % 16:
                continue
            for d1 in ds:
                if d1 % 8 != 7 or gcd(d0, d1) != 1 or n % (d0 * d1):
                    continue
                total ^= g(d0) & g(d1) & lv(n // (d0 * d1))
        for d in ds:
            if d % 16 == n % 16:
                total ^= g(d) & lv(n // d)
        return total
    raise AssertionError(row)


def test_divisor_sum_against_literal_sums(sieve, cache):
    for n in range(1, 4000):
        f = try_factor_squarefree(n, sieve)
        if f is None:
            continue
        for row in rows_for_residue(n % 8):
            assert divisor_sum(row, f, cache) == brute_row_sum(row, n, sieve, cache), (
                n,
                row,
            )


def test_verify_rows_examples(sieve, cache):
    rep = verify_rows(factor_squarefree(5, sieve), cache)
    assert {k: (v.sum_value, v.det_value) for k, v in rep.items()} == {
        "5a": (1, 1),
        "5b": (0, 0),
    }
    rep = verify_rows(factor_squarefree(33, sieve), cache)
    assert rep["1"].sum_value == 1 and rep["1"].det_value == 1 and rep["1"].equal
    rep = verify_rows(factor_squarefree(6, sieve), cache)
    assert rep["6"].sum_value == 1 and rep["6"].equal


def test_row_identity_to_20000(sieve, cache):
    for n in range(1, 20001):
        f = try_factor_squarefree(n, sieve)
        if f is None:
            continue
        for row, check in verify_rows(f, cache).items():
            assert check.equal, (n, row)


def test_cache_consistency(sieve):
    # cached values equal fresh recomputation
    warm = LCache()
    for n in range(1, 2000, 8):
        f = try_factor_squarefree(n, sieve)
        if f is None:
            continue
        lvalue_parity(f, warm)
    for n, value in list(warm.lvals.items()):
        assert lvalue_parity(factor_squarefree(n, sieve), LCache()) == value


def _batch_and_scalar(residue, limit, sieve, gtable):
    """Per same-r stack of squarefree n = residue (mod 8) up to limit:
    (r, batched sums, scalar sums), both as (count, rows) bool arrays.
    The scalar sums factor n by trial division and read g from the same
    table, seeded into the cache."""
    rows = rows_for_residue(residue)
    cache = LCache(gvals=dict(enumerate(gtable.tolist())))
    for ns, stack in same_r_stacks(1, limit + 1, sieve, residue, 8):
        got = divisor_sums_batch(residue, ns, stack, gtable)
        fs = [factor_small(n) for n in ns.tolist()]
        assert [f.odd_primes for f in fs] == list(map(tuple, stack.tolist()))
        want = [[divisor_sum(row, f, cache) for row in rows] for f in fs]
        yield stack.shape[1], got, np.array(want, dtype=bool).reshape(got.shape)


@pytest.mark.parametrize("residue", [1, 2, 3, 5, 6, 7])
def test_divisor_sums_batch_matches_scalar(sieve, residue):
    limit = 10 ** 5
    gtable = redei_g_table(limit, sieve)
    seen = set()
    for rv, got, want in _batch_and_scalar(residue, limit, sieve, gtable):
        seen.add(rv)
        assert (got == want).all(), (residue, rv)
    # n = 1 and n = 2 make the r = 0 stacks
    assert (0 in seen) == (residue in (1, 2))


def test_divisor_sums_batch_residue_mismatch(sieve):
    gtable = redei_g_table(100, sieve)
    with pytest.raises(ValueError):
        divisor_sums_batch(5, np.array([7]), np.array([[7]]), gtable)


@pytest.mark.parametrize("residue", [5, 7])
def test_flipped_g_entry_shows(sieve, monkeypatch, residue):
    # A wrong g must show as identity mismatches in a scan, and the
    # batched sums must still agree with the scalar ones on that table.
    import cnkit.density as density

    limit = 20_000
    clean = redei_g_table(limit, sieve)
    flipped = clean.copy()
    flipped[13] ^= 1
    monkeypatch.setattr(density, "redei_g_table", lambda *args, **kwargs: flipped)
    assert density.scan(residue, limit, sieve).identity_mismatches > 0
    changed = 0
    for (_, got, want), (_, ref, _) in zip(
        _batch_and_scalar(residue, limit, sieve, flipped),
        _batch_and_scalar(residue, limit, sieve, clean),
    ):
        assert (got == want).all()
        changed += int((got != ref).sum())
    assert changed > 0  # the sums read the flipped entry


def test_flipped_table_never_enters_the_cache(sieve, monkeypatch):
    # A clean scan after a flipped one reads the built table again.
    import cnkit.density as density
    from cnkit import monsky

    limit = 20_000
    clean = redei_g_table(limit, sieve)
    flipped = clean.copy()
    flipped[13] ^= 1
    with monkeypatch.context() as patch:
        patch.setattr(density, "redei_g_table", lambda *args, **kwargs: flipped)
        assert density.scan(5, limit, sieve).identity_mismatches > 0
    assert density.scan(5, limit, sieve).identity_mismatches == 0
    assert np.array_equal(redei_g_table(limit, sieve), monsky._build_g_table(limit, sieve))
