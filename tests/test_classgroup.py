import pytest

from cnkit.classgroup import (
    _compose,
    _principal,
    _reduce,
    _reduced_forms,
    classgroup_oracle,
    discriminant_of,
)
from cnkit.numtheory import ResourceLimitError, factor_squarefree, sieve_init

# Class numbers of Q(sqrt(-n)) from standard tables.
KNOWN_H = {
    1: 1, 2: 1, 3: 1, 5: 2, 6: 2, 7: 1, 10: 2, 11: 1, 13: 2, 14: 4,
    15: 2, 17: 4, 19: 1, 21: 4, 22: 2, 23: 3, 26: 6, 29: 6, 30: 4,
    31: 3, 33: 4, 34: 4, 35: 2, 39: 4, 41: 8, 42: 4, 43: 1, 46: 4,
    47: 5, 51: 2, 55: 4, 65: 8, 66: 8, 67: 1, 89: 12, 163: 1, 210: 8,
}


@pytest.fixture(scope="module")
def sieve():
    return sieve_init(3000)


def test_discriminants():
    assert discriminant_of(5) == -20
    assert discriminant_of(14) == -56
    assert discriminant_of(3) == -3
    assert discriminant_of(1) == -4


def test_known_class_numbers(sieve):
    for n, h in KNOWN_H.items():
        assert classgroup_oracle(factor_squarefree(n, sieve)).h == h, n


def test_examples(sieve):
    info = classgroup_oracle(factor_squarefree(5, sieve))
    assert (info.h, info.two_rank, info.four_rank) == (2, 1, 0)
    assert classgroup_oracle(factor_squarefree(1, sieve)).h == 1
    info14 = classgroup_oracle(factor_squarefree(14, sieve))
    assert info14.four_rank == 1


def test_group_axioms():
    for disc in (-20, -56, -84, -120, -231, -420):
        forms = _reduced_forms(disc)
        e = _principal(disc)
        assert e in forms
        # identity, commutativity, inverses, closure
        for f in forms:
            assert _compose(f, e, disc) == f
            inv = _reduce(f[0], -f[1], f[2])
            assert _compose(f, inv, disc) == e
        for f in forms[:8]:
            for g in forms[:8]:
                fg = _compose(f, g, disc)
                assert fg in forms
                assert fg == _compose(g, f, disc)
        # associativity spot checks
        for f in forms[:4]:
            for g in forms[:4]:
                for h in forms[:4]:
                    assert _compose(_compose(f, g, disc), h, disc) == _compose(
                        f, _compose(g, h, disc), disc
                    )


def test_two_sylow_structure(sieve):
    # n = 14: Z/4 -> two_rank 1, four_rank 1
    info = classgroup_oracle(factor_squarefree(14, sieve))
    assert (info.two_rank, info.four_rank) == (1, 1)
    # n = 21: Z/2 x Z/2 -> two_rank 2, four_rank 0
    info = classgroup_oracle(factor_squarefree(21, sieve))
    assert (info.h, info.two_rank, info.four_rank) == (4, 2, 0)
    # n = 34: Z/4 -> four_rank 1
    info = classgroup_oracle(factor_squarefree(34, sieve))
    assert (info.two_rank, info.four_rank) == (1, 1)


def test_bound(sieve):
    with pytest.raises(ResourceLimitError):
        classgroup_oracle(factor_squarefree(2999, sieve), bound=100)


def test_torsion_and_square_counts_are_powers_of_two(sieve):
    for n in (30, 42, 66, 70, 102, 105, 110, 130, 210, 330, 390):
        f = factor_squarefree(n, sieve)
        disc = discriminant_of(n)
        forms = _reduced_forms(disc)
        e = _principal(disc)
        t2 = sum(1 for g in forms if _compose(g, g, disc) == e)
        assert t2 & (t2 - 1) == 0  # power of two
        info = classgroup_oracle(f)
        assert 2 ** info.two_rank == t2
        # genus theory: two_rank = (number of prime discriminant factors) - 1
        c = f.r + (0 if n % 4 == 3 else 1)
        assert info.two_rank == c - 1, n
