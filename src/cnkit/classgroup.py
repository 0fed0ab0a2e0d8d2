"""Brute-force class groups of imaginary quadratic fields.

Enumerates reduced primitive binary quadratic forms of the discriminant
of Q(sqrt(-n)) and composes them with the classical composition
algorithm, then reads off the 2-Sylow data (2-rank and 4-rank).  This is
the independent oracle against the Redei determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .numtheory import FactoredInteger, ResourceLimitError

__all__ = ["ClassGroupInfo", "classgroup_oracle", "discriminant_of"]

Form = tuple[int, int, int]


@dataclass(frozen=True)
class ClassGroupInfo:
    """Class number and 2-Sylow invariants of Cl(Q(sqrt(-n)))."""

    n: int
    discriminant: int
    h: int
    two_rank: int
    four_rank: int


def discriminant_of(n: int) -> int:
    """Discriminant of Q(sqrt(-n)) for squarefree positive n."""
    return -n if n % 4 == 3 else -4 * n


def _normalize(a: int, b: int, c: int) -> Form:
    r = (a - b) // (2 * a)
    b2 = b + 2 * r * a
    return a, b2, a * r * r + b * r + c


def _reduce(a: int, b: int, c: int) -> Form:
    a, b, c = _normalize(a, b, c)
    while a > c:
        a, b, c = _normalize(c, -b, a)
    if a == c and b < 0:
        b = -b
    return a, b, c


def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (u, v, g) with u*a + v*b == g
    u0, v0, r0 = 1, 0, a
    u1, v1, r1 = 0, 1, b
    while r1:
        q = r0 // r1
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
        r0, r1 = r1, r0 - q * r1
    return u0, v0, r0


def _compose(f1: Form, f2: Form, disc: int) -> Form:
    """Gauss composition of primitive positive definite forms."""
    if f1[0] > f2[0]:
        f1, f2 = f2, f1
    a1, b1, _c1 = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        u, _v, d = _extgcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        u, v, d1 = _extgcd(s, d)
        x2, y2 = u, -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    a3 = v1 * v2
    b3 = b2 + 2 * v2 * r
    c3 = (b3 * b3 - disc) // (4 * a3)
    return _reduce(a3, b3, c3)


def _reduced_forms(disc: int) -> list[Form]:
    forms = []
    amax = isqrt(-disc // 3)
    for a in range(1, amax + 1):
        b0 = disc & 1  # b must match the parity of the discriminant
        for b in range(b0, a + 1, 2):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            for bb in ((b, -b) if 0 < b < a != c else (b,)):
                if gcd(gcd(a, bb), c) == 1:
                    forms.append((a, bb, c))
    return forms


def _principal(disc: int) -> Form:
    b = disc & 1
    return (1, b, (b * b - disc) // 4)


def classgroup_oracle(f: FactoredInteger, bound: int = 10 ** 4) -> ClassGroupInfo:
    """Class number, 2-rank and 4-rank for Q(sqrt(-n)).

    Works by full enumeration; intended for modest n (default bound
    10**4), where the class number stays in the hundreds.
    """
    n = f.n
    if n > bound:
        raise ResourceLimitError(f"classgroup_oracle bound {bound} exceeded by n={n}")
    disc = discriminant_of(n)
    forms = _reduced_forms(disc)
    h = len(forms)
    e = _principal(disc)
    squares = {_compose(g, g, disc) for g in forms}
    torsion2 = {g for g in forms if _compose(g, g, disc) == e}
    two_rank = len(torsion2).bit_length() - 1
    four_rank = len(squares & torsion2).bit_length() - 1
    return ClassGroupInfo(
        n=n, discriminant=disc, h=h, two_rank=two_rank, four_rank=four_rank
    )
