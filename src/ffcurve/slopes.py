"""Exact slope arithmetic for stable objects.

A slope is a reduced fraction d/h with h >= 1, or the formal value INFINITY
used for torsion. Finite slopes order by rational value and INFINITY is
greater than everything, so slope comparisons drive Harder-Narasimhan sorting
directly.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd
from typing import TYPE_CHECKING, Tuple

from .errors import CertificateError, _check_int

if TYPE_CHECKING:
    from fractions import Fraction


@total_ordering
class Slope:
    """A reduced slope d/h (h >= 1), or the distinguished infinite slope."""

    __slots__ = ("d", "h")

    def __init__(self, d: int, h: int = 1):
        _check_int(d, "slope numerator")
        _check_int(h, "slope denominator", 1)
        g = gcd(abs(d), h)
        if g > 1:
            d //= g
            h //= g
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "h", h)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Slope is immutable")

    def __delattr__(self, name):
        raise AttributeError("Slope is immutable")

    def __reduce__(self):
        # rebuild through __init__, never through the guarded __setattr__;
        # the infinite slope comes back as the module's one INFINITY
        return "INFINITY" if self.h == 0 else (Slope, (self.d, self.h))

    @property
    def is_finite(self) -> bool:
        return self.h != 0

    @property
    def value(self) -> Fraction:
        if self.h == 0:
            raise ValueError("the infinite slope has no rational value")
        from fractions import Fraction
        return Fraction(self.d, self.h)

    def __eq__(self, other):
        if not isinstance(other, Slope):
            return NotImplemented
        return self.d == other.d and self.h == other.h

    def __hash__(self):
        return hash((self.d, self.h))

    def __lt__(self, other):
        if not isinstance(other, Slope):
            return NotImplemented
        # d1/h1 < d2/h2 iff d1*h2 < d2*h1, as h >= 1; INFINITY is 1/0, so the
        # same product puts it above every finite slope and not below itself
        return self.d * other.h < other.d * self.h

    def __str__(self) -> str:
        if self.h == 0:
            return "inf"
        if self.h == 1:
            return str(self.d)
        return "%d/%d" % (self.d, self.h)

    def __repr__(self) -> str:
        return "Slope(%s)" % self


def _make_infinite() -> Slope:
    s = object.__new__(Slope)
    object.__setattr__(s, "d", 1)
    object.__setattr__(s, "h", 0)
    return s


#: The slope of torsion sheaves; greater than every finite slope.
INFINITY = _make_infinite()


def reduce(d: int, h: int) -> Slope:
    """Return the canonical reduced slope d/h. Rejects h < 1 and non-ints."""
    return Slope(d, h)


def hom_slope_data(lam: Slope, mu: Slope) -> Tuple[Slope, int]:
    """Internal-Hom data of two stable slopes.

    Returns (nu, m) with nu = mu - lam reduced and m the multiplicity of
    O(nu) inside Hom(O(lam), O(mu)). The multiplicity is forced by rank
    additivity: h_lam * h_mu = m * h_nu, and satisfies the matching degree
    identity h_lam * h_mu * (mu - lam) = m * d_nu. This is the internal-Hom
    derivation that the tests check the closed-form sheaves.hom and
    sheaves.ext1 against.
    """
    if not (lam.is_finite and mu.is_finite):
        raise ValueError("hom_slope_data is defined for finite slopes only")
    nu = reduce(mu.d * lam.h - lam.d * mu.h, lam.h * mu.h)
    m, rem = divmod(lam.h * mu.h, nu.h)
    if rem:
        raise CertificateError(
            "rank identity failed: %d * %d not divisible by %d" % (lam.h, mu.h, nu.h)
        )
    return nu, m
