"""Univariate polynomials over exact rationals.

This is the coefficient ring Q[t] used by the homological engine; the
variable prints as t. Euclidean structure (divmod, gcd) is what the
Smith-form routines rely on.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, List, Tuple


def _trimmed(cs: List[Fraction]) -> Tuple[Fraction, ...]:
    """The coefficients without trailing zeros; pops them off cs."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _integral(cs: Tuple[Fraction, ...]) -> Tuple[List[int], int]:
    """Integers n_i and d with cs[i] = n_i / d, d the lcm of the denominators."""
    d = lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


def _render_terms(pairs) -> str:
    """Signed sum of nonzero (coefficient, basis text) pairs; "" is the unit."""
    chunks = []
    for coeff, text in pairs:
        mag = abs(coeff)
        body = str(mag) if not text else text if mag == 1 else "%s*%s" % (mag, text)
        if not chunks:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks) or "0"


class Poly:
    """Immutable element of Q[t]; coefficients stored low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs: Tuple[Fraction, ...] = _trimmed([Fraction(c) for c in coeffs])

    @classmethod
    def _of(cls, cs: List[Fraction]) -> "Poly":
        """Poly from a list that holds only Fractions, without re-wrapping them."""
        p = object.__new__(cls)
        p.coeffs = _trimmed(cs)
        return p

    @staticmethod
    def const(value) -> "Poly":
        return Poly((Fraction(value),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        # zero gets -1 so that degree(r) < degree(b) holds in divmod
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _coerced(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented

    def __add__(self, other):
        q = self._coerced(other)
        if q is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of([-c for c in self.coeffs])

    def __sub__(self, other):
        q = self._coerced(other)
        if q is NotImplemented:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        q = self._coerced(other)
        if q is NotImplemented:
            return NotImplemented
        if self.is_zero or q.is_zero:
            return Poly()
        # convolve integer numerators over the common denominator da * db
        (a, da), (b, db) = _integral(self.coeffs), _integral(q.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
        return Poly._of([Fraction(c, da * db) for c in out])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        cs = self.coeffs
        if len(cs) <= 1 or not any(cs[:-1]):
            # c t^k, zero included: (c t^k)^n = c^n t^(kn)
            if not cs:
                return Poly() if n else Poly.const(1)
            return Poly._of([Fraction(0)] * ((len(cs) - 1) * n) + [cs[-1] ** n])
        out, base = Poly.const(1), self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __divmod__(self, other):
        b = self._coerced(other)
        if b is NotImplemented:
            return NotImplemented
        if b.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(b.coeffs) + 1)
        r = list(self.coeffs)
        lb = b.leading
        nb = len(b.coeffs)
        while len(r) >= nb:
            c = r[-1] / lb
            k = len(r) - nb
            q[k] = c
            for i, bc in enumerate(b.coeffs):
                if bc:
                    r[k + i] -= c * bc
            while r and not r[-1]:
                r.pop()
        return Poly._of(q), Poly._of(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading
        return Poly._of([c / lead for c in self.coeffs])

    def __call__(self, x):
        value = Fraction(0) if isinstance(x, (int, Fraction)) else Poly()
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __str__(self) -> str:
        terms = reversed(list(enumerate(self.coeffs)))
        return _render_terms(
            (c, "" if e == 0 else "t" if e == 1 else "t^%d" % e) for e, c in terms if c
        )

    def __repr__(self) -> str:
        return "Poly(%s)" % (self,)

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]


T_VAR = Poly((0, 1))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; poly_gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()
