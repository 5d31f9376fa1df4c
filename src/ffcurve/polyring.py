"""Univariate polynomials over exact rationals.

This is the coefficient ring Q[t] used by the homological engine; the
variable prints as t. Euclidean structure (divmod, gcd) is what the
Smith-form routines rely on.

A polynomial is stored as a tuple of integer numerators over one positive
denominator, in canonical form: no trailing zero numerator, the denominator
coprime to the numerators, and zero as ((), 1). Equal polynomials therefore
have equal fields, and all arithmetic runs on integers; Fractions are built
only when coeffs is read. Each operation has one path. Every product, a
power's squares included, and every sum of products, such as a matrix
product entry or x + q*y, is added up on those rows by _mul_add and put in
canonical form once. Every quotient and remainder, by a constant too, is
pseudo-division on the integer rows (_pseudo_divide), and the gcd a
primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, §4.6.1; Brown
1971, J. ACM 18).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Tuple

from .errors import _check_int, _render_terms


def _new(n: tuple, d: int) -> "Poly":
    """Poly from numerators and a denominator already in canonical form."""
    p = object.__new__(Poly)
    p._n = n
    p._d = d
    return p


def _canon(n: list, d: int) -> "Poly":
    """Poly of n / d for a positive d: trailing zeros dropped, common factor removed."""
    while n and not n[-1]:
        n.pop()
    if not n:
        return _ZERO
    g = gcd(d, *n) if d != 1 else 1
    if g != 1:
        n = [x // g for x in n]
        d //= g
    return _new(tuple(n), d)


def _mul_add(pairs, acc: "Poly" = None) -> "Poly":
    """acc + Σ a·b over the Poly pairs (a, b), acc zero if None, added on the
    integer rows and put in canonical form once, not twice per term."""
    out, d = (list(acc._n), acc._d) if acc is not None else ([], 1)
    for a, b in pairs:
        an, bn, e = a._n, b._n, a._d * b._d
        # over lcm(d, e): the sum so far times e/g, this product times d/g
        m = e // gcd(d, e)
        if m != 1:
            out = [x * m for x in out]
            d *= m
        if len(an) > len(bn):
            an, bn = bn, an
        f = d // e
        if f != 1:
            an = [x * f for x in an]
        out += [0] * (len(an) + len(bn) - 1 - len(out))
        for i, x in enumerate(an):
            if x:
                for k, y in enumerate(bn, i):
                    if y:
                        out[k] += x * y
    return _canon(out, d)


def _pseudo_divide(a: tuple, b: tuple):
    """Integer rows q, r and an integer s > 0 with a = (q/s)*b + r/s, deg r < deg b.

    Each step cross-multiplies: the remainder and the quotient so far are
    scaled by |lead(b)|/g and the term (r_top/g) t^k b removed, g =
    gcd(lead(b), r_top), so s never changes sign and no Fraction is built.
    A constant b takes the same steps, and leaves r empty."""
    lb = b[-1]
    sign = 1 if lb > 0 else -1
    nb = len(b) - 1
    low = b[:-1]
    r = list(a)
    q = [0] * (len(a) - nb)
    s = 1
    while len(r) > nb:
        top = r.pop()
        k = len(r) - nb
        g = gcd(lb, top)
        m, c = abs(lb) // g, sign * top // g
        if m != 1:
            r = [x * m for x in r]
            s *= m
            q = [x * m for x in q]
        q[k] = c
        for i, y in enumerate(low, k):
            if y:
                r[i] -= c * y
        while r and not r[-1]:
            r.pop()
    return q, r, s


def _primitive(n) -> list:
    """The integer row divided by its content, with a positive leading entry."""
    g = gcd(*n)
    if n[-1] < 0:
        g = -g
    return [x // g for x in n]


class Poly:
    """Immutable element of Q[t]: numerators _n, low degree first, over _d."""

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(_check_int(c, "a Q[t] coefficient", also=(Fraction,))) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the lcm of the reduced denominators the numerators are coprime to it
        d = lcm(*(c.denominator for c in cs))
        self._n = tuple(c.numerator * (d // c.denominator) for c in cs)
        self._d = d

    @staticmethod
    def const(value) -> "Poly":
        c = Fraction(_check_int(value, "a Q[t] coefficient", also=(Fraction,)))
        return _new((c.numerator,), c.denominator) if c else _ZERO

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as Fractions, low degree first, no trailing zero."""
        return tuple(Fraction(x, self._d) for x in self._n)

    @property
    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self) -> bool:
        return bool(self._n)

    @property
    def degree(self) -> int:
        # zero gets -1 so that degree(r) < degree(b) holds in divmod
        return len(self._n) - 1

    @property
    def leading(self) -> Fraction:
        if not self._n:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._n[-1], self._d)

    def _coerced(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        try:
            return Poly.const(other)
        except TypeError:  # not an exact number: a bool, float, str, ...
            return NotImplemented

    def _plus(self, q: "Poly", sign: int) -> "Poly":
        """self + sign*q over the least common denominator."""
        (a, da), (b, db) = (self._n, self._d), (q._n, q._d)
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        out = [x * fa for x in a] if fa != 1 else list(a)
        if len(out) < len(b):
            out.extend([0] * (len(b) - len(out)))
        for i, y in enumerate(b):
            if y:
                out[i] += y * fb
        return _canon(out, da // g * db)

    def __add__(self, other):
        q = self._coerced(other)
        if q is NotImplemented:
            return NotImplemented
        return self._plus(q, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(tuple(-x for x in self._n), self._d)

    def __sub__(self, other):
        q = self._coerced(other)
        if q is NotImplemented:
            return NotImplemented
        return self._plus(q, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        q = self._coerced(other)
        if q is NotImplemented:
            return NotImplemented
        return _mul_add(((self, q),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        _check_int(n, "a Q[t] exponent", 0)
        out, base = _ONE, self
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
        (a, da), (bn, db) = (self._n, self._d), (b._n, b._d)
        if not bn:
            raise ZeroDivisionError("polynomial division by zero")
        if len(a) < len(bn):
            return _ZERO, self
        # A = (Q/s) B + R/s on the integer rows gives a = (Q db/(s da)) b + R/(s da)
        q, r, s = _pseudo_divide(a, bn)
        return _canon([x * db for x in q], s * da), _canon(r, s * da)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        a = self._n
        if not a:
            return self
        lead = a[-1]
        if lead < 0:
            return _canon([-x for x in a], -lead)
        return _canon(list(a), lead)

    def __call__(self, x):
        if not isinstance(x, Poly):
            x = Fraction(_check_int(x, "a point of evaluation", also=(Fraction,)))
        value = x - x
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __eq__(self, other):
        q = self._coerced(other)
        return q is not NotImplemented and self._n == q._n and self._d == q._d

    def __hash__(self):
        # a constant hashes as the number it equals
        if len(self._n) <= 1:
            return hash(Fraction(self._n[0], self._d)) if self._n else 0
        return hash((self._n, self._d))

    def __str__(self) -> str:
        terms = reversed(list(enumerate(self.coeffs)))
        return _render_terms(
            (c, "" if e == 0 else "t" if e == 1 else "t^%d" % e) for e, c in terms if c
        )

    def __repr__(self) -> str:
        return "Poly(%s)" % (self,)

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]


_ZERO = _new((), 1)
_ONE = _new((1,), 1)
T_VAR = Poly((0, 1))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; poly_gcd(0, 0) = 0.

    The denominators are units, so the sequence runs on the primitive parts
    of the numerator rows and takes the primitive part of each
    pseudo-remainder; the last nonzero one, made monic, is the gcd."""
    x, y = a._n, b._n
    if len(x) < len(y):
        x, y = y, x
    if not y:
        return _new(x, 1).monic()
    x, y = _primitive(x), _primitive(y)
    while len(y) > 1:
        _, r, _ = _pseudo_divide(x, y)
        if not r:
            return _canon(y, y[-1])
        x, y = y, _primitive(r)
    return _ONE
