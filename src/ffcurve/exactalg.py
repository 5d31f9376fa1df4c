"""Exact linear algebra over three Euclidean coefficient domains.

Elements are plain ints (INTEGERS), Fractions (RATIONALS) or Poly values
(POLY_OVER_RATIONALS). Smith normal form is computed with all four
transform matrices tracked, S = U A V with recorded inverses, so kernels,
images and saturations can be read off in explicit bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from typing import Any, Sequence, Tuple

from .polyring import Poly, poly_gcd


class CoeffDomain:
    """Shared interface; the three instances live at module level."""

    name = "?"

    def convert(self, x):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def divmod(self, a, b):
        return divmod(a, b)

    def norm(self, a) -> int:
        raise NotImplementedError

    def canonical_unit(self, a):
        """Unit u with u*a in canonical form (positive / monic / 1)."""
        raise NotImplementedError

    def unit_inverse(self, u):
        raise NotImplementedError

    def gcd(self, a, b):
        raise NotImplementedError

    def divides(self, a, b) -> bool:
        if not a:
            return not b
        return not self.divmod(b, a)[1]

    def element_to_json(self, a):
        raise NotImplementedError

    def __repr__(self):
        return self.name


class _Integers(CoeffDomain):
    name = "INTEGERS"
    zero = 0
    one = 1

    def convert(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError("INTEGERS expects int, got %r" % (x,))
        return x

    def norm(self, a) -> int:
        return abs(a)

    def canonical_unit(self, a):
        return -1 if a < 0 else 1

    def unit_inverse(self, u):
        return u

    def gcd(self, a, b):
        return _int_gcd(a, b)

    def element_to_json(self, a):
        return a


class _Rationals(CoeffDomain):
    name = "RATIONALS"
    zero = Fraction(0)
    one = Fraction(1)

    def convert(self, x):
        return Fraction(x)

    def divmod(self, a, b):
        return a / b, Fraction(0)

    def divides(self, a, b) -> bool:
        return bool(a) or not b

    def norm(self, a) -> int:
        return 0 if a == 0 else 1

    def canonical_unit(self, a):
        return Fraction(1) if a == 0 else 1 / a

    def unit_inverse(self, u):
        return 1 / u

    def gcd(self, a, b):
        return Fraction(0) if a == b == 0 else Fraction(1)

    def element_to_json(self, a):
        return str(a)


class _PolyOverRationals(CoeffDomain):
    name = "POLY_OVER_RATIONALS"
    zero = Poly()
    one = Poly.const(1)

    def convert(self, x):
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return Poly.const(x)
        raise TypeError("POLY_OVER_RATIONALS expects Poly, got %r" % (x,))

    def is_zero(self, a) -> bool:
        return a.is_zero

    def norm(self, a) -> int:
        return 0 if a.is_zero else a.degree + 1

    def divides(self, a, b) -> bool:
        # a nonzero constant is a unit
        return a.degree == 0 or super().divides(a, b)

    def canonical_unit(self, a):
        return Poly.const(1) if a.is_zero else Poly.const(1 / a.leading)

    def unit_inverse(self, u):
        return Poly.const(1 / u.coeffs[0])

    def gcd(self, a, b):
        return poly_gcd(a, b)

    def element_to_json(self, a):
        return a.to_json()


INTEGERS = _Integers()
RATIONALS = _Rationals()
POLY_OVER_RATIONALS = _PolyOverRationals()


# -------------------------------------------------------------------- matrices


@dataclass(frozen=True)
class Mat:
    """Dense matrix with explicit shape (rows or cols may be zero)."""

    rows: int
    cols: int
    data: Tuple[Tuple[Any, ...], ...]

    def __post_init__(self):
        if len(self.data) != self.rows or any(
            len(r) != self.cols for r in self.data
        ):
            raise ValueError("matrix shape mismatch")


def mat(dom: CoeffDomain, rows: Sequence[Sequence], cols: int = None) -> Mat:
    data = tuple(tuple(dom.convert(x) for x in row) for row in rows)
    if cols is None:
        if not data:
            raise ValueError("empty matrix needs an explicit column count")
        cols = len(data[0])
    return Mat(len(data), cols, data)


def zeros(dom: CoeffDomain, m: int, n: int) -> Mat:
    return Mat(m, n, tuple(tuple(dom.zero for _ in range(n)) for _ in range(m)))


def identity(dom: CoeffDomain, n: int) -> Mat:
    return Mat(
        n,
        n,
        tuple(
            tuple(dom.one if i == j else dom.zero for j in range(n))
            for i in range(n)
        ),
    )


def mat_mul(dom: CoeffDomain, A: Mat, B: Mat) -> Mat:
    if A.cols != B.rows:
        raise ValueError("shape mismatch %sx%s @ %sx%s" % (A.rows, A.cols, B.rows, B.cols))
    out = []
    for arow in A.data:
        acc = [dom.zero] * B.cols
        for a, brow in zip(arow, B.data):
            if not a:
                continue
            for j, b in enumerate(brow):
                if b:
                    acc[j] = acc[j] + a * b
        out.append(tuple(acc))
    return Mat(A.rows, B.cols, tuple(out))


def mat_neg(A: Mat) -> Mat:
    return Mat(A.rows, A.cols, tuple(tuple(-x for x in row) for row in A.data))


def mat_to_json(dom: CoeffDomain, A: Mat) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "data": [[dom.element_to_json(x) for x in row] for row in A.data],
    }


# ---------------------------------------------------------- Smith normal form


@dataclass(frozen=True)
class SmithForm:
    """S = U A V, diagonal with a divisibility chain; inverses tracked."""

    S: Mat
    U: Mat
    Uinv: Mat
    V: Mat
    Vinv: Mat
    rank: int

    @property
    def invariant_factors(self) -> Tuple:
        return tuple(self.S.data[i][i] for i in range(self.rank))


def smith_normal_form(dom: CoeffDomain, A: Mat) -> SmithForm:
    # Entries are tested for zero by truthiness (int, Fraction and Poly all
    # support it), and every row/column operation skips zero source entries:
    # in exact arithmetic the skipped terms are zero, so no result changes.
    m, n = A.rows, A.cols
    S = [list(row) for row in A.data]
    U = [list(row) for row in identity(dom, m).data]
    Ui = [list(row) for row in identity(dom, m).data]
    V = [list(row) for row in identity(dom, n).data]
    Vi = [list(row) for row in identity(dom, n).data]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        for r in Ui:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def row_add(i, j, q):
        # row_i += q * row_j; Uinv gets the inverse column operation
        for mtx in (S, U):
            ri = mtx[i]
            for k, x in enumerate(mtx[j]):
                if x:
                    ri[k] = ri[k] + q * x
        for r in Ui:
            if r[i]:
                r[j] = r[j] - q * r[i]

    def col_add(j, i, q):
        # col_j += q * col_i; Vinv gets the inverse row operation
        for mtx in (S, V):
            for r in mtx:
                if r[i]:
                    r[j] = r[j] + q * r[i]
        ri = Vi[i]
        for k, x in enumerate(Vi[j]):
            if x:
                ri[k] = ri[k] - q * x

    def row_scale(i, u):
        uinv = dom.unit_inverse(u)
        for mtx in (S, U):
            mtx[i] = [u * x if x else x for x in mtx[i]]
        for r in Ui:
            if r[i]:
                r[i] = r[i] * uinv

    def pivot_position(t):
        # first entry of least norm in row-major order; 1 is the least norm
        # of a nonzero element in every domain, so the scan may stop there
        best = None
        for i in range(t, m):
            for j, x in enumerate(S[i][t:], t):
                if x:
                    w = dom.norm(x)
                    if w == 1:
                        return i, j
                    if best is None or w < best[0]:
                        best = (w, i, j)
        return best and best[1:]

    t = 0
    while t < min(m, n):
        pos = pivot_position(t)
        if pos is None:
            break
        bi, bj = pos
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if not S[i][t]:
                    continue
                q, r = dom.divmod(S[i][t], S[t][t])
                if q:
                    row_add(i, t, -q)
                if r:
                    row_swap(t, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, n):
                if not S[t][j]:
                    continue
                q, r = dom.divmod(S[t][j], S[t][t])
                if q:
                    col_add(j, t, -q)
                if r:
                    col_swap(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            # pivot must divide the rest of the submatrix for the chain
            p = S[t][t]
            stray = next(
                (
                    i
                    for i in range(t + 1, m)
                    if any(x and not dom.divides(p, x) for x in S[i][t + 1 :])
                ),
                None,
            )
            if stray is None:
                break
            row_add(t, stray, dom.one)
        u = dom.canonical_unit(S[t][t])
        if u != dom.one:
            row_scale(t, u)
        t += 1

    freeze = lambda mtx, r, c: Mat(r, c, tuple(tuple(row) for row in mtx))
    return SmithForm(
        S=freeze(S, m, n),
        U=freeze(U, m, m),
        Uinv=freeze(Ui, m, m),
        V=freeze(V, n, n),
        Vinv=freeze(Vi, n, n),
        rank=t,
    )
