"""Exact linear algebra over three Euclidean coefficient domains.

Elements are plain ints (INTEGERS), Fractions (RATIONALS) or Poly values
(POLY_OVER_RATIONALS). Smith normal form S = U A V is one elimination on S
that logs its row and column operations. _replayed applies a log to any
matrix: on an identity it builds U or V, and with the inverse operations
their inverses. smith_normal_form replays both logs; a caller that reads
only the rank and the diagonal replays none, and one that multiplies by V
or solves against it replays the column log on its own matrices.

Over Q the elimination and smith_normal_form's transforms run on integers:
each row or column is a list of integer numerators over one shared
denominator, reduced by their gcd after each operation, and Fractions are
built once, at the end. A field needs no remainder loop: the pivot is the
first nonzero entry, rows below it are cleared by cross-multiplication, and
its row is cleared by logging column operations that change that row alone.
So each logged operation touches one vector of the inverse transform while
the vectors it reads are still unit vectors, and Uinv and Vinv are read off
the logs entry by entry; only U and V are replayed.

Q[t] entries are Poly values, which store their coefficients the same way:
integer numerators over one denominator. So the Q[t] elimination and replays
run on integers too, through Poly arithmetic. A matrix product entry, or an
entry x + q*y of a row or column operation, is summed by polyring._mul_add,
which puts it in canonical form once instead of once per operator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Any, Sequence, Tuple

from .errors import CertificateError, Frozen, _check_int, _set
from .polyring import Poly, _mul_add, poly_gcd


class CoeffDomain:
    """Shared part of the three domains, which live at module level. Each
    also has convert, norm, canonical_unit (the unit u with u*a positive,
    monic or 1), unit_inverse, gcd and element_to_json."""

    name = "?"

    def is_zero(self, a) -> bool:
        return not a

    def divmod(self, a, b):
        return divmod(a, b)

    def divides(self, a, b) -> bool:
        if not a:
            return not b
        return not self.divmod(b, a)[1]

    def dot(self, pairs):
        """Σ a·b over the pairs (a, b)."""
        acc = self.zero
        for a, b in pairs:
            acc = acc + a * b
        return acc

    def __repr__(self):
        return self.name

    def __reduce__(self):
        # pickle and deepcopy return the module-level instance: `dom is RATIONALS` holds
        return self.name


class _Integers(CoeffDomain):
    name = "INTEGERS"
    zero = 0
    one = 1

    def convert(self, x):
        return _check_int(x, "an INTEGERS element")

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
        return Fraction(_check_int(x, "a RATIONALS element", also=(Fraction,)))

    def divmod(self, a, b):
        return a / b, Fraction(0)

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
        return x if isinstance(x, Poly) else Poly.const(x)

    def norm(self, a) -> int:
        return 0 if a.is_zero else a.degree + 1

    def canonical_unit(self, a):
        return Poly.const(1) if a.is_zero else Poly.const(1 / a.leading)

    def unit_inverse(self, u):
        return Poly.const(1 / u.coeffs[0])

    def gcd(self, a, b):
        return poly_gcd(a, b)

    dot = staticmethod(_mul_add)

    def element_to_json(self, a):
        return a.to_json()


INTEGERS = _Integers()
RATIONALS = _Rationals()
POLY_OVER_RATIONALS = _PolyOverRationals()


# -------------------------------------------------------------------- matrices


class Mat(Frozen):
    """Dense matrix with explicit shape (rows or cols may be zero)."""

    def __init__(self, rows: int, cols: int, data: Tuple[Tuple[Any, ...], ...]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix shape mismatch")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", data)


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
    # each entry is one dot product over the pairs of nonzero factors
    brows = [[(j, b) for j, b in enumerate(row) if b] for row in B.data]
    dot, zero, out = dom.dot, dom.zero, []
    for arow in A.data:
        pairs = [[] for _ in range(B.cols)]
        for a, brow in zip(arow, brows):
            if a:
                for j, b in brow:
                    pairs[j].append((a, b))
        out.append(tuple(dot(p) if p else zero for p in pairs))
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


class SmithForm(Frozen):
    """S = U A V, diagonal with a divisibility chain; inverses tracked."""

    def __init__(self, S: Mat, U: Mat, Uinv: Mat, V: Mat, Vinv: Mat, rank: int):
        _set(self, "S", S)
        _set(self, "U", U)
        _set(self, "Uinv", Uinv)
        _set(self, "V", V)
        _set(self, "Vinv", Vinv)
        _set(self, "rank", rank)

    @property
    def invariant_factors(self) -> Tuple:
        return tuple(self.S.data[i][i] for i in range(self.rank))


def _row_op(M: list, kind: str, i: int, j: int, q) -> None:
    """swap rows i and j, add q times row j to row i, or scale row i by q.
    A Poly q adds through _mul_add, one canonical form per entry."""
    if kind == "swap":
        M[i], M[j] = M[j], M[i]
    elif kind == "add":
        ri, fused = M[i], q.__class__ is Poly
        for k, x in enumerate(M[j]):
            if x:
                ri[k] = _mul_add(((q, x),), ri[k]) if fused else ri[k] + q * x
    else:
        M[i] = [q * x if x else x for x in M[i]]


def _col_op(M: list, kind: str, i: int, j: int, q) -> None:
    """swap columns i and j, add q times column i to column j, or scale column i by q."""
    if kind == "swap":
        for r in M:
            r[i], r[j] = r[j], r[i]
    elif kind == "add":
        fused = q.__class__ is Poly
        for r in M:
            if r[i]:
                r[j] = _mul_add(((q, r[i]),), r[j]) if fused else r[j] + q * r[i]
    else:
        for r in M:
            if r[i]:
                r[i] = r[i] * q


class SmithElimination(Frozen):
    """S and its rank, with every _row_op and _col_op that took A to S, in
    order, as (kind, i, j, q, q') with q' the inverse operation's q; no
    transform is built."""

    def __init__(self, S: Mat, rank: int, rows: Tuple[tuple, ...], cols: Tuple[tuple, ...]):
        _set(self, "S", S)
        _set(self, "rank", rank)
        _set(self, "rows", rows)
        _set(self, "cols", cols)

    invariant_factors = SmithForm.invariant_factors


def _check_remainder(dom: CoeffDomain, r, pivot) -> None:
    """The entry r left by a division step, about to become the pivot, must
    be nonzero and of smaller norm: else the Euclid loop need not end."""
    if not 0 < dom.norm(r) < dom.norm(pivot):
        raise CertificateError("Smith elimination: a remainder of norm %d cannot "
                               "replace a pivot of norm %d" % (dom.norm(r), dom.norm(pivot)))


def smith_elimination(dom: CoeffDomain, A: Mat) -> SmithElimination:
    """Smith normal form of A as S, its rank and the logs; no transform is built."""
    if dom is RATIONALS:
        return _q_elimination(A)
    # Entries are tested for zero by truthiness (int and Poly both support
    # it), and every row/column operation skips zero source entries:
    # in exact arithmetic the skipped terms are zero, so no result changes.
    m, n = A.rows, A.cols
    S = [list(row) for row in A.data]
    rows, cols = [], []

    def row(kind, i, j, q=None, qinv=None):
        _row_op(S, kind, i, j, q)
        rows.append((kind, i, j, q, qinv))

    def col(kind, i, j, q=None, qinv=None):
        _col_op(S, kind, i, j, q)
        cols.append((kind, i, j, q, qinv))

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
            row("swap", t, bi)
        if bj != t:
            col("swap", t, bj)
        # The loop ends because each swap brings in the remainder of a division
        # step, of smaller norm than the pivot, and a stray-row add leaves one
        # for the column pass to swap in. Both are checked: wrong arithmetic
        # raises CertificateError instead of looping.
        stray_added = False
        while True:
            dirty = False
            for i in range(t + 1, m):
                if not S[i][t]:
                    continue
                q, r = dom.divmod(S[i][t], S[t][t])
                if q:
                    row("add", i, t, -q, q)
                if r:
                    _check_remainder(dom, S[i][t], S[t][t])
                    row("swap", t, i)
                    dirty = True
                    break
            if not dirty:
                for j in range(t + 1, n):
                    if not S[t][j]:
                        continue
                    q, r = dom.divmod(S[t][j], S[t][t])
                    if q:
                        col("add", t, j, -q, q)
                    if r:
                        _check_remainder(dom, S[t][j], S[t][t])
                        col("swap", t, j)
                        dirty = True
                        break
            if dirty:
                stray_added = False
                continue
            if stray_added:
                raise CertificateError("Smith elimination: the stray row added at pivot %d "
                                       "left no remainder to swap in" % t)
            # pivot must divide the rest of the submatrix; a unit (norm 1) does
            p = S[t][t]
            if dom.norm(p) == 1:
                break
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
            row("add", t, stray, dom.one, -dom.one)
            stray_added = True
        u = dom.canonical_unit(S[t][t])
        if u != dom.one:
            row("scale", t, None, u, dom.unit_inverse(u))
        t += 1

    return SmithElimination(Mat(m, n, tuple(map(tuple, S))), t, tuple(rows), tuple(cols))


def _replayed(M: Mat, log, op, inverse: bool = False) -> Mat:
    """A copy of M with each logged (kind, i, j, q, q') applied in order by op,
    with q, or with q' when inverse is set."""
    rows = [list(row) for row in M.data]
    for kind, i, j, q, qinv in log:
        op(rows, kind, i, j, qinv if inverse else q)
    return Mat(M.rows, M.cols, tuple(map(tuple, rows)))


# A rational vector is (numerators, denominator): a list of ints and one
# positive int whose gcd with all of them is 1.


def _q_vector(xs) -> tuple:
    den = _int_lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _q_reduced(nums: list, den: int) -> tuple:
    g = _int_gcd(den, *nums)
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _q_axpy(a: tuple, q: Fraction, b: tuple) -> tuple:
    """a + q*b, over the least common denominator."""
    (an, ad), (bn, bd) = a, b
    d = q.denominator * bd
    g = _int_gcd(ad, d)
    fa, fb = d // g, q.numerator * (ad // g)
    return _q_reduced([x * fa + y * fb for x, y in zip(an, bn)], ad // g * d)


def _q_scaled(a: tuple, q: Fraction) -> tuple:
    nums, den = a
    return _q_reduced([x * q.numerator for x in nums], den * q.denominator)


def _q_fractions(vectors) -> tuple:
    zero = RATIONALS.zero
    return tuple(
        tuple(Fraction(x, den) if x else zero for x in nums) for nums, den in vectors
    )


def _q_elimination(A: Mat) -> SmithElimination:
    """smith_elimination over Q: the same S, rank and logs, computed on integers."""
    m, n = A.rows, A.cols
    S = [_q_vector(row) for row in A.data]
    rows, cols = [], []
    t = 0
    while t < min(m, n):
        pos = next(
            ((i, j) for i in range(t, m) for j in range(t, n) if S[i][0][j]), None
        )
        if pos is None:
            break
        bi, bj = pos
        if bi != t:
            S[t], S[bi] = S[bi], S[t]
            rows.append(("swap", t, bi, None, None))
        if bj != t:
            for nums, _ in S[t:]:
                nums[t], nums[bj] = nums[bj], nums[t]
            cols.append(("swap", t, bj, None, None))
        pn, pd = S[t]
        p = pn[t]
        for i in range(t + 1, m):
            a = S[i][0][t]
            if a:
                q = Fraction(a * pd, S[i][1] * p)
                rows.append(("add", i, t, -q, q))
                S[i] = _q_axpy(S[i], -q, S[t])
        for j in range(t + 1, n):
            if pn[j]:
                q = Fraction(pn[j], p)
                cols.append(("add", t, j, -q, q))
        if p != pd:
            u = Fraction(pd, p)
            rows.append(("scale", t, None, u, 1 / u))
        S[t] = [int(j == t) for j in range(n)], 1
        t += 1
    return SmithElimination(Mat(m, n, _q_fractions(S)), t, tuple(rows), tuple(cols))


def _q_transforms(n: int, log, by_rows: bool) -> Tuple[Mat, Mat]:
    """(P, P^-1) of a log over Q. P is replayed on the vectors its operations
    act on (rows for a row log, columns for a column log). P^-1, kept as the
    other kind, is read off the log: step c of the elimination changes only
    vector c there, and only from vectors after c, which until their own step
    are the unit vectors at pos[...], moved by the swaps alone. So each add
    writes the one entry q' and each scale multiplies one vector."""
    zero, one = RATIONALS.zero, RATIONALS.one
    P = [([int(i == k) for k in range(n)], 1) for i in range(n)]
    Pinv = [[one if i == k else zero for k in range(n)] for i in range(n)]
    pos = list(range(n))
    for kind, i, j, q, qinv in log:
        if kind == "swap":
            P[i], P[j] = P[j], P[i]
            Pinv[i], Pinv[j] = Pinv[j], Pinv[i]
            pos[i], pos[j] = pos[j], pos[i]
        elif kind == "scale":
            P[i] = _q_scaled(P[i], q)
            Pinv[i] = [x * qinv if x else x for x in Pinv[i]]
        else:
            # a row operation adds q times row j to row i, a column operation
            # q times column i to column j; the inverse adds the other way
            dst, src = (i, j) if by_rows else (j, i)
            P[dst] = _q_axpy(P[dst], q, P[src])
            Pinv[src][pos[dst]] = qinv
    P = _q_fractions(P)
    if by_rows:
        Pinv = tuple(zip(*Pinv))
    else:
        P, Pinv = tuple(zip(*P)), tuple(map(tuple, Pinv))
    return Mat(n, n, P), Mat(n, n, Pinv)


def smith_normal_form(dom: CoeffDomain, A: Mat) -> SmithForm:
    """The elimination with both transforms and their inverses replayed."""
    E = smith_elimination(dom, A)
    if dom is RATIONALS:
        U, Uinv = _q_transforms(A.rows, E.rows, True)
        V, Vinv = _q_transforms(A.cols, E.cols, False)
    else:
        # U takes the row operations, Uinv their inverses on columns; V, Vinv the other way
        Im, In = identity(dom, A.rows), identity(dom, A.cols)
        U, Uinv = _replayed(Im, E.rows, _row_op), _replayed(Im, E.rows, _col_op, True)
        V, Vinv = _replayed(In, E.cols, _col_op), _replayed(In, E.cols, _row_op, True)
    return SmithForm(S=E.S, U=U, Uinv=Uinv, V=V, Vinv=Vinv, rank=E.rank)
