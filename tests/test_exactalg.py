"""Polynomial ring and Smith-form properties.

The Smith routine is the engine under every cohomology computation, so
the transforms replayed from its logs (S = U A V with inverses) are pounded
on with randomized matrices over all three domains.
"""

import hashlib
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ffcurve import exactalg
from ffcurve.complexes import koszul
from ffcurve.errors import CertificateError
from ffcurve.exactalg import (
    INTEGERS,
    POLY_OVER_RATIONALS,
    RATIONALS,
    Mat,
    SmithForm,
    identity,
    mat,
    mat_mul,
    mat_to_json,
    smith_elimination,
    smith_normal_form,
    zeros,
)
from ffcurve.polyring import Poly, T_VAR, _mul_add, poly_gcd

from gen import DOMAINS, mat_from_json, random_element, random_mat

t = T_VAR


# ----------------------------------------------------------------- polynomials


def test_poly_basic_arithmetic():
    p = t * t - 2 * t + 1
    assert p == Poly((1, -2, 1))
    assert p == (t - 1) * (t - 1)
    assert (t + 1) ** 3 == t**3 + 3 * t**2 + 3 * t + 1
    assert (p - p).is_zero
    assert p(1) == 0 and p(3) == 4


def test_poly_divmod_property():
    rng = random.Random(7)
    for _ in range(200):
        a = Poly([Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(0, 5))])
        b = Poly([Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))])
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.is_zero or r.degree < b.degree


def _schoolbook(a, b):
    """Product of coefficient lists, one Fraction operation at a time."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


_COEFF = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_COEFF, max_size=7), st.lists(_COEFF, max_size=7))
def test_poly_mul_matches_fraction_schoolbook(a, b):
    p, q = Poly(a), Poly(b)
    want = _schoolbook(p.coeffs, q.coeffs)
    for got in (p * q, q * p):
        assert got.coeffs == want
        assert all(type(c) is Fraction for c in got.coeffs)


_MONOMIAL = st.builds(lambda k, c: [Fraction(0)] * k + [c], st.integers(0, 5), _COEFF)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_COEFF, max_size=4), _MONOMIAL), st.integers(0, 9))
def test_poly_pow_matches_repeated_products(a, n):
    # square-and-multiply on every base: c*t^k and zero included
    p = Poly(a)
    want = Poly.const(1)
    for _ in range(n):
        want = Poly(_schoolbook(want.coeffs, p.coeffs))
    got = p ** n
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)


def _schoolbook_divmod(a, b):
    """Quotient and remainder of coefficient lists, one Fraction operation at a time."""
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        while r and not r[-1]:
            r.pop()
    while q and not q[-1]:
        q.pop()
    return tuple(q), tuple(r)


_NONZERO = st.one_of(
    st.integers(-9, 9).filter(bool).map(Fraction),
    st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30)),
    st.builds(Fraction, st.integers(-10**30, -1), st.integers(1, 10**30)),
)
# divisors of every degree up to 4, with leading coefficients of both signs
_DIVISOR = st.builds(lambda low, lead: low + [lead], st.lists(_COEFF, max_size=4), _NONZERO)


def _assert_canonical(p):
    """Integer numerators without a trailing zero over a positive coprime denominator."""
    n, d = p._n, p._d
    assert type(n) is tuple and all(type(x) is int for x in n)
    assert type(d) is int and d > 0
    assert not n or n[-1] != 0
    assert gcd(d, *n) == 1
    assert n or d == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(_COEFF, max_size=8), _DIVISOR)
def test_poly_divmod_matches_fraction_schoolbook(a, b):
    p, d = Poly(a), Poly(b)
    want_q, want_r = _schoolbook_divmod(p.coeffs, d.coeffs)
    q, r = divmod(p, d)
    assert (q.coeffs, r.coeffs) == (want_q, want_r)
    assert (p // d).coeffs == want_q and (p % d).coeffs == want_r
    for x in (q, r, p // d, p % d):
        _assert_canonical(x)
    assert POLY_OVER_RATIONALS.divides(d, p) == (not want_r)


@settings(max_examples=200, deadline=None)
@given(st.lists(_COEFF, max_size=5), st.lists(_COEFF, max_size=5), _NONZERO,
       st.integers(0, 4))
def test_poly_results_are_canonical(a, b, c, n):
    p, q = Poly(a), Poly(b)
    results = [p, q, Poly.const(c), Poly.const(0), p + q, p - q, q - p, p - p, -p,
               p * q, p * c, c * p, p + c, c - p, p ** n, p.monic(), poly_gcd(p, q),
               Poly(map(Fraction, p.to_json()))]
    if q:
        results += list(divmod(p, q)) + [p % q, p // q]
    for x in results:
        _assert_canonical(x)


@settings(max_examples=200, deadline=None)
@given(st.lists(_COEFF, max_size=5), st.lists(_COEFF, max_size=4), _NONZERO)
def test_poly_eq_and_hash_agree_across_constructions(a, b, c):
    p, q = Poly(a), Poly(b)
    routes = [
        Poly(p.coeffs),
        Poly(map(Fraction, p.to_json())),
        sum((Poly.const(x) * t ** e for e, x in enumerate(p.coeffs)), Poly()),
        (p + q) - q,
        p * c * (1 / c),
        (p * Poly.const(c)) // c,
        -(-p),
    ]
    if q:
        routes.append(divmod(p * q, q)[0])
    for x in routes:
        assert x == p and hash(x) == hash(p)
    # a constant equals the number and hashes as it does
    k = Poly.const(c)
    assert k == c and hash(k) == hash(c) and k == Poly((c,))
    assert Poly.const(3) == 3 and hash(Poly.const(3)) == hash(3) == hash(Poly((3,)))
    assert Poly() == 0 and hash(Poly()) == hash(0) == hash(Poly.const(0))
    assert (p == c) == (p.degree == 0 and p.coeffs[0] == c)


_POLY_OPS = {"mul": operator.mul, "divmod": divmod, "floordiv": operator.floordiv,
             "mod": operator.mod}


@pytest.mark.parametrize("name, other, error", [
    *(pytest.param(name, Poly(), ZeroDivisionError, id=name + "-zero")
      for name in ("divmod", "floordiv", "mod")),
    *(pytest.param(name, other, TypeError, id="%s-%s" % (name, kind))
      for name in _POLY_OPS for kind, other in (("float", 0.5), ("bool", True), ("str", "t"))),
])
def test_poly_divmod_by_zero(name, other, error):
    # every division reaches the one divisor check in Poly.__divmod__
    with pytest.raises(error):
        _POLY_OPS[name](t, other)


def test_poly_gcd():
    assert poly_gcd(t**2 - 1, t - 1) == t - 1
    assert poly_gcd(t**2 + 2 * t + 1, t + 1) == t + 1
    assert poly_gcd(Poly(), Poly()).is_zero
    assert poly_gcd(2 * t, 3 * t) == t
    rng = random.Random(11)
    for _ in range(100):
        a = Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))])
        b = Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))])
        g = poly_gcd(a, b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
        else:
            assert g.leading == 1
            assert (a % g).is_zero and (b % g).is_zero


def _euclid_gcd(a, b):
    """Monic gcd of coefficient lists by Euclid over Q on Fractions."""
    while b:
        a, b = b, _schoolbook_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


@settings(max_examples=200, deadline=None)
@given(st.lists(_COEFF, max_size=5), st.lists(_COEFF, max_size=5), st.lists(_COEFF, max_size=3))
def test_poly_gcd_matches_fraction_euclid(a, b, c):
    # a common factor c, so that the gcd is often not 1
    p, q = Poly(a) * Poly(c), Poly(b) * Poly(c)
    g = poly_gcd(p, q)
    assert g.coeffs == _euclid_gcd(p.coeffs, q.coeffs)
    assert g == poly_gcd(q, p)


def test_poly_gcd_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("t")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)] or [0], x, domain=sympy.QQ)

    def monic_gcd(p, q):
        g = sympy.gcd(to_sympy(p), to_sympy(q))
        return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())])

    third = Fraction(1, 3)
    pairs = [
        (Fraction(7, 9) - t**99, (t + 1) ** 99),
        ((17179869183 * t + 7) ** 12 * (third * t - 7) ** 12, (t + 1) ** 24),
        ((t**2 + Fraction(1, 7)) ** 30 * (t - 5) ** 4,
         (t**2 + Fraction(1, 7)) ** 2 * (2 * t + 3) ** 40),
        ((t - 1) ** 3 * (t + 2) ** 37, (t - 1) ** 5 * (3 * t + 1) ** 35),
    ]
    rng = random.Random(13)
    for _ in range(40):
        common = Poly([Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
                       for _ in range(rng.randint(1, 4))])
        pairs.append(tuple(
            common * Poly([rng.randint(-50, 50) for _ in range(rng.randint(0, 6))])
            for _ in range(2)))
    for p, q in pairs:
        assert poly_gcd(p, q) == monic_gcd(p, q)


def test_poly_str_forms():
    assert str(Poly()) == "0"
    assert str(t) == "t"
    assert str(-t) == "-t"
    assert str(t**2 - 2 * t + 1) == "t^2 - 2*t + 1"
    assert str(Poly((Fraction(1, 2),))) == "1/2"
    assert str(Poly((0, Fraction(-3, 2)))) == "-3/2*t"


def test_poly_json_round_trip():
    p = Fraction(1, 3) * t**2 - 2
    assert Poly(map(Fraction, p.to_json())) == p


# ----------------------------------------------------------------- matrix ops


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        Mat(2, 2, ((1, 2),))
    A = mat(INTEGERS, [[1, 2], [3, 4]])
    B = identity(INTEGERS, 2)
    assert mat_mul(INTEGERS, A, B) == A
    with pytest.raises(ValueError):
        mat_mul(INTEGERS, A, zeros(INTEGERS, 3, 1))


def test_matrix_json_round_trip():
    rng = random.Random(3)
    for dom in DOMAINS:
        A = random_mat(dom, rng, 3, 2)
        assert mat_from_json(dom, mat_to_json(dom, A)) == A


# ----------------------------------------------------------------- Smith form


def test_snf_frozen_integer_examples():
    f = smith_normal_form(INTEGERS, mat(INTEGERS, [[2]]))
    assert f.invariant_factors == (2,)
    f = smith_normal_form(INTEGERS, mat(INTEGERS, [[2, 4], [6, 8]]))
    assert f.invariant_factors == (2, 4)
    f = smith_normal_form(INTEGERS, mat(INTEGERS, [[2, 0], [0, 3]]))
    assert f.invariant_factors == (1, 6)
    f = smith_normal_form(INTEGERS, zeros(INTEGERS, 2, 3))
    assert f.rank == 0


def test_snf_frozen_poly_examples():
    f = smith_normal_form(POLY_OVER_RATIONALS, mat(POLY_OVER_RATIONALS, [[t]]))
    assert f.invariant_factors == (t,)
    A = mat(POLY_OVER_RATIONALS, [[t, 0], [0, t - 1]])
    f = smith_normal_form(POLY_OVER_RATIONALS, A)
    assert f.invariant_factors == (Poly.const(1), t**2 - t)


def _check_snf(dom, A):
    f = smith_normal_form(dom, A)
    n, m = A.cols, A.rows
    assert mat_mul(dom, mat_mul(dom, f.U, A), f.V) == f.S
    assert mat_mul(dom, f.U, f.Uinv) == identity(dom, m)
    assert mat_mul(dom, f.Uinv, f.U) == identity(dom, m)
    assert mat_mul(dom, f.V, f.Vinv) == identity(dom, n)
    assert mat_mul(dom, f.Vinv, f.V) == identity(dom, n)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert dom.is_zero(f.S.data[i][j])
    diag = f.invariant_factors
    assert all(not dom.is_zero(d) for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert dom.divides(a, b)
    for d in diag:
        assert dom.canonical_unit(d) == dom.one
    return f


def test_snf_randomized_all_domains():
    rng = random.Random(17)
    for dom in DOMAINS:
        rounds = 60 if dom is not POLY_OVER_RATIONALS else 30
        for _ in range(rounds):
            m, n = rng.randint(0, 4), rng.randint(0, 4)
            _check_snf(dom, random_mat(dom, rng, m, n))


def test_snf_rationals_are_units():
    rng = random.Random(19)
    A = random_mat(RATIONALS, rng, 3, 3)
    f = smith_normal_form(RATIONALS, A)
    assert all(d == 1 for d in f.invariant_factors)


# ------------------------------------------------- zero-skipping kernels
#
# The kernels skip zero entries and test zeros by truthiness.  Exact
# arithmetic makes the skipped terms vanish, so they must return exactly
# what the dense loops below return.  These are the dense kernels as they
# stood before zero skipping, kept here as the reference.


def _dense_mat_mul(dom, A, B):
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = dom.zero
            for k in range(A.cols):
                acc = acc + A.data[i][k] * B.data[k][j]
            row.append(acc)
        out.append(tuple(row))
    return Mat(A.rows, B.cols, tuple(out))


def _dense_smith_normal_form(dom, A):
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
        for mtx in (S, U):
            ri, rj = mtx[i], mtx[j]
            for k in range(len(ri)):
                ri[k] = ri[k] + q * rj[k]
        for r in Ui:
            r[j] = r[j] - q * r[i]

    def col_add(j, i, q):
        for mtx in (S, V):
            for r in mtx:
                r[j] = r[j] + q * r[i]
        ri, rj = Vi[i], Vi[j]
        for k in range(len(ri)):
            ri[k] = ri[k] - q * rj[k]

    def row_scale(i, u):
        uinv = dom.unit_inverse(u)
        for mtx in (S, U):
            mtx[i] = [u * x for x in mtx[i]]
        for r in Ui:
            r[i] = r[i] * uinv

    def nonzero_positions(t):
        for i in range(t, m):
            row = S[i]
            for j in range(t, n):
                if not dom.is_zero(row[j]):
                    yield i, j

    t = 0
    while t < min(m, n):
        best = None
        for i, j in nonzero_positions(t):
            w = dom.norm(S[i][j])
            if best is None or w < best[0]:
                best = (w, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if dom.is_zero(S[i][t]):
                    continue
                q, r = dom.divmod(S[i][t], S[t][t])
                if not dom.is_zero(q):
                    row_add(i, t, -q)
                if not dom.is_zero(r):
                    row_swap(t, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, n):
                if dom.is_zero(S[t][j]):
                    continue
                q, r = dom.divmod(S[t][j], S[t][t])
                if not dom.is_zero(q):
                    col_add(j, t, -q)
                if not dom.is_zero(r):
                    col_swap(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            stray = None
            for i in range(t + 1, m):
                row = S[i]
                for j in range(t + 1, n):
                    if not dom.is_zero(dom.divmod(row[j], S[t][t])[1]):
                        stray = i
                        break
                if stray is not None:
                    break
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


def _typed(M):
    """Entries with their types: Fraction(1) == 1 would hide a changed type."""
    return tuple(tuple((type(x), x) for x in row) for row in M.data)


def _sparse_mat(dom, rng, m, n, density):
    """Random m x n matrix with about `density` nonzeros, sometimes with a
    zero row and a zero column."""
    rows = [
        [
            dom.convert(random_element(dom, rng)) if rng.random() < density else dom.zero
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    if m and n and rng.random() < 0.3:
        rows[rng.randrange(m)] = [dom.zero] * n
        j = rng.randrange(n)
        for row in rows:
            row[j] = dom.zero
    return Mat(m, n, tuple(tuple(row) for row in rows))


# largest side per domain: Q[t] Smith forms blow up fastest
_KERNEL_SIZES = {INTEGERS: 12, RATIONALS: 12, POLY_OVER_RATIONALS: 9}
_EMPTY_SHAPES = ((0, 0), (0, 4), (4, 0), (1, 1))


def _kernel_cases(dom, rng, rounds):
    yield from ((m, n, 1.0) for m, n in _EMPTY_SHAPES)
    top = _KERNEL_SIZES[dom]
    for _ in range(rounds):
        density = rng.choice((0.1, 0.25, 0.5, 1.0))
        if dom is POLY_OVER_RATIONALS and density == 1.0:
            density = 0.5
        yield rng.randint(1, top), rng.randint(1, top), density


def test_mat_mul_matches_dense_loops():
    rng = random.Random(41)
    for dom in (INTEGERS, RATIONALS, POLY_OVER_RATIONALS):
        for m, n, density in _kernel_cases(dom, rng, 40):
            k = rng.randint(0, _KERNEL_SIZES[dom])
            A = _sparse_mat(dom, rng, m, k, density)
            B = _sparse_mat(dom, rng, k, n, density)
            got, want = mat_mul(dom, A, B), _dense_mat_mul(dom, A, B)
            assert got == want
            assert _typed(got) == _typed(want)


def test_smith_form_matches_dense_loops():
    rng = random.Random(43)
    for dom in (INTEGERS, RATIONALS, POLY_OVER_RATIONALS):
        rounds = 25 if dom is POLY_OVER_RATIONALS else 60
        for m, n, density in _kernel_cases(dom, rng, rounds):
            A = _sparse_mat(dom, rng, m, n, density)
            got, want = smith_normal_form(dom, A), _dense_smith_normal_form(dom, A)
            assert got == want, (dom, m, n, density)
            for name in ("S", "U", "Uinv", "V", "Vinv"):
                assert _typed(getattr(got, name)) == _typed(getattr(want, name))


def _log_digest(dom, seed):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(40):
        A = random_mat(dom, rng, rng.randint(1, 7), rng.randint(1, 7))
        E = smith_elimination(dom, A)
        rows, cols = ("\n".join(" ".join(map(str, op)) for op in log) for log in (E.rows, E.cols))
        h.update((rows + "|" + cols + "\n").encode())
    return h.hexdigest()


def test_elimination_logs_match_recorded_digest():
    # recorded while the stray-divisibility scan still ran on unit pivots,
    # which divide every entry, so skipping it must log the same operations
    assert _log_digest(INTEGERS, 5) == (
        "37b3142086d533a6b1290b8ad64247ecf413fd26b155d564f3addb8366284058"
    )
    assert _log_digest(POLY_OVER_RATIONALS, 7) == (
        "95ab9341f8046b78c2f051b3c7ac1facfaf1b176a51eb1d9463554d2eb515ede"
    )


# ------------------------------------------------- Q on integer numerators
#
# Over RATIONALS smith_elimination runs on integer numerators over one
# denominator per row.  It must log exactly what the generic loop, copied
# below as it runs on Fraction entries, logs over RATIONALS.


def _generic_row_op(M, kind, i, j, q):
    if kind == "swap":
        M[i], M[j] = M[j], M[i]
    elif kind == "add":
        M[i] = [x + q * y if y else x for x, y in zip(M[i], M[j])]
    else:
        M[i] = [q * x if x else x for x in M[i]]


def _generic_col_op(M, kind, i, j, q):
    for r in M:
        if kind == "swap":
            r[i], r[j] = r[j], r[i]
        elif kind == "add" and r[i]:
            r[j] = r[j] + q * r[i]
        elif kind == "scale" and r[i]:
            r[i] = r[i] * q


def _generic_smith_elimination(dom, A):
    m, n = A.rows, A.cols
    S = [list(row) for row in A.data]
    rows, cols = [], []

    def row(kind, i, j, q=None, qinv=None):
        _generic_row_op(S, kind, i, j, q)
        rows.append((kind, i, j, q, qinv))

    def col(kind, i, j, q=None, qinv=None):
        _generic_col_op(S, kind, i, j, q)
        cols.append((kind, i, j, q, qinv))

    def pivot_position(t):
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
        while True:
            dirty = False
            for i in range(t + 1, m):
                if not S[i][t]:
                    continue
                q, r = dom.divmod(S[i][t], S[t][t])
                if q:
                    row("add", i, t, -q, q)
                if r:
                    row("swap", t, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, n):
                if not S[t][j]:
                    continue
                q, r = dom.divmod(S[t][j], S[t][t])
                if q:
                    col("add", t, j, -q, q)
                if r:
                    col("swap", t, j)
                    dirty = True
                    break
            if dirty:
                continue
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
            row("add", t, stray, dom.one, -dom.one)
        u = dom.canonical_unit(S[t][t])
        if u != dom.one:
            row("scale", t, None, u, dom.unit_inverse(u))
        t += 1
    return Mat(m, n, tuple(map(tuple, S))), t, tuple(rows), tuple(cols)


def _typed_log(log):
    return tuple(tuple((type(x), x) for x in op) for op in log)


def test_rational_elimination_matches_generic_loop():
    rng = random.Random(67)
    cases = [(m, n, 1.0) for m, n in _EMPTY_SHAPES + ((0, 3), (3, 0), (2, 7), (7, 2))]
    cases += [
        (rng.randint(1, 9), rng.randint(1, 9), rng.choice((0.1, 0.3, 0.6, 1.0)))
        for _ in range(150)
    ]
    seen_fraction = seen_zero_line = False
    for m, n, density in cases:
        A = _sparse_mat(RATIONALS, rng, m, n, density)
        seen_fraction |= any(x.denominator > 1 for row in A.data for x in row)
        seen_zero_line |= any(not any(row) for row in A.data) or any(
            not any(col) for col in zip(*A.data)
        )
        S, rank, rows, cols = _generic_smith_elimination(RATIONALS, A)
        got = smith_elimination(RATIONALS, A)
        assert _typed(got.S) == _typed(S), (m, n, density)
        assert got.rank == rank
        assert _typed_log(got.rows) == _typed_log(rows)
        assert _typed_log(got.cols) == _typed_log(cols)
    assert seen_fraction and seen_zero_line


def test_rational_smith_form_n20_matches_dense_loops():
    rng = random.Random(71)
    A = _sparse_mat(RATIONALS, rng, 20, 20, 1.0)
    got, want = smith_normal_form(RATIONALS, A), _dense_smith_normal_form(RATIONALS, A)
    assert got.rank == want.rank == 20
    for name in ("S", "U", "Uinv", "V", "Vinv"):
        assert _typed(getattr(got, name)) == _typed(getattr(want, name))


# ------------------------------------------ fused sums and logged inverses
#
# Q[t] sums of products (matrix product entries, x + q*y in a row or column
# operation) go through polyring._mul_add, with one canonical form per sum,
# and over Q the inverse transforms are read off the elimination log instead
# of being replayed.  The oracles are the operator loop acc + a*b
# (_dense_mat_mul above) and, below, the replay of both sides of a Q log
# that the read-off replaced.

# denominators of the entries: none, small primes, and one past 10^12
_DENOMINATORS = ((1,), (1, 2, 3, 7), (1, 10**12 + 39))


def _fraction(rng, dens):
    return Fraction(rng.randint(-9, 9), rng.choice(dens))


def _poly(rng, dens):
    return Poly([_fraction(rng, dens) for _ in range(rng.randint(0, 3))])


def _rational_mat(rng, m, n, density, dens):
    return mat(RATIONALS, [
        [_fraction(rng, dens) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ], n)


def _poly_mat(rng, m, n, density, dens):
    return Mat(m, n, tuple(
        tuple(_poly(rng, dens) if rng.random() < density else Poly() for _ in range(n))
        for _ in range(m)
    ))


def _replayed_q_transforms(n, log, by_rows):
    """The Q replay as it was: both P and P^-1 replayed, one integer vector
    over one denominator per row or column, an axpy per add on each side."""
    P = [([int(i == k) for k in range(n)], 1) for i in range(n)]
    Pinv = [([int(i == k) for k in range(n)], 1) for i in range(n)]
    for kind, i, j, q, qinv in log:
        if kind == "swap":
            P[i], P[j] = P[j], P[i]
            Pinv[i], Pinv[j] = Pinv[j], Pinv[i]
        elif kind == "scale":
            P[i] = exactalg._q_scaled(P[i], q)
            Pinv[i] = exactalg._q_scaled(Pinv[i], qinv)
        else:
            dst, src = (i, j) if by_rows else (j, i)
            P[dst] = exactalg._q_axpy(P[dst], q, P[src])
            Pinv[src] = exactalg._q_axpy(Pinv[src], qinv, Pinv[dst])
    P, Pinv = exactalg._q_fractions(P), exactalg._q_fractions(Pinv)
    if by_rows:
        Pinv = tuple(zip(*Pinv))
    else:
        P = tuple(zip(*P))
    return Mat(n, n, P), Mat(n, n, Pinv)


def test_mul_add_matches_operator_sums():
    rng = random.Random(73)
    for dens in _DENOMINATORS:
        for _ in range(150):
            pairs = [(_poly(rng, dens), _poly(rng, dens)) for _ in range(rng.randint(0, 4))]
            acc = _poly(rng, dens) if rng.random() < 0.5 else None
            want = acc if acc is not None else Poly()
            for a, b in pairs:
                want = want + a * b
            got = _mul_add(pairs, acc)
            assert (got, got.coeffs) == (want, want.coeffs)
            assert all(type(c) is Fraction for c in got.coeffs)
            # sums that cancel: the pairs against their negatives, and acc - a*b + a*b
            assert _mul_add(pairs + [(-a, b) for a, b in pairs]) == Poly()
            if pairs and acc is not None:
                a, b = pairs[0]
                assert _mul_add([(-a, b), (a, b)], acc) == acc
                assert _mul_add([(a, b)], -(a * b)) == Poly()


def test_poly_mat_mul_with_denominators_matches_dense_loop():
    rng = random.Random(79)
    for dens in _DENOMINATORS:
        for m, n, density in _kernel_cases(POLY_OVER_RATIONALS, rng, 20):
            k = rng.randint(0, _KERNEL_SIZES[POLY_OVER_RATIONALS])
            A = _poly_mat(rng, m, k, density, dens)
            B = _poly_mat(rng, k, n, density, dens)
            got = mat_mul(POLY_OVER_RATIONALS, A, B)
            want = _dense_mat_mul(POLY_OVER_RATIONALS, A, B)
            assert got == want and _typed(got) == _typed(want)
        # d o d of a Koszul complex: every entry is a sum that cancels to zero
        K = koszul(POLY_OVER_RATIONALS, [_poly(rng, dens) + T_VAR**3 for _ in range(4)])
        for d0, d1 in zip(K.differentials, K.differentials[1:]):
            got = mat_mul(POLY_OVER_RATIONALS, d1, d0)
            assert got == zeros(POLY_OVER_RATIONALS, d1.rows, d0.cols)
            assert got == _dense_mat_mul(POLY_OVER_RATIONALS, d1, d0)


def test_poly_smith_form_with_denominators_matches_dense_loops():
    # the elimination and both replays add rows and columns through _mul_add
    rng = random.Random(83)
    for dens in _DENOMINATORS[1:]:
        for m, n, density in _kernel_cases(POLY_OVER_RATIONALS, rng, 15):
            m, n = min(m, 6), min(n, 6)
            A = _poly_mat(rng, m, n, density, dens)
            S, rank, rows, cols = _generic_smith_elimination(POLY_OVER_RATIONALS, A)
            E = smith_elimination(POLY_OVER_RATIONALS, A)
            assert (E.S, E.rank, E.rows, E.cols) == (S, rank, rows, cols)
            got = smith_normal_form(POLY_OVER_RATIONALS, A)
            want = _dense_smith_normal_form(POLY_OVER_RATIONALS, A)
            assert got == want, (dens, m, n, density)


def test_q_inverse_transforms_match_the_replayed_ones():
    rng = random.Random(89)
    deficient = 0
    for dens in _DENOMINATORS:
        mats = [_rational_mat(rng, m, n, density, dens)
                for m, n, density in _kernel_cases(RATIONALS, rng, 60)]
        # rank-deficient: products through r < min(m, n) columns
        for _ in range(20):
            m, n = rng.randint(2, 9), rng.randint(2, 9)
            r = rng.randint(1, min(m, n) - 1)
            mats.append(mat_mul(RATIONALS, _rational_mat(rng, m, r, 1.0, dens),
                                _rational_mat(rng, r, n, 1.0, dens)))
        for A in mats:
            E = smith_elimination(RATIONALS, A)
            deficient += E.rank < min(A.rows, A.cols)
            for n, log, by_rows in ((A.rows, E.rows, True), (A.cols, E.cols, False)):
                got = exactalg._q_transforms(n, log, by_rows)
                want = _replayed_q_transforms(n, log, by_rows)
                assert got == want, (dens, A.rows, A.cols)
                assert [_typed(M) for M in got] == [_typed(M) for M in want]
    assert deficient >= 60


def test_q_smith_form_replays_one_axpy_per_logged_add(monkeypatch):
    # the inverses are read off the log, so each add is replayed on U or V
    # alone; the elimination itself runs one axpy per row add
    calls = []
    real = exactalg._q_axpy

    def counting(a, q, b):
        calls.append(q)
        return real(a, q, b)

    monkeypatch.setattr(exactalg, "_q_axpy", counting)
    rng = random.Random(97)
    for m, n, density in _kernel_cases(RATIONALS, rng, 30):
        A = _rational_mat(rng, m, n, density, (1, 2, 3, 7))
        E = smith_elimination(RATIONALS, A)
        row_adds = sum(op[0] == "add" for op in E.rows)
        col_adds = sum(op[0] == "add" for op in E.cols)
        calls.clear()
        smith_normal_form(RATIONALS, A)
        assert len(calls) == row_adds + (row_adds + col_adds)
        calls.clear()
        exactalg._q_transforms(A.rows, E.rows, True)
        exactalg._q_transforms(A.cols, E.cols, False)
        assert len(calls) == row_adds + col_adds


def test_divides_matches_remainder():
    rng = random.Random(47)
    for dom in (INTEGERS, RATIONALS, POLY_OVER_RATIONALS):
        for _ in range(60):
            a = dom.convert(random_element(dom, rng))
            b = dom.convert(random_element(dom, rng))
            if dom.is_zero(a):
                assert dom.divides(a, b) == dom.is_zero(b)
            else:
                assert dom.divides(a, b) == dom.is_zero(dom.divmod(b, a)[1])


class _CountedIntegers(exactalg._Integers):
    """INTEGERS with a divmod that fails the test, not the run, if it is
    called past a budget: a Euclid loop without a progress check would spin."""

    def __init__(self):
        self.calls = 0

    def divmod(self, a, b):
        self.calls += 1
        assert self.calls < 100, "smith_elimination keeps dividing"
        return super().divmod(a, b)


def test_smith_elimination_raises_on_a_remainder_that_does_not_shrink():
    class NoQuotient(_CountedIntegers):
        def divmod(self, a, b):
            super().divmod(a, b)
            return 0, a  # the remainder is the dividend: no Euclid step

    for rows in ([[2, 3], [4, 5]], [[2, 4], [0, 3]], [[1, 0], [1, 0]]):
        dom = NoQuotient()
        with pytest.raises(CertificateError, match="cannot replace a pivot"):
            smith_elimination(dom, mat(dom, rows))
        assert dom.calls == 1


def test_smith_elimination_raises_on_a_stray_row_add_without_a_swap():
    class NeverDivides(_CountedIntegers):
        def divides(self, a, b):
            return not b  # every nonzero entry looks stray, divmod disagrees

    dom = NeverDivides()
    with pytest.raises(CertificateError, match="stray row"):
        smith_elimination(dom, mat(dom, [[2, 0], [0, 4]]))
    assert dom.calls == 1


def test_poly_results_hold_trimmed_fractions():
    rng = random.Random(53)

    def rand_poly():
        return Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])

    def check(p):
        assert all(type(c) is Fraction for c in p.coeffs)
        assert not p.coeffs or p.coeffs[-1] != 0

    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        for p in (a + b, a - b, a - a, -a, a * b, a * 0, a + 2, 3 * a, a.monic()):
            check(p)
        check(poly_gcd(a, b))
        if not b.is_zero:
            q, r = divmod(a, b)
            check(q)
            check(r)
            check(a % b)


def test_poly_truthiness():
    assert bool(Poly()) is False
    assert bool(Poly((0, 1))) is True
    assert bool(Poly((0, 0))) is False
    assert bool(Poly.const(Fraction(1, 2))) is True
    assert bool(t - t) is False


# ------------------------------------------------------------ sympy oracle


def test_smith_form_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(59)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.2, 0.5, 1.0))
        A = _sparse_mat(INTEGERS, rng, m, n, density)
        D = sympy_snf(sympy.Matrix(A.data), domain=sympy.ZZ)
        want = tuple(abs(int(D[i, i])) for i in range(min(m, n)) if D[i, i] != 0)
        assert smith_normal_form(INTEGERS, A).invariant_factors == want


def test_rank_over_rationals_against_sympy():
    sympy = pytest.importorskip("sympy")

    rng = random.Random(61)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.2, 0.5, 1.0))
        A = _sparse_mat(RATIONALS, rng, m, n, density)
        M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                          for row in A.data])
        assert smith_normal_form(RATIONALS, A).rank == M.rank()
