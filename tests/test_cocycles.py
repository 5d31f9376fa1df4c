"""Pullback differentials of the length-3 resolution and cocycle spaces.

Oracle policy: the bracket rules are transcribed independently here as
pointwise evaluation formulas (``_evaluate``, which the library does not
carry) and compared against the symbolic operators on random points;
kernel and quotient dimensions are frozen from hand expansion of small
cases.  The kernels the reports certify from closed
forms are compared with a Fraction RREF and with sympy's nullspace, and
certificates with a flipped sign, an off-by-one kernel coefficient or a
misplaced pivot must be refused.
"""

import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from ffcurve import cocycles
from ffcurve.cocycles import (
    LEVEL_ARITIES,
    MahlerFunc,
    PolyFunc,
    hom_column_checks,
    pullback_d1,
    pullback_d2,
    pullback_d3,
    symmetric_2cocycle_report,
)
from ffcurve.errors import BudgetError, CertificateError


def _random_poly(rng, arity, max_degree=3, n_terms=4):
    coeffs = {}
    for _ in range(n_terms):
        expo = tuple(rng.randint(0, max_degree) for _ in range(arity))
        if sum(expo) > max_degree:
            continue
        coeffs[expo] = coeffs.get(expo, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return PolyFunc(arity, coeffs)


def _random_mahler(rng, arity, max_degree=3, n_terms=4):
    coeffs = {}
    for _ in range(n_terms):
        key = tuple(rng.randint(0, max_degree) for _ in range(arity))
        if sum(key) > max_degree:
            continue
        coeffs[key] = coeffs.get(key, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return MahlerFunc(arity, coeffs)


def _basis_value(cls, value, e):
    """x^e, or C(x, e) = x(x-1)...(x-e+1)/e! for a Mahler function."""
    if cls is PolyFunc:
        return value ** e
    out = Fraction(1)
    for i in range(e):
        out *= value - i
    return out / factorial(e)


def _evaluate(f, point):
    """Value of f at a rational point, summed term by term: the pointwise
    oracle the symbolic operators are compared with."""
    assert len(point) == f.arity
    total = Fraction(0)
    for key, coeff in f.coeffs.items():
        term = coeff
        for value, e in zip(point, key):
            term *= _basis_value(type(f), Fraction(value), e)
        total += term
    return total


def _points(rng, n, k):
    return [tuple(rng.randint(0, 5) for _ in range(k)) for _ in range(n)]


def _proportional(f, g):
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if set(f.coeffs) != set(g.coeffs):
        return False
    key = sorted(f.coeffs)[0]
    ratio = g.coeffs[key] / f.coeffs[key]
    return all(g.coeffs[k] == ratio * c for k, c in f.coeffs.items())


def test_level_arities():
    assert LEVEL_ARITIES == {0: (1,), -1: (2,), -2: (3, 2), -3: (4, 3, 3, 2, 1)}


# ------------------------------------------------------------ function spaces

def test_poly_arithmetic_and_evaluation():
    x = PolyFunc.variable(2, 0)
    y = PolyFunc.variable(2, 1)
    square = (x + y) ** 2
    assert square == x * x + 2 * x * y + y * y
    assert square.degree() == 2
    assert (square - square).is_zero()
    assert PolyFunc.zero(2).degree() == -1
    assert _evaluate(square, (3, Fraction(1, 2))) == Fraction(49, 4)
    with pytest.raises(ValueError):
        x ** (-1)


def test_poly_precompose_by_coordinate_sum():
    f = PolyFunc.variable(1, 0) ** 2
    x = PolyFunc.variable(2, 0)
    y = PolyFunc.variable(2, 1)
    assert f.precompose(((0, 1),), 2) == (x + y) ** 2


def test_precompose_validation():
    f = PolyFunc.variable(2, 0)
    with pytest.raises(ValueError):
        f.precompose(((0,),), 2)
    with pytest.raises(ValueError):
        f.precompose(((0,), ()), 2)
    with pytest.raises(ValueError):
        f.precompose(((0,), (2,)), 2)
    with pytest.raises(ValueError):
        f.precompose(((0, 1), (1, 1)), 2)


def test_rendering():
    x = PolyFunc.variable(2, 0)
    y = PolyFunc.variable(2, 1)
    assert str(2 * x * y) == "2*x*y"
    assert str((x + y) ** 2) == "x^2 + 2*x*y + y^2"
    assert str(PolyFunc.zero(1)) == "0"
    assert str(MahlerFunc.basis(2, (2, 1))) == "C(x,2)*C(y,1)"
    assert "C(x,1)" in str(MahlerFunc.basis(1, (1,)) - MahlerFunc.constant(1, 1))


def test_mahler_vandermonde_split():
    f = MahlerFunc.basis(1, (3,))
    g = f.precompose(((0, 1),), 2)
    expected = MahlerFunc.zero(2)
    for a in range(4):
        expected = expected + MahlerFunc.basis(2, (a, 3 - a))
    assert g == expected


def test_mahler_same_variable_product():
    one = MahlerFunc.basis(1, (1,))
    two = MahlerFunc.basis(1, (2,))
    assert one * one == one + 2 * two
    assert two * two == two + 6 * MahlerFunc.basis(1, (3,)) + 6 * MahlerFunc.basis(1, (4,))


def test_mahler_diagonal_precompose():
    f = MahlerFunc.basis(2, (1, 1))
    g = f.precompose(((0,), (0,)), 1)
    assert g == MahlerFunc.basis(1, (1,)) + 2 * MahlerFunc.basis(1, (2,))


def test_mahler_evaluation():
    f = Fraction(3, 2) * MahlerFunc.basis(2, (2, 1))
    assert _evaluate(f, (4, 5)) == Fraction(3, 2) * 6 * 5
    assert _evaluate(f, (Fraction(1, 2), 1)) == Fraction(3, 2) * Fraction(-1, 8)


def test_mahler_precompose_degree_behavior():
    # degree preserved for disjoint slot blocks, never increased otherwise
    rng = random.Random(31)
    for _ in range(40):
        arity = rng.randint(1, 3)
        f = _random_mahler(rng, arity)
        if f.is_zero():
            continue
        out_arity = arity + rng.randint(0, 2)
        cuts = sorted(rng.sample(range(1, out_arity), arity - 1)) if arity > 1 else []
        blocks, prev = [], 0
        for c in cuts + [out_arity]:
            blocks.append(tuple(range(prev, c)))
            prev = c
        assert f.precompose(tuple(blocks), out_arity).degree() == f.degree()
        diag = tuple((0,) for _ in range(arity))
        assert f.precompose(diag, 1).degree() <= f.degree()


def _nested_precompose(f, assignment, out_arity):
    """Precomposition by nested key merging in Fractions: every slot block is
    built by merging unit keys one variable at a time, then merged into the
    partial product.  The reference the closed-form slot blocks must match."""
    zero = (0,) * out_arity

    def merge(a, b):
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                for key, mult in f._merge_keys(ka, kb).items():
                    out[key] = out.get(key, Fraction(0)) + ca * cb * mult
        return out

    def slot_block(slot, e):
        block = {}
        for comp in cocycles._compositions(e, len(slot)):
            partial = {zero: Fraction(1)}
            for var, a in zip(slot, comp):
                if a:
                    unit = tuple(a if j == var else 0 for j in range(out_arity))
                    partial = merge(partial, {unit: Fraction(1)})
            for key, c in partial.items():
                block[key] = block.get(key, Fraction(0)) + f._composition_coeff(e, comp) * c
        return block

    out = {}
    for key, coeff in f.coeffs.items():
        partial = {zero: Fraction(1)}
        for slot, e in zip(assignment, key):
            if e:
                partial = merge(partial, slot_block(slot, e))
        for new_key, c in partial.items():
            out[new_key] = out.get(new_key, Fraction(0)) + coeff * c
    return {k: v for k, v in out.items() if v}


def test_precompose_matches_nested_merge():
    # random slots, which share variables across arguments, then the diagonal
    # and two overlapping sums
    rng = random.Random(97)
    for make in (_random_poly, _random_mahler):
        for _ in range(120):
            arity = rng.randint(1, 3)
            f = make(rng, arity, max_degree=4, n_terms=5)
            out_arity = rng.randint(1, 4)
            slots = tuple(
                tuple(rng.sample(range(out_arity), rng.randint(1, out_arity)))
                for _ in range(arity)
            )
            g = f.precompose(slots, out_arity)
            assert g.coeffs == _nested_precompose(f, slots, out_arity)
            assert all(type(v) is Fraction for v in g.coeffs.values())
        for slots in (((0,), (0,)), ((0, 1), (1,)), ((1, 0), (0, 1))):
            f = make(rng, 2, max_degree=4, n_terms=5)
            assert f.precompose(slots, 2).coeffs == _nested_precompose(f, slots, 2)


def test_random_precompose_matches_evaluation():
    rng = random.Random(41)
    for make in (_random_poly, _random_mahler):
        for _ in range(25):
            arity = rng.randint(1, 3)
            f = make(rng, arity)
            out_arity = rng.randint(1, 3)
            slots = tuple(
                tuple(rng.sample(range(out_arity), rng.randint(1, out_arity)))
                for _ in range(arity)
            )
            g = f.precompose(slots, out_arity)
            for point in _points(rng, 4, out_arity):
                args = tuple(sum(point[j] for j in slot) for slot in slots)
                assert _evaluate(g, point) == _evaluate(f, args)


@pytest.mark.parametrize("cls", [PolyFunc, MahlerFunc])
def test_powers_match_repeated_products(cls):
    rng = random.Random(5)
    make = _random_poly if cls is PolyFunc else _random_mahler
    for arity in (1, 2):
        f = make(rng, arity, max_degree=2, n_terms=3)
        want = cls.constant(arity, 1)
        for power in range(10):
            assert f ** power == want
            want = want * f
        with pytest.raises(ValueError):
            f ** (-1)


def _tuple_precompose_key(cls, key, assignment, out_arity):
    """The tuple-keyed kernel as it was before keys were coded as ints: each
    slot block a dict of exponent tuples, every product through _merge_keys."""
    def product(a, b):
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                for k, mult in cls._merge_keys(ka, kb).items():
                    out[k] = out.get(k, 0) + ca * cb * mult
        return out

    def slot_block(slot, e):
        block = {}
        for comp in cocycles._compositions(e, len(slot)):
            k = [0] * out_arity
            for var, a in zip(slot, comp):
                k[var] = a
            block[tuple(k)] = cls._composition_coeff(e, comp)
        return block

    partial = {(0,) * out_arity: 1}
    for slot, e in zip(assignment, key):
        if e:
            partial = product(partial, slot_block(slot, e))
    return partial


@pytest.mark.parametrize("cls", [PolyFunc, MahlerFunc])
def test_coded_kernel_matches_tuple_kernel(cls):
    # every term of every table, the diagonal [x, x] of _D3 included, at the
    # narrowest code width each key admits
    for table, in_arities, out_arities in (
        (cocycles._D1, LEVEL_ARITIES[0], LEVEL_ARITIES[-1]),
        (cocycles._D2, LEVEL_ARITIES[-1], LEVEL_ARITIES[-2]),
        (cocycles._D3, LEVEL_ARITIES[-2], LEVEL_ARITIES[-3]),
    ):
        for component, out_arity in zip(table, out_arities):
            for _, source, slots in component:
                for key in cocycles._keys_up_to(in_arities[source], 6):
                    width = max(sum(key), 1).bit_length()
                    coded = cls._precompose_key(key, slots, out_arity, width, {})
                    got = [(cocycles._decode(c, out_arity, width), v) for c, v in coded.items()]
                    want = _tuple_precompose_key(cls, key, slots, out_arity)
                    assert got == list(want.items())
                    assert all(type(v) is int for _, v in got)


@pytest.mark.parametrize("cls", [PolyFunc, MahlerFunc])
def test_pullback_rows_build_each_slot_block_once_per_call(monkeypatch, cls):
    real = cls._slot_block.__func__
    calls = Counter()

    def counted(klass, slot, e, width):
        calls[slot, e] += 1
        return real(klass, slot, e, width)

    monkeypatch.setattr(cls, "_slot_block", classmethod(counted))
    source = cocycles._keys_up_to(2, 5)
    out = (cocycles._keys_up_to(3, 5), cocycles._keys_up_to(2, 5))
    want = {(slots[v], e) for key in source for terms in cocycles._D2
            for _, _, slots in terms for v, e in enumerate(key) if e}
    for _ in range(2):  # the second call builds every block again
        calls.clear()
        cocycles._pullback_rows(cocycles._D2, cls, source, out)
        assert set(calls) == want
        assert max(calls.values()) == 1


# ----------------------------------------------------------------- pullbacks

def test_pullback_d1_on_square():
    f = PolyFunc.variable(1, 0) ** 2
    x = PolyFunc.variable(2, 0)
    y = PolyFunc.variable(2, 1)
    assert pullback_d1(f) == 2 * x * y


def test_pullback_d1_on_cube():
    f = PolyFunc.variable(1, 0) ** 3
    x = PolyFunc.variable(2, 0)
    y = PolyFunc.variable(2, 1)
    assert pullback_d1(f) == 3 * x * x * y + 3 * x * y * y


def test_pullback_d1_on_constants_negates():
    c = PolyFunc.constant(1, Fraction(5))
    assert pullback_d1(c) == PolyFunc.constant(2, -5)


def test_pullback_d2_swap_component():
    x = PolyFunc.variable(2, 0)
    y = PolyFunc.variable(2, 1)
    three, two = pullback_d2(x * y * y)
    assert two == x * y * y - x * x * y
    assert three.arity == 3 and two.arity == 2


def test_pullback_d3_on_constants():
    a, b = Fraction(2), Fraction(7)
    out = pullback_d3(PolyFunc.constant(3, a), PolyFunc.constant(2, b))
    assert [g.arity for g in out] == [4, 3, 3, 2, 1]
    assert all(g.degree() <= 0 for g in out)
    values = [g.coeffs.get((0,) * g.arity, Fraction(0)) for g in out]
    assert values == [-a, -(a + b), a - b, 2 * b, b]


def test_pullback_arity_validation():
    with pytest.raises(ValueError):
        pullback_d1(PolyFunc.variable(2, 0))
    with pytest.raises(ValueError):
        pullback_d2(PolyFunc.variable(1, 0))
    with pytest.raises(ValueError):
        pullback_d3(PolyFunc.variable(2, 0), PolyFunc.variable(3, 0))
    with pytest.raises(TypeError):
        pullback_d3(PolyFunc.variable(3, 0), MahlerFunc.basis(2, (1, 0)))


def test_dd_zero_poly():
    rng = random.Random(11)
    for _ in range(20):
        f = _random_poly(rng, 1)
        three, two = pullback_d2(pullback_d1(f))
        assert three.is_zero() and two.is_zero()
        g = _random_poly(rng, 2)
        assert all(h.is_zero() for h in pullback_d3(*pullback_d2(g)))


def test_dd_zero_mahler():
    rng = random.Random(13)
    for _ in range(12):
        f = _random_mahler(rng, 1)
        three, two = pullback_d2(pullback_d1(f))
        assert three.is_zero() and two.is_zero()
        g = _random_mahler(rng, 2)
        assert all(h.is_zero() for h in pullback_d3(*pullback_d2(g)))


def test_pullback_d1_matches_pointwise_rule():
    rng = random.Random(21)
    for make in (_random_poly, _random_mahler):
        for _ in range(10):
            f = make(rng, 1)
            g = pullback_d1(f)
            for a, b in _points(rng, 6, 2):
                lhs = _evaluate(g, (a, b))
                rhs = _evaluate(f, (a + b,)) - _evaluate(f, (a,)) - _evaluate(f, (b,))
                assert lhs == rhs


def test_pullback_d2_matches_pointwise_rule():
    rng = random.Random(22)
    for make in (_random_poly, _random_mahler):
        for _ in range(8):
            f = make(rng, 2)
            three, two = pullback_d2(f)

            def F(*p):
                return _evaluate(f, p)

            for a, b, c in _points(rng, 6, 3):
                assert _evaluate(three, (a, b, c)) == F(a + b, c) - F(b, c) - F(a, b + c) + F(a, b)
            for a, b in _points(rng, 6, 2):
                assert _evaluate(two, (a, b)) == F(a, b) - F(b, a)


def test_pullback_d3_matches_pointwise_rule():
    rng = random.Random(23)
    for make in (_random_poly, _random_mahler):
        for _ in range(5):
            f3 = make(rng, 3)
            f2 = make(rng, 2)
            h4, h3a, h3b, h2, h1 = pullback_d3(f3, f2)

            def F3(*p):
                return _evaluate(f3, p)

            def F2(*p):
                return _evaluate(f2, p)

            for a, b, c, d in _points(rng, 5, 4):
                assert _evaluate(h4, (a, b, c, d)) == (
                    -F3(b, c, d) + F3(a + b, c, d) - F3(a, b + c, d)
                    + F3(a, b, c + d) - F3(a, b, c)
                )
            for a, b, c in _points(rng, 5, 3):
                assert _evaluate(h3a, (a, b, c)) == (
                    -F2(b, c) + F2(a + b, c) - F2(a, c)
                    - F3(a, b, c) + F3(a, c, b) - F3(c, a, b)
                )
                assert _evaluate(h3b, (a, b, c)) == (
                    -F2(a, c) + F2(a, b + c) - F2(a, b)
                    + F3(a, b, c) - F3(b, a, c) + F3(b, c, a)
                )
            for a, b in _points(rng, 5, 2):
                assert _evaluate(h2, (a, b)) == F2(a, b) + F2(b, a)
            for (a,) in _points(rng, 5, 1):
                assert _evaluate(h1, (a,)) == F2(a, a)


# ------------------------------------------------------------ cocycle spaces

def test_symmetric_cocycle_degree_two():
    rep = symmetric_2cocycle_report(2)
    assert rep["cocycle_dim"] == 1
    assert rep["coboundary_dim"] == 1
    assert rep["quotient_dim"] == 0
    x = PolyFunc.variable(2, 0)
    y = PolyFunc.variable(2, 1)
    model = (x + y) ** 2 - x ** 2 - y ** 2
    assert len(rep["cocycle_basis"]) == 1
    assert _proportional(rep["cocycle_basis"][0], model)
    assert model == pullback_d1(PolyFunc.variable(1, 0) ** 2)


def test_symmetric_cocycle_degree_one_is_zero():
    rep = symmetric_2cocycle_report(1)
    assert rep["cocycle_dim"] == 0
    assert rep["coboundary_dim"] == 0
    assert rep["quotient_dim"] == 0


def test_symmetric_cocycle_quotient_through_degree_eight():
    x = PolyFunc.variable(2, 0)
    y = PolyFunc.variable(2, 1)
    for q in range(2, 9):
        rep = symmetric_2cocycle_report(q)
        assert rep["cocycle_dim"] == 1
        assert rep["coboundary_dim"] == 1
        assert rep["quotient_dim"] == 0
        model = (x + y) ** q - x ** q - y ** q
        assert _proportional(rep["cocycle_basis"][0], model)
        three, two = pullback_d2(model)
        assert three.is_zero() and two.is_zero()


def test_symmetric_cocycle_is_scaled_coboundary_through_degree_24():
    # the basis vector is ((x+y)^q - x^q - y^q) / q, normalised at x*y^(q-1)
    for q in range(2, 25):
        (f,) = symmetric_2cocycle_report(q)["cocycle_basis"]
        assert f.coeffs == {(a, q - a): Fraction(comb(q, a), q) for a in range(1, q)}


def test_coboundary_line_is_the_certified_kernel_vector():
    # the report reads the coboundary off its kernel; the pullback of x^q is
    # the oracle: zero at q = 1, else q times the basis vector
    for q in range(1, cocycles.MAX_COCYCLE_DEGREE + 1):
        rep = symmetric_2cocycle_report(q)
        coboundary = pullback_d1(PolyFunc.variable(1, 0) ** q)
        assert rep["coboundary_dim"] == (0 if coboundary.is_zero() else 1)
        assert coboundary.coeffs == {k: q * v for f in rep["cocycle_basis"]
                                     for k, v in f.coeffs.items()}


def test_symmetric_cocycle_rejects_bad_degree():
    with pytest.raises(ValueError):
        symmetric_2cocycle_report(0)
    with pytest.raises(ValueError):
        symmetric_2cocycle_report(-2)


def test_hom_column_checks_report():
    rep = hom_column_checks()
    poly = rep["poly_kernel"]
    assert poly["degree_bound"] == 6
    assert poly["dim"] == 1
    assert poly["is_span_of_identity"]
    assert poly["basis"] == ("x",)
    consts = rep["constants"]
    assert consts["injective"]
    assert consts["image_of_unit"] == "-1"
    mahler = rep["mahler_middle"]
    assert mahler["degree_bound"] == 4
    assert mahler["homology_dims"] == (0, 0)
    assert mahler["exact"]
    assert rep["ok"]


def test_budgets_refuse_before_any_matrix(monkeypatch):
    # the largest admitted degrees still answer
    assert symmetric_2cocycle_report(cocycles.MAX_COCYCLE_DEGREE)["quotient_dim"] == 0
    top = cocycles.MAX_COLUMN_DEGREE
    assert hom_column_checks(top, top)["ok"]

    def no_work(*args):
        raise AssertionError("a matrix was built for an over-budget call")

    monkeypatch.setattr(cocycles, "_pullback_rows", no_work)
    with pytest.raises(ValueError, match="MAX_COCYCLE_DEGREE") as refused:
        symmetric_2cocycle_report(cocycles.MAX_COCYCLE_DEGREE + 1)
    assert type(refused.value) is BudgetError
    for a, b in ((top + 1, 1), (1, top + 1), (10**12, 10**12)):
        with pytest.raises(ValueError, match="MAX_COLUMN_DEGREE") as refused:
            hom_column_checks(a, b)
        assert type(refused.value) is BudgetError


def test_hom_column_checks_rejects_non_int_degrees():
    for a, b in ((2.5, 3), (3, "4"), (Fraction(3), 3), (None, 2)):
        with pytest.raises(TypeError):
            hom_column_checks(a, b)


def test_hom_column_checks_rejects_empty_windows():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            hom_column_checks(bad, 4)
        with pytest.raises(ValueError):
            hom_column_checks(6, bad)


@pytest.mark.parametrize("cls", [PolyFunc, MahlerFunc])
def test_pullback_rows_match_public_pullbacks(cls):
    # the integer matrices, read off column by column from the public
    # Fraction-valued pullbacks of each one-key basis function
    for degree in range(1, 7):
        for table, pullback, arity, out_arities in (
            (cocycles._D1, pullback_d1, 1, LEVEL_ARITIES[-1]),
            (cocycles._D2, pullback_d2, 2, LEVEL_ARITIES[-2]),
        ):
            source = cocycles._keys_up_to(arity, degree)
            out_keys = tuple(cocycles._keys_up_to(a, degree) for a in out_arities)
            rows = cocycles._pullback_rows(table, cls, source, out_keys)
            assert all(type(v) is int for row in rows for v in row)
            columns = []
            for key in source:
                images = pullback(cls(arity, {key: 1}))
                images = images if isinstance(images, tuple) else (images,)
                assert all(set(f.coeffs) <= set(keys) for f, keys in zip(images, out_keys))
                columns.append(
                    [f.coeffs.get(k, 0) for f, keys in zip(images, out_keys) for k in keys]
                )
            assert rows == [list(row) for row in zip(*columns)]


def _digest(values):
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode() + b"\n")
    return h.hexdigest()


def test_reports_match_recorded_digests():
    # digests of the reprs written before the pullback matrices were built on
    # integers; repr shows Fraction(...), so a leaked int changes them
    assert _digest(symmetric_2cocycle_report(q) for q in range(1, 33)) == (
        "1f092942a134ce8d66f0df3d6c2da8e4fa583399fa7a8cca71ef5c28229f8dbc"
    )
    assert _digest(hom_column_checks(a, a) for a in range(1, 13)) == (
        "0d687fa1cd4dec5c0289b6b73345d9cd4660d63264b54d8a7a0b7e045ac0b797"
    )


# ------------------------------------------------------------ linear algebra

def _fraction_rref(rows):
    """Gauss-Jordan over Fractions: the reference the kernel basis is read from."""
    rows = [[Fraction(v) for v in row] for row in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, rows


def _rref_kernel(rows, n):
    """The kernel read off the Fraction RREF: free column 1, pivots -red."""
    rank, pivots, red = _fraction_rref(rows)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][free]
        basis.append(vec)
    return basis


def _certificates(monkeypatch, max_q, max_window):
    """(rows, kernel, pivots, report) of every _certify call that the
    symmetric reports up to max_q and hom_column_checks(w, w) up to
    max_window make, in call order."""
    real, calls = cocycles._certify, []

    def spy(*args):
        calls.append(args)
        real(*args)

    with monkeypatch.context() as m:
        m.setattr(cocycles, "_certify", spy)
        for q in range(1, max_q + 1):
            symmetric_2cocycle_report(q)
        for w in range(1, max_window + 1):
            hom_column_checks(w, w)
    return calls


def test_certified_kernels_match_fraction_elimination(monkeypatch):
    # same dimension and same span as the kernel read off the Fraction RREF
    for rows, kernel, _, _ in _certificates(monkeypatch, 16, 8):
        want = _rref_kernel(rows, len(rows[0]))
        assert len(kernel) == len(want)
        assert _fraction_rref(kernel + want)[0] == len(kernel)


def test_certify_refuses_toy_certificates_that_prove_nothing():
    rows = [[1, 0, 0], [0, 0, 0]]
    cocycles._certify(rows, [[0, 1, 0], [0, 0, 2]], {0: 0}, "toy")
    for rows, kernel, pivots in (
        (rows, [[0, 1, 0]], {0: 0}),                 # column 2 has no vector
        (rows, [[0, 1, 1], [0, 0, 0]], {0: 0}),      # a zero vector, one owning two
        (rows, [[0, 1, 0], [0, 3, 0]], {0: 0}),      # two vectors on one column
        (rows, [[0, 1, 0], [0, 0, 1]], {0: 1}),      # a zero pivot
        (rows, [[1, 1, 0], [0, 0, 1]], {}),          # not annihilated
        ([[1, 1], [1, 1]], [], {0: 0, 1: 1}),        # rank 1: not diagonal
    ):
        with pytest.raises(CertificateError, match="^toy: "):
            cocycles._certify(rows, kernel, pivots, "toy")


@pytest.mark.parametrize("component,term", [
    (c, t) for c, terms in enumerate(cocycles._D2) for t in range(len(terms))
])
def test_d2_with_one_sign_flipped_is_refused(monkeypatch, component, term):
    table = [list(terms) for terms in cocycles._D2]
    sign, source, slots = table[component][term]
    table[component][term] = (-sign, source, slots)
    monkeypatch.setattr(cocycles, "_D2", tuple(tuple(terms) for terms in table))
    with pytest.raises(CertificateError, match="symmetric 2-cocycles of degree 4"):
        symmetric_2cocycle_report(4)
    with pytest.raises(CertificateError, match="Mahler d2 up to degree 3"):
        hom_column_checks(3, 3)


def test_kernel_vector_off_by_one_is_refused(monkeypatch):
    for rows, kernel, pivots, report in _certificates(monkeypatch, 8, 5):
        for i, vec in enumerate(kernel):
            for c in range(len(vec)):
                if not any(v for j, v in enumerate(vec) if j != c):
                    continue  # a multiple of vec spans the same line: still true
                bad = [list(v) for v in kernel]
                bad[i][c] += 1
                with pytest.raises(CertificateError, match=re.escape(report)):
                    cocycles._certify(rows, bad, pivots, report)


def test_pivot_sent_to_a_wrong_row_is_refused(monkeypatch):
    # the row of another pivot is zero on the column; a row nonzero on the
    # column and on another pivot column leaves the minor off-diagonal
    for rows, kernel, pivots, report in _certificates(monkeypatch, 8, 5):
        for c, own in pivots.items():
            others = [j for j in pivots if j != c]
            for r, row in enumerate(rows):
                if r != own and (r in pivots.values() or row[c] and any(row[j] for j in others)):
                    with pytest.raises(CertificateError, match=re.escape(report)):
                        cocycles._certify(rows, kernel, {**pivots, c: r}, report)


# ------------------------------------------------------------ sympy oracle

def _engine_matrices(max_q, max_window):
    """The matrices the cocycle reports and hom_column_checks build, in the
    order they build them."""
    for q in range(1, max_q + 1):
        source = cocycles._keys_of_degree(2, q)
        out = (cocycles._keys_of_degree(3, q), cocycles._keys_of_degree(2, q))
        yield cocycles._pullback_rows(cocycles._D2, PolyFunc, source, out), len(source)
    for w in range(1, max_window + 1):
        keys = [cocycles._keys_up_to(a, w) for a in (1, 2, 3)]
        yield cocycles._pullback_rows(cocycles._D1, PolyFunc, keys[0], (keys[1],)), len(keys[0])
        yield cocycles._pullback_rows(cocycles._D1, MahlerFunc, keys[0], (keys[1],)), len(keys[0])
        rows = cocycles._pullback_rows(cocycles._D2, MahlerFunc, keys[1], (keys[2], keys[1]))
        yield rows, len(keys[1])


def test_kernel_basis_against_sympy_nullspace(monkeypatch):
    sympy = pytest.importorskip("sympy")
    certificates = _certificates(monkeypatch, 16, 8)
    assert [c[0] for c in certificates] == [rows for rows, _ in _engine_matrices(16, 8)]
    for rows, kernel, _, _ in certificates:
        M = sympy.Matrix(rows)
        nullspace = [list(v) for v in M.nullspace()]
        assert len(kernel) == len(nullspace) == M.cols - M.rank()
        assert sympy.Matrix(kernel + nullspace).rank() == len(kernel)
