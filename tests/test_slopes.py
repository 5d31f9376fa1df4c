"""Slope arithmetic: reduction, ordering, and stable Hom data.

Expected values for the derived cases were computed independently (rank and
degree bookkeeping over Fraction) before the implementation existed and are
frozen here as literals.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ffcurve.slopes import INFINITY, Slope, hom_slope_data, reduce


@pytest.mark.parametrize(
    "d,h,expect",
    [
        (2, 4, (1, 2)),
        (0, 5, (0, 1)),
        (-3, 2, (-3, 2)),
        (6, 3, (2, 1)),
        (-4, 6, (-2, 3)),
    ],
)
def test_reduce_examples(d, h, expect):
    s = reduce(d, h)
    assert (s.d, s.h) == expect


def test_reduce_rejects_bad_denominator():
    with pytest.raises(ValueError):
        reduce(1, 0)
    with pytest.raises(ValueError):
        reduce(1, -2)


@given(st.integers(-50, 50), st.integers(1, 50))
def test_reduce_idempotent_and_value_preserving(d, h):
    s = reduce(d, h)
    assert reduce(s.d, s.h) == s
    assert Fraction(s.d, s.h) == Fraction(d, h)
    # canonical form is coprime with positive denominator
    from math import gcd

    assert s.h >= 1 and gcd(abs(s.d), s.h) == 1


def test_total_order_with_infinity_maximal():
    xs = [reduce(1, 2), reduce(-3, 2), INFINITY, reduce(0, 1), reduce(2, 1)]
    xs.sort()
    assert xs[-1] is INFINITY
    assert [(-3, 2), (0, 1), (1, 2), (2, 1)] == [(s.d, s.h) for s in xs[:-1]]
    assert INFINITY > reduce(10**6, 1)
    assert not (INFINITY < INFINITY)
    assert INFINITY <= INFINITY


_FINITE = st.builds(Slope, st.integers(-10**30, 10**30), st.integers(1, 10**12))
# INFINITY, and a finite slope again under a common factor, so ties are drawn too
_SLOPES = st.lists(
    st.one_of(_FINITE, st.just(INFINITY),
              st.builds(lambda s, k: Slope(s.d * k, s.h * k), _FINITE, st.integers(1, 10**6))),
    min_size=2, max_size=8,
)


def _rational_key(s):
    # the reference order: Fractions, with INFINITY above every one of them
    return (1, Fraction(0)) if s is INFINITY else (0, Fraction(s.d, s.h))


@given(_SLOPES)
def test_order_matches_fraction_order(slopes):
    for a in slopes:
        for b in slopes:
            ka, kb = _rational_key(a), _rational_key(b)
            assert (a < b, a <= b, a > b, a >= b, a == b) == (
                ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb)
    assert [_rational_key(s) for s in sorted(slopes)] == sorted(map(_rational_key, slopes))


def test_slope_value_and_text():
    assert type(reduce(1, 2).value) is Fraction
    assert reduce(1, 2).value == Fraction(1, 2)
    assert str(reduce(-3, 2)) == "-3/2"
    assert str(reduce(4, 1)) == "4"
    assert str(INFINITY) == "inf"
    assert not INFINITY.is_finite
    with pytest.raises(ValueError):
        INFINITY.value


@pytest.mark.parametrize(
    "lam,mu,expect_nu,expect_m",
    [
        # line-bundle case
        ((0, 1), (1, 1), (1, 1), 1),
        # rank oracle: 2*2 = m*1
        ((1, 2), (1, 2), (0, 1), 4),
        # rank oracle: 2*3 = m*6
        ((1, 2), (1, 3), (-1, 6), 1),
    ],
)
def test_hom_slope_data_examples(lam, mu, expect_nu, expect_m):
    nu, m = hom_slope_data(reduce(*lam), reduce(*mu))
    assert (nu.d, nu.h) == expect_nu
    assert m == expect_m


def test_hom_slope_data_rejects_torsion_slope():
    with pytest.raises(ValueError):
        hom_slope_data(INFINITY, reduce(0, 1))
    with pytest.raises(ValueError):
        hom_slope_data(reduce(0, 1), INFINITY)


@given(st.integers(-12, 12), st.integers(1, 12), st.integers(-12, 12), st.integers(1, 12))
def test_hom_slope_data_rank_and_degree_identities(a, b, c, d):
    lam, mu = reduce(a, b), reduce(c, d)
    nu, m = hom_slope_data(lam, mu)
    assert nu.value == mu.value - lam.value
    # rank identity
    assert lam.h * mu.h == m * nu.h
    # degree identity
    assert Fraction(lam.h * mu.h) * (mu.value - lam.value) == m * nu.d


@given(st.integers(-12, 12), st.integers(1, 12))
def test_hom_slope_data_diagonal(a, b):
    lam = reduce(a, b)
    nu, m = hom_slope_data(lam, lam)
    assert (nu.d, nu.h) == (0, 1)
    assert m == lam.h * lam.h


@given(_FINITE, _FINITE)
def test_hom_slope_data_matches_fraction_difference(lam, mu):
    # the integer difference against an independent Fraction subtraction
    nu, m = hom_slope_data(lam, mu)
    diff = Fraction(mu.d, mu.h) - Fraction(lam.d, lam.h)
    assert (nu.d, nu.h) == (diff.numerator, diff.denominator)
    assert m * nu.h == lam.h * mu.h


@pytest.mark.parametrize("s", [Slope(3, 2), INFINITY], ids=["finite", "infinity"])
def test_slope_refuses_assignment_and_deletion(s):
    for name in ("d", "h"):
        with pytest.raises(AttributeError, match="Slope is immutable"):
            setattr(s, name, 3)
        with pytest.raises(AttributeError, match="Slope is immutable"):
            delattr(s, name)
    # the fields survive both refusals, so comparisons still work
    assert (s.d, s.h) == ((3, 2) if s.is_finite else (1, 0))
    assert Slope(1, 1) < s
