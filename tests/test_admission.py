"""What the library admits: one integer rule, one torsion-label rule and one
work-budget rule (ffcurve.errors._check_int, sheaves._is_label,
errors._check_budget), applied at every constructor and entry point.

The property draws arguments from ints, bools, floats, Fractions, numeric
strings, names and arbitrary text; each call must refuse with TypeError or
ValueError, or return values that print and parse back exactly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffcurve import cocycles, derham
from ffcurve.complexes import ShiftProfile
from ffcurve.errors import BudgetError, _check_budget, _check_int
from ffcurve.exactalg import INTEGERS, POLY_OVER_RATIONALS, RATIONALS, mat
from ffcurve.parser import parse_object, parse_poly
from ffcurve.polyring import Poly
from ffcurve.sheaves import CoherentSheaf, O, T, direct_sum, normalize
from ffcurve.slopes import Slope, reduce

#: small ints keep the de Rham and cocycle entry points fast; 10**9 is over
#: every work budget, which refuses it before any work
_INTS = st.integers(-2, 4) | st.just(10**9)
_ANY = st.one_of(
    _INTS,
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(max_denominator=5),
    _INTS.map(str),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["x)", "", "a b", "1x", "²", "x,[2]) + O(5", "∞x"]),
)
#: names by the regex that the parser's tokens follow, and the alias of inf
_NAMES = st.from_regex(r"[^\W\d]\w{0,3}", fullmatch=True) | st.sampled_from(["inf", "∞"])


def _mostly(good):
    """Draws from good three times in four, else from _ANY: calls with every
    argument admitted, whose values are checked, stay common."""
    return st.sampled_from([good] * 3 + [_ANY]).flatmap(lambda kind: kind)


_INT = _mostly(_INTS)
_FACTORS = _mostly(st.lists(_mostly(st.integers(1, 4)), min_size=1, max_size=3))


@st.composite
def _calls(draw):
    """One (function, arguments) pair."""
    v = lambda: draw(_INT)  # noqa: E731
    kind = draw(st.sampled_from([
        "O", "T", "normalize", "Slope", "reduce", "qp", "ga", "cocycle", "columns",
        "profile", "Poly", "const", "mat",
    ]))
    if kind == "O":
        return O, (v(), v(), v())
    if kind == "T":
        return T, (draw(_FACTORS), draw(_mostly(_NAMES)))
    if kind == "normalize":
        bundle = draw(st.lists(st.tuples(st.tuples(_INT, _INT), _INT), max_size=2))
        torsion = draw(st.lists(st.tuples(_mostly(_NAMES), _FACTORS), max_size=2))
        return normalize, (bundle, torsion)
    if kind in ("Slope", "reduce"):
        return (Slope if kind == "Slope" else reduce), (v(), v())
    if kind in ("qp", "ga"):
        return (derham.qp_cohomology if kind == "qp" else derham.ga_cohomology), (v(), v())
    if kind == "cocycle":
        return cocycles.symmetric_2cocycle_report, (v(),)
    if kind == "columns":
        return cocycles.hom_column_checks, (v(), v())
    if kind == "profile":
        return ShiftProfile, (v(), tuple(draw(st.lists(_INT, max_size=2))))
    exact = _mostly(_INTS | st.fractions(max_denominator=5))
    if kind == "Poly":
        return Poly, (draw(st.lists(exact, max_size=3)),)
    if kind == "const":
        return Poly.const, (draw(exact),)
    dom = draw(st.sampled_from([INTEGERS, RATIONALS, POLY_OVER_RATIONALS]))
    return mat, (dom, [draw(st.lists(exact, min_size=1, max_size=2))])


def _check_sheaf(F):
    assert type(F.rank) is int and type(F.degree) is int
    assert parse_object(str(F)) == F


@settings(max_examples=300, deadline=None)
@given(_calls())
def test_entry_points_refuse_or_return_exact_printable_values(call):
    fn, args = call
    try:
        out = fn(*args)
    except (TypeError, ValueError):
        return
    if isinstance(out, CoherentSheaf):
        _check_sheaf(out)
        # a sum of admitted sheaves is admitted
        _check_sheaf(direct_sum(out, out, O(1)))
    elif isinstance(out, Slope):
        assert type(out.d) is int and type(out.h) is int and out.h >= 1
    elif isinstance(out, Poly):
        assert parse_poly(str(out)) == out
    elif fn is mat:
        kind = {INTEGERS: int, RATIONALS: Fraction, POLY_OVER_RATIONALS: Poly}[args[0]]
        assert all(type(x) is kind for row in out.data for x in row)
    elif isinstance(out, ShiftProfile):
        assert type(out.lo) is int and all(type(x) is int for x in out.values)
    elif isinstance(out, derham.QpCohomology):
        assert type(out.n) is int and type(out.D) is int
    elif isinstance(out, dict) and "q" in out:
        assert type(out["q"]) is int


@pytest.mark.parametrize("call", [
    "normalize([((1, 2), 1.5)], [])", "T([1.7])", "T(['3'])", "O(True)", "O(1, mult=2.0)",
    "T([1], 'x)')", "T([1], '')", "T([1], 'x,[2]) + O(5')", "T([1], 5)", "T([1], ['x'])",
    "derham.qp_cohomology(True, 2)", "cocycles.symmetric_2cocycle_report(True)",
    "ShiftProfile(0, (1.5,))", "Poly([0.1])", "Poly(['1/2'])", "mat(RATIONALS, [[0.5]])",
    "mat(POLY_OVER_RATIONALS, [[True]])",
])
def test_refused(call):
    with pytest.raises((TypeError, ValueError)):
        eval(call)


def test_labels_that_print_parse_back():
    for label in ("x", "_", "x²", "T", "O", "tilted", "ǅa1"):
        F = T([2, 1], label)
        assert parse_object(str(F)) == F
    assert T([1], "∞") == T([1], "inf") == T([1])


def test_equality_with_a_refused_number_is_false_not_an_error():
    one = Poly.const(1)
    assert one == 1 and one == Fraction(1) and Fraction(1) == one
    assert one != True and one != 1.0 and one != "1" and one != None  # noqa: E711, E712
    with pytest.raises(TypeError):
        one + True


def test_the_rules():
    assert _check_int(3, "n", 1) == 3 and _check_int(Fraction(1, 2), "c", also=(Fraction,))
    for bad in (True, 1.0, "1", None, Fraction(1)):
        with pytest.raises(TypeError, match="n must be an int"):
            _check_int(bad, "n")
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        _check_int(0, "n", 1)
    _check_budget(5, "CAP", 5, "%d things are")
    with pytest.raises(BudgetError, match="^6 things are over the budget CAP = 5$"):
        _check_budget(6, "CAP", 5, "%d things are")
    with pytest.raises(BudgetError, match="^n = 1, D = 2 is over the budget CAP = 0$"):
        _check_budget(1, "CAP", 0, "n = %d, D = %d is", 1, 2)
    assert issubclass(BudgetError, ValueError)
