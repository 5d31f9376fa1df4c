"""Expression grammar round trips and error reporting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffcurve import parser
from ffcurve.errors import BudgetError
from ffcurve.parser import ParseError, parse_object, parse_poly, parse_sheaf
from ffcurve.polyring import Poly, T_VAR
from ffcurve.sheaves import CoherentSheaf, O, T, TiltedObject, direct_sum, normalize
from ffcurve.slopes import Slope

import parser_oracle
from gen import random_poly_text, random_sheaf, random_tilted


def test_atom_and_sum():
    F = parse_sheaf("O(1/2)^2 + T(inf,[3,1])")
    assert F == normalize([(Slope(1, 2), 2)], [("inf", (3, 1))])
    assert parse_sheaf("O(2/4)") == O(1, 2)
    assert parse_sheaf("O") == O(0)
    assert parse_sheaf("O^3") == O(0, mult=3)
    assert parse_sheaf("0") == CoherentSheaf.zero()
    assert parse_sheaf("T(∞,[2])") == T([2])
    assert parse_sheaf("O(-3)") == O(-3)
    assert parse_sheaf(" O( -3 / 2 ) ^ 2 ") == O(-3, 2, mult=2)


def test_sum_merges_to_normal_form():
    F = parse_sheaf("O(1) + O(2/2) + T(x0,[1]) + T(x0,[4])")
    assert F == direct_sum(O(1, mult=2), T([4, 1], label="x0"))


def test_tilted_expressions():
    A = parse_object("tilted(O(-1); O(2))")
    assert A == TiltedObject(O(-1), O(2))
    assert parse_object("tilted(0; O)") == TiltedObject(CoherentSheaf.zero(), O(0))
    assert parse_object("tilted(0; 0)") == TiltedObject(CoherentSheaf.zero(), CoherentSheaf.zero())


def test_shift_suffix():
    A = parse_object("O(-1)[1]")
    assert A == TiltedObject(O(-1), CoherentSheaf.zero())
    B = parse_object("O(-3/2)^2[1] + O(1)")
    assert B == TiltedObject(O(-3, 2, mult=2), O(1))


def test_slope_sign_violations():
    with pytest.raises(ParseError):
        parse_object("tilted(O(1); O)")
    with pytest.raises(ParseError):
        parse_object("tilted(O(-1); O(-2))")
    with pytest.raises(ParseError):
        parse_object("tilted(T(inf,[1]); O)")
    with pytest.raises(ParseError):
        parse_object("O(2)[1]")
    with pytest.raises(ParseError):
        parse_object("T(inf,[2])[1]")


def test_parse_errors_carry_positions():
    cases = [
        "",
        "O(",
        "O(1",
        "O(1/)",
        "O(1/0)",
        "O(1)^0",
        "O(1)^-2",
        "T(inf,[])",
        "T(inf,[0])",
        "T(inf,[2)",
        "O(1)+",
        "Q(1)",
        "O(1) O(2)",
        "tilted(O(-1) O)",
        "tilted(O(-1); O(1)) junk",
        "tilted(O(-1)[1]; O)",
    ]
    for text in cases:
        with pytest.raises(ParseError) as info:
            parse_object(text)
        err = info.value
        assert 0 <= err.position <= len(text)
        assert str(err)


def test_nested_tilted_is_refused_at_the_inner_keyword():
    with pytest.raises(ParseError) as info:
        parse_object("tilted(tilted(O(-1); O); O)")
    assert str(info.value) == "parse error at position 7: expected an atom: O(...), T(...), or 0"


def test_parse_sheaf_rejects_tilted():
    with pytest.raises(ParseError):
        parse_sheaf("tilted(O(-1); O)")
    with pytest.raises(ParseError):
        parse_sheaf("O(-1)[1]")


def test_round_trip_random_objects():
    rng = random.Random(7)
    for _ in range(300):
        F = random_sheaf(rng, allow_zero=True)
        assert parse_object(str(F)) == F
    for _ in range(300):
        A = random_tilted(rng)
        assert parse_object(str(A)) == A


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_round_trip_over_generator_seeds(seed, tilted):
    rng = random.Random(seed)
    x = random_tilted(rng) if tilted else random_sheaf(rng, allow_zero=True)
    assert parse_object(str(x)) == x


# ------------------------------------------------------------------ poly side

def test_poly_parsing():
    t = T_VAR
    assert parse_poly("t^2 - 2*t + 1") == (t - 1) ** 2
    assert parse_poly("1/2*t") == Poly((0, Fraction(1, 2)))
    assert parse_poly("-3/2*t") == Poly((0, Fraction(-3, 2)))
    assert parse_poly("3") == Poly.const(3)
    assert parse_poly("-(t+1)*(t-1)") == -(t * t - 1)
    assert parse_poly("2*(t+1)^2") == 2 * (t + 1) * (t + 1)
    assert parse_poly(" t ") == t
    assert parse_poly("t*t*t") == t ** 3


def test_poly_parse_errors():
    for text in ["", "t t", "t^-1", "t^", "1/0", "2t", "(t", "t+", "*t", "t/2"]:
        with pytest.raises(ParseError):
            parse_poly(text)


def test_poly_budgets():
    t = T_VAR
    top = parser.MAX_POLY_DEGREE
    assert parse_poly("t^%d" % top) == Poly([0] * top + [1])
    assert parse_poly("t^%d*t^%d" % (top // 2, top - top // 2)).degree == top
    assert parse_poly("0^999999999999") == Poly()
    assert parse_poly("2^%d" % (parser.MAX_POLY_BITS // 2)) == 2 ** (parser.MAX_POLY_BITS // 2)
    for text, budget in (
        ("t^%d" % (top + 1), "MAX_POLY_DEGREE"),
        ("(t+1)^999999999999", "MAX_POLY_DEGREE"),
        ("t^%d*t" % top, "MAX_POLY_DEGREE"),
        ("t*(t^%d)" % top, "MAX_POLY_DEGREE"),
        ("2^%d" % (parser.MAX_POLY_BITS // 2 + 1), "MAX_POLY_BITS"),
        ("((2^64)^64)^64", "MAX_POLY_BITS"),
        ("(12345678901*t + 1)^%d" % top, "MAX_POLY_BITS"),
    ):
        with pytest.raises(ValueError, match=budget) as refused:
            parse_poly(text)
        assert type(refused.value) is BudgetError
    assert parse_poly("(t - 1/2)^7") == (t - Fraction(1, 2)) * (t - Fraction(1, 2)) ** 6


def test_poly_round_trip():
    rng = random.Random(9)
    for _ in range(200):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))]
        p = Poly(coeffs)
        assert parse_poly(str(p)) == p


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 60)), max_size=8))
def test_poly_round_trip_hypothesis(coeffs):
    p = Poly(coeffs)
    assert parse_poly(str(p)) == p


def test_deep_parentheses_parse_without_recursion():
    # each level's unary minus and power apply when its ")" closes
    for depth in (399, 10000):
        want = -T_VAR if depth % 2 else T_VAR
        assert parse_poly("-(" * depth + "t" + ")^1" * depth) == want


# ---------------------------------------------- agreement with the old parser

# edits over the grammar's characters and the lexical edge cases: a digit
# int() refuses, a vulgar fraction, decimal digits of other scripts, the
# infinity label, a stray symbol, a no-break space and a tab
_EDIT_CHARS = list("OTtx_()[]^+;,/-*0127 ") + ["²", "½", "٣", "𝟘", "∞", "#", "\xa0", "\t"]
_PARSERS = [(getattr(parser, name), getattr(parser_oracle, name))
            for name in ("parse_object", "parse_sheaf", "parse_poly")]


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def _base_text(kind, rng):
    if kind == "sheaf":
        return str(random_sheaf(rng, allow_zero=True))
    if kind == "tilted":
        return str(random_tilted(rng))
    return random_poly_text(rng)


# every rule's errors, and the lexical edge cases, written out
_CORPUS = [
    "", "O(", "O(1", "O(1/)", "O(1/0)", "O(1)^0", "O(1)^-2", "O(-1/-2)", "O(-)", "T(inf,[])",
    "T(inf,[0])", "T(inf,[-1])", "T(inf,[2)", "T(inf,[2]", "T(2,[1])", "T(x[1])", "T x",
    "T(x,1)", "O(1)+", "Q(1)", "O(1) O(2)", "tilted", "tilted O", "tilted(O(-1) O)",
    "tilted(O(-1); O(1)) junk", "tilted(O(-1)[1]; O)", "tilted(O(-1); O", "O(-1)[2]",
    "O(-1)[01]", "O(-1)[x]", "O(-1)[1", "O(-1)[1] + T(x,[1])[1]", "0[1]", "00", "O(1)[1]",
    "O(²)", "O(3)^²", "T(x,[¹])", "T(x²,[1])", "O(٣)", "O(𝟘)", "T(∞,[2])", "T(_,[1])",
    "O(1)#", "#O(1)", "O\xa0(1)", "O(\t1)", "½", "x½", "1½", "O(1)\u0301",
    "t t", "t^-1", "t^", "t^x", "t^2^3", "1/0", "1/x", "2t", "(t", "t+", "*t", "t/2", "--t",
    "-(t", "(t))", "t)", "2*-t", "t^17", "(t+1)^999999999999", "2^129", "t^16*t",
    "1" * 5000, "O(%s)" % ("1" * 5000), "O(-1)[%s]" % ("1" * 5000),
    # a misfit after the point where a rule fails or a budget runs out
    "O(1) O(2) #", "T(#,[1])", "T(²x,[1])", "t^17 #", "t^17 ²", "O(%s)#" % ("1" * 5000),
]


def test_corpus_agrees_with_the_character_loop_oracle():
    for text in _CORPUS:
        for new, old in _PARSERS:
            assert _outcome(new, text) == _outcome(old, text), text


@settings(max_examples=600, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(("sheaf", "tilted", "poly")),
    st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                       st.sampled_from(("insert", "delete", "replace")),
                       st.sampled_from(_EDIT_CHARS)), max_size=3),
)
def test_parsers_agree_with_the_character_loop_oracle(seed, kind, edits):
    # the same values, or the same exception type and message (position and
    # the budget ValueErrors included), from all three entry points
    text = _base_text(kind, random.Random(seed))
    for at, op, char in edits:
        at %= len(text) + 1
        rest = text[at:] if op == "insert" else text[at + 1:]
        text = text[:at] + ("" if op == "delete" else char) + rest
    for new, old in _PARSERS:
        assert _outcome(new, text) == _outcome(old, text), text
