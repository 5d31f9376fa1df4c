"""Expression grammar for sheaves, tilted objects, and Q[t] polynomials.

Sheaf grammar:

    object := "tilted" "(" sum ";" sum ")" | sum
    sum    := item ("+" item)*
    item   := atom ["[1]"]                 (shift suffix, top level only)
    atom   := "O" ["(" int ["/" posint] ")"] ["^" posint]
            | "T" "(" label ",[" int ("," int)* "])"
            | "0"

Q[t] grammar:

    poly   := term (("+" | "-") term)*
    term   := unary ("*" unary)*
    unary  := ["-"] factor
    factor := base ["^" number]
    base   := number ["/" number] | "t" | "(" poly ")"

Lexical rules: whitespace (str.isspace) separates tokens. A number is a run
of Unicode decimal digits, read as int() reads it, so "٣" is 3. A name starts
with a letter or "_" and goes on over letters, digits and "_" (str.isalnum):
a torsion label, such as "x²", by sheaves._is_label; "∞" is an alias of "inf".
The symbols are ( ) [ ] ^ + ; , / - *. Any other character is an error, and
so is a numeral that is no decimal digit, such as "²" or "½", where a token
starts; the first one is reported before any grammar error.

The printed normal forms of CoherentSheaf and TiltedObject parse back to
equal objects. Errors carry the offending position in the input string, as
an offset in code points.
"""

from __future__ import annotations

import re
from functools import cache
from typing import TYPE_CHECKING

from .errors import ParseError, _check_budget

if TYPE_CHECKING:
    from .polyring import Poly
    from .sheaves import CoherentSheaf, TiltedObject


@cache
def _sheaves():
    """The sheaves module, imported by the first sheaf parse, so that
    parse_poly loads none of it. It is kept, not looked up on each parse: if
    ffcurve is dropped from sys.modules and imported again, this parser still
    builds the classes that the modules imported beside it check for."""
    from . import sheaves

    return sheaves


@cache
def _polyring():
    """The polyring module, imported by the first Q[t] parse, so that sheaf
    parses compile none of it; kept for the reason _sheaves gives."""
    from . import polyring

    return polyring


#: one token: a run of decimal digits, a run of word characters that starts
#: with no decimal digit (a name, unless it starts with a numeral such as
#: "²"), or any other character but whitespace
_TOKEN = re.compile(r"\d+|[^\W\d]\w*|\S")
#: the first characters of a well-formed token besides letters and digits
_STARTS = frozenset("()[]^+;,/-*_∞")

#: work budgets of parse_poly, checked before each product and power: the
#: degree of the result, and for a power the exponent times the bit length of
#: the base's largest numerator or denominator. The library's Q[t] Smith forms
#: set them (no CLI verb runs one): two elements at this edge take 0.4 s there.
MAX_POLY_DEGREE = 16
MAX_POLY_BITS = 256


# Grammar rules take the token list, ended by "", and an index and return
# (value, next index); they raise ParseError at a token index, turned into a
# text offset by _parse_whole.


def _expect(toks, i, tok: str, what: str) -> int:
    """The index after toks[i], which must be tok."""
    if toks[i] != tok:
        raise ParseError("expected %s" % what, i)
    return i + 1


def _number(toks, i, what: str) -> int:
    if not toks[i].isdecimal():
        raise ParseError("expected %s" % what, i)
    return int(toks[i])


# ------------------------------------------------------------------ sheaf side


def _signed_int(toks, i):
    if toks[i] == "-":
        return -_number(toks, i + 1, "an integer"), i + 2
    return _number(toks, i, "an integer"), i + 1


def _positive_int(toks, i, what: str):
    value = 0 if toks[i] == "-" else _number(toks, i, what)
    if value < 1:
        raise ParseError("%s must be positive" % what, i)
    return value, i + 1


def _torsion_factor(toks, i):
    value, j = _signed_int(toks, i)
    if value < 1:
        raise ParseError("torsion factors must be positive", i)
    return value, j


def _sum(toks, i, allow_shift: bool):
    """A sum's sheaf, or its tilted object when an item carries [1]; the raw
    atoms of each part, shifted or not, go to one normalize."""
    sheaves = _sheaves()
    start = i
    plain, shifted = ([], []), ([], [])  # (bundle, torsion) raw atoms
    any_shift = False
    while True:
        tok = toks[i]
        if tok == "O":
            d, h, mult = 0, 1, 1
            i += 1
            if toks[i] == "(":
                d, i = _signed_int(toks, i + 1)
                if toks[i] == "/":
                    h, i = _positive_int(toks, i + 1, "fraction denominator")
                i = _expect(toks, i, ")", "')'")
            if toks[i] == "^":
                mult, i = _positive_int(toks, i + 1, "multiplicity")
            kind, atom = 0, ((d, h), mult)
        elif tok == "T":
            i = _expect(toks, i + 1, "(", "'(' after T")
            label = toks[i]
            if not sheaves._is_label(label):
                raise ParseError("expected a torsion label", i)
            i = _expect(toks, _expect(toks, i + 1, ",", "','"), "[", "'['")
            factor, i = _torsion_factor(toks, i)
            factors = [factor]
            while toks[i] == ",":
                factor, i = _torsion_factor(toks, i + 1)
                factors.append(factor)
            i = _expect(toks, _expect(toks, i, "]", "']'"), ")", "')'")
            kind, atom = 1, (label, factors)
        elif tok == "0":
            i += 1
            atom = None
        else:
            raise ParseError("expected an atom: O(...), T(...), or 0", i)
        part = plain
        if toks[i] == "[":
            if not allow_shift:
                raise ParseError("shift suffix is not allowed here", i)
            if not toks[i + 1].isdecimal():
                raise ParseError("expected the shift amount 1", i + 1)
            if toks[i + 1] != "1":
                raise ParseError("only the shift [1] occurs in the tilted heart", i + 1)
            i = _expect(toks, i + 2, "]", "']'")
            part, any_shift = shifted, True
        if atom is not None:
            part[kind].append(atom)
        if toks[i] != "+":
            break
        i += 1
    pos = sheaves.normalize(*plain)
    if not any_shift:
        return pos, i
    try:
        return sheaves.TiltedObject(sheaves.normalize(*shifted), pos), i
    except ValueError as exc:
        raise ParseError(str(exc), start) from None


def _object(toks, i):
    if toks[i] != "tilted":
        return _sum(toks, i, allow_shift=True)
    neg, j = _sum(toks, _expect(toks, i + 1, "(", "'(' after tilted"), allow_shift=False)
    pos, j = _sum(toks, _expect(toks, j, ";", "';' between the two parts"), allow_shift=False)
    j = _expect(toks, j, ")", "')'")
    try:
        return _sheaves().TiltedObject(neg, pos), j
    except ValueError as exc:
        raise ParseError(str(exc), i) from None


def _sheaf(toks, i):
    if toks[i] == "tilted":
        raise ParseError("expected a sheaf expression, not a tilted one", i)
    return _sum(toks, i, allow_shift=False)


# ------------------------------------------------------------------- poly side


def _poly(toks, i):
    """The Q[t] grammar without recursion: each "(" saves the enclosing
    level's sum, its sign, its product and its unary minus on a stack, so that
    nesting depth costs no Python frames. Sums, products and powers are formed
    as soon as their right operand ends, in the order a recursive descent
    forms them, so each budget check sees the same operands."""
    polyring = _polyring()
    stack = []
    total = sign = prod = None
    while True:
        neg = toks[i] == "-"
        i += neg
        tok = toks[i]
        if tok == "(":
            stack.append((total, sign, prod, neg))
            total = sign = prod = None
            i += 1
            continue
        if tok.isdecimal():
            value = int(tok)
            i += 1
            if toks[i] == "/":
                den = _number(toks, i + 1, "a denominator")
                if den == 0:
                    raise ParseError("zero denominator", i + 1)
                i += 2
                from fractions import Fraction
                value = Fraction(value, den)
            node = polyring.Poly.const(value)
        elif tok == "t":
            node = polyring.T_VAR
            i += 1
        else:
            raise ParseError("expected a number, t, or a parenthesized expression", i)
        while True:  # the factor, unary, term and sum this base ends
            if toks[i] == "^":
                if toks[i + 1] == "-":
                    raise ParseError("exponents must be non-negative", i + 1)
                n = _number(toks, i + 1, "an exponent")
                i += 2
                bits = max((max(abs(c.numerator), c.denominator).bit_length()
                            for c in node.coeffs), default=0)
                _check_budget(n * node.degree, "MAX_POLY_DEGREE", MAX_POLY_DEGREE, "degree %d is")
                _check_budget(n * bits, "MAX_POLY_BITS", MAX_POLY_BITS, "coefficient bits %d is")
                node = node ** n
            if neg:
                node = -node
            if prod is not None:
                _check_budget(prod.degree + node.degree, "MAX_POLY_DEGREE", MAX_POLY_DEGREE,
                              "degree %d is")
                node = prod * node
            if toks[i] == "*":
                prod = node
                i += 1
                break
            if total is not None:
                node = total + node if sign == "+" else total - node
            if toks[i] == "+" or toks[i] == "-":
                total, sign, prod = node, toks[i], None
                i += 1
                break
            if not stack:
                return node, i
            i = _expect(toks, i, ")", "')'")
            total, sign, prod, neg = stack.pop()


def _parse_whole(text: str, rule):
    """Run one grammar rule over the whole text; trailing input is an error.

    One regex scan gives the token strings. A rule takes a token only when it
    is well formed, a number by isdecimal and a name by its first character,
    so a text that parses holds no misfit: the tokens are searched for one,
    and their code-point offsets found by a second scan, only when a rule
    raises. The first misfit then wins over the rule's error, as if the text
    had been checked before any rule ran."""
    toks = _TOKEN.findall(text)
    toks.append("")
    try:
        result, i = rule(toks, 0)
        if not toks[i]:
            return result
        raise ParseError("unexpected trailing input", i)
    except (ParseError, ValueError) as exc:
        starts = [m.start() for m in _TOKEN.finditer(text)]
        starts.append(len(text))
        for k, tok in enumerate(toks[:-1]):
            c = tok[0]
            if not (c in _STARTS or c.isalpha() or c.isdecimal()):
                raise ParseError("unexpected character %r" % c, starts[k]) from None
        if isinstance(exc, ParseError):
            exc.position = starts[exc.position]
        raise


def parse_object(text: str):
    """Parse a sheaf or tilted-heart expression to its normal form."""
    return _parse_whole(text, _object)


def parse_sheaf(text: str) -> CoherentSheaf:
    """Parse a plain sheaf expression; tilted forms and shifts are rejected."""
    return _parse_whole(text, _sheaf)


def parse_poly(text: str) -> Poly:
    """Parse an element of Q[t]: integers, fractions, t, + - * ^ and parens.

    A product or power whose degree is over MAX_POLY_DEGREE, or a power whose
    exponent times the base's coefficient bits is over MAX_POLY_BITS, raises
    errors.BudgetError, a ValueError."""
    return _parse_whole(text, _poly)
