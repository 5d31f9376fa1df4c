"""The character-loop parser that ffcurve.parser replaced, kept as a test
oracle: the same grammar over (kind, text, position) tokens, recursive descent
on both sides, one O() or T() per atom and a direct_sum per sum. Its
_tokenize and _Parser are the old code unchanged; the property test in
test_parser.py checks that the regex-token parser gives the same values and
the same errors on every input."""

from __future__ import annotations

from ffcurve import polyring, sheaves
from ffcurve.errors import ParseError, _check_budget
from ffcurve.parser import MAX_POLY_BITS, MAX_POLY_DEGREE

_SYMBOLS = set("()[]^+;,/-*")


def _sheaves():
    return sheaves


def _polyring():
    return polyring


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
            continue
        if ch == "∞":
            tokens.append(("name", "∞", i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def fail(self, message: str, position=None):
        if position is None:
            position = self.peek()[2]
        raise ParseError(message, position)

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            self.fail("expected %s" % what)
        return self.advance()

    def at_end(self) -> bool:
        return self.peek()[0] == "end"

    # ---------------------------------------------------------- sheaf side

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.expect("number", "an integer")
        return sign * int(tok[1])

    def positive_int(self, what: str) -> int:
        tok = self.peek()
        if tok[0] == "-":
            self.fail("%s must be positive" % what)
        tok = self.expect("number", what)
        value = int(tok[1])
        if value < 1:
            self.fail("%s must be positive" % what, tok[2])
        return value

    def atom(self) -> CoherentSheaf:
        sheaves = _sheaves()
        tok = self.peek()
        if tok[0] == "name" and tok[1] == "O":
            self.advance()
            d, h = 0, 1
            if self.peek()[0] == "(":
                self.advance()
                d = self.signed_int()
                if self.peek()[0] == "/":
                    self.advance()
                    h = self.positive_int("fraction denominator")
                self.expect(")", "')'")
            mult = 1
            if self.peek()[0] == "^":
                self.advance()
                mult = self.positive_int("multiplicity")
            return sheaves.O(d, h, mult=mult)
        if tok[0] == "name" and tok[1] == "T":
            self.advance()
            self.expect("(", "'(' after T")
            label = self.expect("name", "a torsion label")[1]
            self.expect(",", "','")
            self.expect("[", "'['")
            factors = [self.torsion_factor()]
            while self.peek()[0] == ",":
                self.advance()
                factors.append(self.torsion_factor())
            self.expect("]", "']'")
            self.expect(")", "')'")
            return sheaves.T(tuple(factors), label=label)
        if tok[0] == "number" and tok[1] == "0":
            self.advance()
            return sheaves.CoherentSheaf.zero()
        self.fail("expected an atom: O(...), T(...), or 0")

    def torsion_factor(self) -> int:
        tok = self.peek()
        value = self.signed_int()
        if value < 1:
            self.fail("torsion factors must be positive", tok[2])
        return value

    def item(self, allow_shift: bool):
        sheaf = self.atom()
        shifted = False
        if self.peek()[0] == "[":
            if not allow_shift:
                self.fail("shift suffix is not allowed here")
            self.advance()
            tok = self.expect("number", "the shift amount 1")
            if tok[1] != "1":
                self.fail("only the shift [1] occurs in the tilted heart", tok[2])
            self.expect("]", "']'")
            shifted = True
        return sheaf, shifted

    def sum_expr(self, allow_shift: bool):
        sheaves = _sheaves()
        start = self.peek()[2]
        items = [self.item(allow_shift)]
        while self.peek()[0] == "+":
            self.advance()
            items.append(self.item(allow_shift))
        if not any(shifted for _, shifted in items):
            return sheaves.direct_sum(*[sheaf for sheaf, _ in items])
        neg = sheaves.direct_sum(*[sheaf for sheaf, shifted in items if shifted])
        pos = sheaves.direct_sum(*[sheaf for sheaf, shifted in items if not shifted])
        try:
            return sheaves.TiltedObject(neg, pos)
        except ValueError as exc:
            self.fail(str(exc), start)

    def tilted_expr(self) -> TiltedObject:
        sheaves = _sheaves()
        start = self.peek()[2]
        self.advance()  # the "tilted" keyword
        self.expect("(", "'(' after tilted")
        neg = self.sum_expr(allow_shift=False)
        if isinstance(neg, sheaves.TiltedObject):
            self.fail("nested tilted expressions are not allowed", start)
        self.expect(";", "';' between the two parts")
        pos = self.sum_expr(allow_shift=False)
        if isinstance(pos, sheaves.TiltedObject):
            self.fail("nested tilted expressions are not allowed", start)
        self.expect(")", "')'")
        try:
            return sheaves.TiltedObject(neg, pos)
        except ValueError as exc:
            self.fail(str(exc), start)

    def object_expr(self):
        if self.peek()[:2] == ("name", "tilted"):
            return self.tilted_expr()
        return self.sum_expr(allow_shift=True)

    def sheaf_expr(self) -> CoherentSheaf:
        if self.peek()[:2] == ("name", "tilted"):
            self.fail("expected a sheaf expression, not a tilted one")
        return self.sum_expr(allow_shift=False)

    # ----------------------------------------------------------- poly side

    def poly_expr(self) -> Poly:
        node = self.poly_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.poly_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def poly_term(self) -> Poly:
        node = self.poly_unary()
        while self.peek()[0] == "*":
            self.advance()
            rhs = self.poly_unary()
            _check_budget(node.degree + rhs.degree, "MAX_POLY_DEGREE", MAX_POLY_DEGREE,
                          "degree %d is")
            node = node * rhs
        return node

    def poly_unary(self) -> Poly:
        if self.peek()[0] == "-":
            self.advance()
            return -self.poly_factor()
        return self.poly_factor()

    def poly_factor(self) -> Poly:
        base = self.poly_base()
        if self.peek()[0] == "^":
            self.advance()
            if self.peek()[0] == "-":
                self.fail("exponents must be non-negative")
            n = int(self.expect("number", "an exponent")[1])
            bits = max((max(abs(c.numerator), c.denominator).bit_length()
                        for c in base.coeffs), default=0)
            _check_budget(n * base.degree, "MAX_POLY_DEGREE", MAX_POLY_DEGREE, "degree %d is")
            _check_budget(n * bits, "MAX_POLY_BITS", MAX_POLY_BITS, "coefficient bits %d is")
            return base ** n
        return base

    def poly_base(self) -> Poly:
        polyring = _polyring()
        tok = self.peek()
        if tok[0] == "number":
            self.advance()
            value = int(tok[1])
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("number", "a denominator")
                den = int(den_tok[1])
                if den == 0:
                    self.fail("zero denominator", den_tok[2])
                from fractions import Fraction
                return polyring.Poly.const(Fraction(value, den))
            return polyring.Poly.const(value)
        if tok[0] == "name" and tok[1] == "t":
            self.advance()
            return polyring.T_VAR
        if tok[0] == "(":
            self.advance()
            node = self.poly_expr()
            self.expect(")", "')'")
            return node
        self.fail("expected a number, t, or a parenthesized expression")


def _parse_whole(text: str, rule):
    """Run one grammar rule over the whole text; trailing input is an error."""
    parser = _Parser(text)
    result = rule(parser)
    if not parser.at_end():
        parser.fail("unexpected trailing input")
    return result



def parse_object(text: str):
    return _parse_whole(text, _Parser.object_expr)


def parse_sheaf(text: str):
    return _parse_whole(text, _Parser.sheaf_expr)


def parse_poly(text: str):
    return _parse_whole(text, _Parser.poly_expr)
