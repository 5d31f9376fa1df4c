"""Typed errors, and the one integer rule and one budget rule that admit input;
the frozen record base; the signed-sum renderer of Q[t] and cocycle spaces."""

#: stores a field of a Frozen record from its __init__
_set = object.__setattr__


class Frozen:
    """Immutable record: a subclass's ``__init__`` parameters are its fields, in
    order, each stored through ``_set`` in that order, so ``vars`` holds exactly
    the fields in field order. Equality holds within one class only, the hash
    is the field tuple's, and repr is ``Name(f=..., g=...)``."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        body = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__qualname__, body)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def _render_terms(pairs) -> str:
    """Signed sum of nonzero (coefficient, basis text) pairs; "" is the unit."""
    chunks = []
    for coeff, text in pairs:
        mag = abs(coeff)
        body = str(mag) if not text else text if mag == 1 else "%s*%s" % (mag, text)
        if not chunks:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks) or "0"


def _check_int(x, what: str, lo: int = None, also: tuple = ()):
    """x if it is an int but not a bool (or an instance of a type in also) and
    not below lo: TypeError for another type, ValueError for a smaller value."""
    if type(x) is not int and (type(x) is bool or not isinstance(x, (int, *also))):
        kinds = "".join(" or a " + t.__name__ for t in also)
        raise TypeError("%s must be an int%s, got %r" % (what, kinds, x))
    if lo is not None and x < lo:
        raise ValueError("%s must be >= %d, got %s" % (what, lo, x))
    return x


class BudgetError(ValueError):
    """A call over a work budget, refused before any of its work."""


def _check_budget(value: int, name: str, cap: int, lead: str, *args) -> None:
    """Raise BudgetError("<lead % (args or value)> over the budget NAME = CAP") if value > cap."""
    if value > cap:
        raise BudgetError("%s over the budget %s = %d" % (lead % (args or (value,)), name, cap))


class CertificateError(Exception):
    """A certificate that an exact answer rests on failed to verify."""


class ParseError(Exception):
    """Malformed expression; position points at the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        return "parse error at position %d: %s" % (self.position, self.message)
