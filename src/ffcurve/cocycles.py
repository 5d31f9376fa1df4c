"""Function spaces and pullback differentials of a length-3 resolution.

A free resolution of an abelian group object truncated at length 3 has
components built from generators [x1,...,xk]:

    Z[G^4] x Z[G^3]^2 x Z[G^2] x Z[G] -> Z[G^3] x Z[G^2] -> Z[G^2] -> Z[G]

Applying Hom(-, G') turns each bracket rule into a precomposition operator
on functions of k variables.  Two exact-arithmetic function spaces are
provided: polynomials over the rationals and finite combinations of
binomial-coefficient functions C(x, k).  Setting one argument of degree e
to a sum of distinct variables x_1 + ... + x_m expands in closed form, one
term per composition (a_1, ..., a_m) of e: with the multinomial coefficient
e!/(a_1! ... a_m!) for monomials, and with coefficient 1 for binomial
functions by Vandermonde's identity C(x+y, n) = sum_j C(x, j) C(y, n-j).
Arguments that share a variable (the diagonal [x, x]) are joined by the
product of the space.  On top of the operators, this module computes
symmetric 2-cocycle spaces by degree and the small kernel and exactness
checks used for the Hom and Ext columns.  Their pullback matrices have
integer entries (signs times multinomial or Vandermonde coefficients), so
they are built on ints from the same per-key kernel as ``precompose``.  In
that kernel a key is one int, exponent e_v in the field at bit width*v, so
products of monomials, or of Mahler keys on disjoint variables, add codes;
``_merge_keys`` expands only Mahler products on a shared variable.  The
expansion of one argument, its slot block, depends only on (slot, e) at the
call's width: each ``precompose`` or ``_pullback_rows`` call keeps its blocks
in a dict of its own and builds each once.  No block outlives its call.

No kernel is searched for.  ``_certify`` proves ker = span K for a closed
form K and a pivot map, column key -> row key of the first output
component: every row annihilates K, the pivot entries form a nonzero
diagonal minor, and each vector of K is nonzero on its own one of the
other columns.  In those keys:

  symmetric d2, degree q: K is C(q,k) at (k, q-k), 0 < k < q, Lazard's
      (x+y)^q - x^q - y^q (none at q = 1); (q,0) -> (q,0,0), (0,q) ->
      (0,0,q), (j+1, q-1-j) -> (1, j, q-1-j) for 0 < j < q-1;
  d1*: K is x = C(x,1); (0,) -> (0,0), (k,) -> (k-1, 1) for k >= 2;
  Mahler d2: K is the d1* columns of (0,) and (k,), k >= 2, so ker d2 =
      im d1*; (a,0) -> (a,0,0), (0,b) -> (0, b-1, 1), (a,b) -> (1, a-1, b)
      for a >= 2, b >= 1.

The symmetric kernel vector C(q,k) is also, coefficient for coefficient,
the coboundary d1*(x^q) = (x+y)^q - x^q - y^q, so the report reads the
coboundary line off the certified kernel instead of pulling x^q back.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .errors import CertificateError, _check_budget, _check_int, _render_terms

Key = Tuple[int, ...]

#: arities of the resolution components by cohomological degree
LEVEL_ARITIES = {0: (1,), -1: (2,), -2: (3, 2), -3: (4, 3, 3, 2, 1)}

#: work budgets, checked before any matrix is built; on a 2-vCPU host a call
#: takes 0.011-0.013 s at MAX_COCYCLE_DEGREE and 0.019-0.025 s at MAX_COLUMN_DEGREE
MAX_COCYCLE_DEGREE = 32
MAX_COLUMN_DEGREE = 12


def _compositions(total: int, parts: int) -> Iterable[Key]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(total: int, comp: Key) -> int:
    out = math.factorial(total)
    for part in comp:
        out //= math.factorial(part)
    return out


def _binom_product(a: int, b: int) -> Dict[int, int]:
    # C(x,a)*C(x,b) = sum_k C(k,a)*C(a,k-b)*C(x,k)
    return {
        k: math.comb(k, a) * math.comb(a, k - b)
        for k in range(max(a, b), a + b + 1)
    }


def _var_names(arity: int) -> Tuple[str, ...]:
    if arity <= 4:
        return ("x", "y", "z", "w")[:arity]
    return tuple("x%d" % (i + 1) for i in range(arity))


def _encode(key: Key, width: int) -> int:
    return sum(e << width * v for v, e in enumerate(key))


def _decode(code: int, arity: int, width: int) -> Key:
    mask = (1 << width) - 1
    return tuple(code >> width * v & mask for v in range(arity))


class _Combo:
    """Finite linear combination of exponent-tuple basis keys. Subclasses
    supply the basis: _merge_keys, _composition_coeff and _factor."""

    __slots__ = ("arity", "coeffs")

    #: True where basis products add keys (monomials), even on a shared variable
    _KEYS_ADD = False

    def __init__(self, arity: int, coeffs: Dict[Key, Fraction]):
        _check_int(arity, "arity", 1)
        clean: Dict[Key, Fraction] = {}
        for key, value in coeffs.items():
            key = tuple(_check_int(e, "exponent", 0) for e in key)
            if len(key) != arity:
                raise ValueError("bad basis key %r for arity %d" % (key, arity))
            value = Fraction(_check_int(value, "coefficient", also=(Fraction,)))
            if value:
                clean[key] = value
        self.arity = arity
        self.coeffs = clean

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "_Combo":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value) -> "_Combo":
        return cls(arity, {(0,) * arity: value})

    # -- ring-ish structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(key) for key in self.coeffs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.arity == other.arity and self.coeffs == other.coeffs

    __hash__ = None

    def _same_space(self, other: "_Combo") -> None:
        if self.arity != other.arity:
            raise ValueError("arity mismatch: %d vs %d" % (self.arity, other.arity))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._same_space(other)
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + value
        return type(self)(self.arity, out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)(self.arity, {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if type(other) is type(self):
            self._same_space(other)
            width = max(self.degree() + other.degree(), 1).bit_length()
            a, b = ({_encode(k, width): v for k, v in f.coeffs.items()} for f in (self, other))
            out = self._product(a, b.items(), self.arity, width, True)
            return type(self)(self.arity, {_decode(k, self.arity, width): v
                                           for k, v in out.items()})
        try:  # a scalar: an int or a Fraction
            other = _check_int(other, "a scalar", also=(Fraction,))
        except TypeError:
            return NotImplemented
        return type(self)(self.arity, {k: v * other for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, power: int):
        _check_int(power, "power", 0)
        out = type(self).constant(self.arity, 1)
        for bit in bin(power)[2:]:  # square and multiply, leading bit first
            out = out * out * self if bit == "1" else out * out
        return out

    # -- composition -------------------------------------------------------

    def precompose(self, assignment, out_arity: int) -> "_Combo":
        """Substitute coordinate sums: argument i becomes sum of the listed
        output variables.  Each slot must be a non-empty tuple of distinct
        indices; different slots may share variables."""
        assignment = tuple(tuple(slot) for slot in assignment)
        if len(assignment) != self.arity:
            raise ValueError("assignment must cover %d argument slots" % self.arity)
        _check_int(out_arity, "output arity", 1)
        for slot in assignment:
            if not slot:
                raise ValueError("empty argument slot")
            if any(_check_int(j, "variable index", 0) >= out_arity for j in slot):
                raise ValueError("variable index out of range")
            if len(set(slot)) != len(slot):
                raise ValueError("argument slot repeats a variable")
        width = max(self.degree(), 1).bit_length()
        out: Dict[int, Fraction] = {}
        blocks: dict = {}  # the slot blocks of this call
        for key, coeff in self.coeffs.items():
            for code, c in self._precompose_key(key, assignment, out_arity, width, blocks).items():
                out[code] = out.get(code, 0) + coeff * c
        return type(self)(out_arity, {_decode(k, out_arity, width): v for k, v in out.items()})

    @classmethod
    def _precompose_key(cls, key: Key, assignment, out_arity: int, width: int,
                        blocks: dict) -> Dict[int, int]:
        # one basis function under a checked assignment, on codes of width >= bits of sum(key);
        # blocks holds the caller's slot blocks at this width, by (slot, e)
        partial: Dict[int, int] = {0: 1}
        used: set = set()
        for slot, e in zip(assignment, key):
            if e:
                block = blocks.get((slot, e))
                if block is None:
                    block = blocks[slot, e] = cls._slot_block(slot, e, width)
                shared = not used.isdisjoint(slot)
                partial = cls._product(partial, block, out_arity, width, shared)
                used.update(slot)
        return partial

    @classmethod
    def _product(cls, a, b, arity: int, width: int, shared: bool):
        # codes add, unless the factors may share a variable that _merge_keys expands
        out = {}
        if cls._KEYS_ADD or not shared:
            for ka, ca in a.items():
                for kb, cb in b:
                    out[ka + kb] = out.get(ka + kb, 0) + ca * cb
            return out
        for ka, ca in a.items():
            key_a = _decode(ka, arity, width)
            for kb, cb in b:
                for key, mult in cls._merge_keys(key_a, _decode(kb, arity, width)).items():
                    code = _encode(key, width)
                    out[code] = out.get(code, 0) + ca * cb * mult
        return out

    @classmethod
    def _slot_block(cls, slot, e, width) -> List[Tuple[int, int]]:
        # basis function of degree e on the sum of the (distinct) slot
        # variables: one (code, coefficient) per composition of e over the slot
        shifts = [width * var for var in slot]
        return [
            (sum(a << s for a, s in zip(comp, shifts)), cls._composition_coeff(e, comp))
            for comp in _compositions(e, len(slot))
        ]

    def __str__(self):
        names = _var_names(self.arity)
        return _render_terms(
            (self.coeffs[key], "*".join(self._factor(n, e) for n, e in zip(names, key) if e))
            for key in sorted(self.coeffs, key=lambda k: (sum(k), k), reverse=True)
        )

    def __repr__(self):
        return "%s(%d, %r)" % (type(self).__name__, self.arity, self.coeffs)


class PolyFunc(_Combo):
    """Polynomial with rational coefficients in ``arity`` variables."""

    __slots__ = ()
    _KEYS_ADD = True

    @classmethod
    def variable(cls, arity: int, index: int) -> "PolyFunc":
        if not 0 <= index < arity:
            raise ValueError("variable index out of range")
        key = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {key: Fraction(1)})

    @staticmethod
    def _merge_keys(key_a, key_b):
        return {tuple(a + b for a, b in zip(key_a, key_b)): 1}

    @staticmethod
    def _composition_coeff(total, comp):
        return _multinomial(total, comp)

    @staticmethod
    def _factor(name, e):
        return name if e == 1 else "%s^%d" % (name, e)


class MahlerFunc(_Combo):
    """Combination of products of binomial functions C(x_i, k_i)."""

    __slots__ = ()

    @classmethod
    def basis(cls, arity: int, key: Key) -> "MahlerFunc":
        return cls(arity, {tuple(key): Fraction(1)})

    @staticmethod
    def _merge_keys(key_a, key_b):
        # variable by variable; _binom_product(a, 0) is {a: 1}
        out: Dict[Key, int] = {(): 1}
        for a, b in zip(key_a, key_b):
            prod = _binom_product(a, b)
            out = {key + (k,): c * m for key, c in out.items() for k, m in prod.items()}
        return out

    @staticmethod
    def _composition_coeff(total, comp):
        return 1

    @staticmethod
    def _factor(name, e):
        return "C(%s,%d)" % (name, e)


# --------------------------------------------------------------- differentials
#
# Each pullback operator is stored as data: for every output component a
# list of terms (sign, input component, slot assignment), where the slots
# give each input argument as a sum of output variables.  The tables are a
# direct transcription of the bracket rules
#
#   d1[x,y]      = [x+y] - [x] - [y]
#   d2[x,y,z]    = [x+y,z] - [y,z] - [x,y+z] + [x,y]
#   d2[x,y]      = [x,y] - [y,x]
#   d3[x,y,z,w]  = -[y,z,w] + [x+y,z,w] - [x,y+z,w] + [x,y,z+w] - [x,y,z]
#   d3[x,y,z]    = -[y,z] + [x+y,z] - [x,z] - [x,y,z] + [x,z,y] - [z,x,y]
#   d3'[x,y,z]   = -[x,z] + [x,y+z] - [x,y] + [x,y,z] - [y,x,z] + [y,z,x]
#   d3[x,y]      = [x,y] + [y,x]
#   d3[x]        = [x,x]

_D1 = (
    ((1, 0, ((0, 1),)), (-1, 0, ((0,),)), (-1, 0, ((1,),))),
)

_D2 = (
    (
        (1, 0, ((0, 1), (2,))),
        (-1, 0, ((1,), (2,))),
        (-1, 0, ((0,), (1, 2))),
        (1, 0, ((0,), (1,))),
    ),
    (
        (1, 0, ((0,), (1,))),
        (-1, 0, ((1,), (0,))),
    ),
)

_D3 = (
    (
        (-1, 0, ((1,), (2,), (3,))),
        (1, 0, ((0, 1), (2,), (3,))),
        (-1, 0, ((0,), (1, 2), (3,))),
        (1, 0, ((0,), (1,), (2, 3))),
        (-1, 0, ((0,), (1,), (2,))),
    ),
    (
        (-1, 1, ((1,), (2,))),
        (1, 1, ((0, 1), (2,))),
        (-1, 1, ((0,), (2,))),
        (-1, 0, ((0,), (1,), (2,))),
        (1, 0, ((0,), (2,), (1,))),
        (-1, 0, ((2,), (0,), (1,))),
    ),
    (
        (-1, 1, ((0,), (2,))),
        (1, 1, ((0,), (1, 2))),
        (-1, 1, ((0,), (1,))),
        (1, 0, ((0,), (1,), (2,))),
        (-1, 0, ((1,), (0,), (2,))),
        (1, 0, ((1,), (2,), (0,))),
    ),
    (
        (1, 1, ((0,), (1,))),
        (1, 1, ((1,), (0,))),
    ),
    (
        (1, 1, ((0,), (0,))),
    ),
)


def _apply_pullback(table, in_arities, out_arities, funcs):
    funcs = tuple(funcs)
    if len(funcs) != len(in_arities):
        raise ValueError("expected %d component functions" % len(in_arities))
    cls = type(funcs[0])
    if cls not in (PolyFunc, MahlerFunc):
        raise TypeError("unsupported function space: %s" % cls.__name__)
    for f in funcs:
        if type(f) is not cls:
            raise TypeError("mixed function spaces")
    for f, arity in zip(funcs, in_arities):
        if f.arity != arity:
            raise ValueError("component has arity %d, expected %d" % (f.arity, arity))
    out = []
    for component, out_arity in zip(table, out_arities):
        acc = cls.zero(out_arity)
        for sign, source, slots in component:
            acc = acc + funcs[source].precompose(slots, out_arity) * sign
        out.append(acc)
    return tuple(out)


def pullback_d1(f):
    """(d1* f)(x, y) = f(x+y) - f(x) - f(y)."""
    return _apply_pullback(_D1, LEVEL_ARITIES[0], LEVEL_ARITIES[-1], (f,))[0]


def pullback_d2(f):
    """Components (f(x+y,z) - f(y,z) - f(x,y+z) + f(x,y), f(x,y) - f(y,x))."""
    return _apply_pullback(_D2, LEVEL_ARITIES[-1], LEVEL_ARITIES[-2], (f,))


def pullback_d3(f3, f2):
    """Pullback of a pair of functions on the degree -2 components; returns
    the five functions on the degree -3 components."""
    return _apply_pullback(_D3, LEVEL_ARITIES[-2], LEVEL_ARITIES[-3], (f3, f2))


# ------------------------------------------------------------ certificates

def _certify(rows, kernel, pivots: Dict[int, int], report: str) -> None:
    """Prove ker rows = span kernel by the checks of the module docstring,
    pivots mapping column to row indices, or raise CertificateError."""
    supports = [[(c, v) for c, v in enumerate(vec) if v] for vec in kernel]
    free = [[c for c, _ in support if c not in pivots] for support in supports]
    if any(sum(row[c] * v for c, v in support) for support in supports for row in rows):
        why = "a closed-form kernel vector is not annihilated by every row"
    elif any([j for j, v in enumerate(rows[r]) if v and j in pivots] != [c]
             for c, r in pivots.items()):
        why = "the pivot entries are not a nonzero diagonal minor"
    elif any(len(cols) != 1 for cols in free) or not (
            len({cols[0] for cols in free}) == len(kernel) == len(rows[0]) - len(pivots)):
        why = "the kernel vectors do not own one non-pivot column each"
    else:
        return
    raise CertificateError("%s: %s" % (report, why))


def _keys_of_degree(arity: int, degree: int) -> List[Key]:
    return sorted(_compositions(degree, arity), reverse=True)


def _keys_up_to(arity: int, degree: int) -> List[Key]:
    keys: List[Key] = []
    for d in range(degree + 1):
        keys.extend(_keys_of_degree(arity, d))
    return keys


def _pullback_rows(table, cls, source_keys, out_keys) -> List[List[int]]:
    """Integer matrix of a one-source pullback table (_D1, _D2) on the span
    of the source basis keys, as rows: one column per source key, one row
    per key of each output component."""
    width = max(1, *(sum(k) for keys in (source_keys, *out_keys) for k in keys)).bit_length()
    rows: List[List[int]] = []
    row_of: List[Dict[int, int]] = []  # per component: output code -> row index
    blocks: dict = {}  # the slot blocks of this call; width is the same throughout
    for keys in out_keys:
        row_of.append({_encode(k, width): len(rows) + r for r, k in enumerate(keys)})
        rows.extend([0] * len(source_keys) for _ in keys)
    for j, key in enumerate(source_keys):
        for component, index, keys in zip(table, row_of, out_keys):
            for sign, _, slots in component:
                for code, c in cls._precompose_key(key, slots, len(keys[0]), width,
                                                   blocks).items():
                    rows[index[code]][j] += sign * c
    return rows


# ------------------------------------------------------------ cocycle spaces

def _positions(keys: List[Key]) -> Dict[Key, int]:
    return {key: i for i, key in enumerate(keys)}


def symmetric_2cocycle_report(q: int) -> dict:
    """Kernel of the second pullback on homogeneous degree-q polynomials of
    two variables (the symmetric 2-cocycles), with the coboundary line."""
    _check_int(q, "degree", 1)
    _check_budget(q, "MAX_COCYCLE_DEGREE", MAX_COCYCLE_DEGREE, "degree %d is")
    source_keys = _keys_of_degree(2, q)
    out_keys = (_keys_of_degree(3, q), _keys_of_degree(2, q))
    rows = _pullback_rows(_D2, PolyFunc, source_keys, out_keys)
    col, row = _positions(source_keys), _positions(out_keys[0])
    kernel = [[math.comb(q, a) if 0 < a < q else 0 for a, _ in source_keys]] if q > 1 else []
    pivots = {col[q, 0]: row[q, 0, 0], col[0, q]: row[0, 0, q]}
    pivots.update((col[j + 1, q - 1 - j], row[1, j, q - 1 - j]) for j in range(1, q - 1))
    _certify(rows, kernel, pivots, "symmetric 2-cocycles of degree %d" % q)
    basis = tuple(PolyFunc(2, {key: Fraction(a, q) for key, a in zip(source_keys, vec)})
                  for vec in kernel)
    # d1*(x^q) = sum_{0<a<q} C(q,a) x^a y^(q-a) is the certified kernel
    # vector, coefficient for coefficient: every cocycle is a coboundary
    return {
        "q": q,
        "cocycle_dim": len(basis),
        "coboundary_dim": len(kernel),
        "quotient_dim": 0,
        "cocycle_basis": basis,
    }


def _certified_d1(cls, degree: int, report: str) -> List[List[int]]:
    """The d1* matrix on functions of one variable up to ``degree``, with
    its kernel certified to be the span of x = C(x, 1); column k is (k,)."""
    keys2 = _keys_up_to(2, degree)
    rows = _pullback_rows(_D1, cls, _keys_up_to(1, degree), (keys2,))
    row = _positions(keys2)
    pivots = {k: row[k - 1, 1] for k in range(2, degree + 1)}
    pivots[0] = row[0, 0]
    _certify(rows, [[int(k == 1) for k in range(degree + 1)]], pivots, report)
    return rows


def hom_column_checks(degree_poly: int = 6, degree_mahler: int = 4) -> dict:
    """Kernel and exactness checks for the first columns of the resolution.

    (a) on polynomials of one variable up to degree_poly the kernel of d1*
        is the span of the identity function;
    (b) on constants d1* acts by negation, hence is injective;
    (c) on binomial-basis functions up to degree_mahler the chain
        scalars -> functions of one variable -> functions of two variables
        -> degree -2 components is exact at the two middle spots.

    (a) and (c) are certified from closed forms; CertificateError otherwise.
    """
    # both windows must contain the identity function, of degree 1
    _check_int(degree_poly, "degree_poly", 1)
    _check_int(degree_mahler, "degree_mahler", 1)
    _check_budget(max(degree_poly, degree_mahler), "MAX_COLUMN_DEGREE", MAX_COLUMN_DEGREE,
                  "degree bounds (%d, %d) are", degree_poly, degree_mahler)
    _certified_d1(PolyFunc, degree_poly, "polynomial d1* up to degree %d" % degree_poly)
    poly_report = {
        "degree_bound": degree_poly,
        "dim": 1,
        "basis": (str(PolyFunc.variable(1, 0)),),
        "is_span_of_identity": True,
    }

    image = pullback_d1(PolyFunc.constant(1, 1))
    constants_report = {
        "image_of_unit": str(image),
        "injective": not image.is_zero(),
    }

    # ker d1* is the span of C(x,1), the image of the scalars, and ker d2 is
    # certified to be im d1*: both middle homologies vanish
    top = degree_mahler
    d1 = _certified_d1(MahlerFunc, top, "Mahler d1* up to degree %d" % top)
    bkeys = _keys_up_to(2, top)
    ckeys = (_keys_up_to(3, top), bkeys)
    row = _positions(ckeys[0])
    pivots = {c: row[(a, 0, 0) if not b else (0, b - 1, 1) if not a else (1, a - 1, b)]
              for c, (a, b) in enumerate(bkeys) if a + b and (a != 1 or not b)}
    _certify(_pullback_rows(_D2, MahlerFunc, bkeys, ckeys),
             [[r[k] for r in d1] for k in range(top + 1) if k != 1],
             pivots, "Mahler d2 up to degree %d" % top)
    mahler_report = {
        "degree_bound": top,
        "dims": {"functions": top + 1, "pairs": len(bkeys)},
        "homology_dims": (0, 0),
        "exact": True,
    }

    return {
        "poly_kernel": poly_report,
        "constants": constants_report,
        "mahler_middle": mahler_report,
        "ok": constants_report["injective"],
    }
