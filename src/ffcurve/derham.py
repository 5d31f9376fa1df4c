"""Graded polynomial de Rham complexes of affine n-space, characteristic 0.

Pieces are indexed by (form degree i, coefficient degree e) and kept for
total weight w = i + e up to the truncation D; the exterior derivative
preserves w, so every stored weight strand is a complete complex. A basis
form x^expo dx_S is one int, a bit field per variable (see _F), and d is
kept sparse, per basis form, with integer coefficients.

Exactness is certified, not computed from ranks. Let E be the Euler field
and iota its contraction; on a strand of weight w, d.iota + iota.d = w.id
(Cartan), so a closed form z of weight w >= 1 is d(iota z / w). This
identity and d o d = 0 are checked on every basis form, so every strand
with w >= 1 is exact and its kernel dimensions are alternating sums of
piece dimensions. The check holds d and iota once per form, one strand at
a time, and sums d(d f) and d(iota f) + iota(d f) in one pass over the
terms of d f and iota f. A piece's forms are enumerated at O(n) per form,
whatever the degree.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Dict, FrozenSet, List, Tuple

from .errors import CertificateError, Frozen, _check_budget, _check_int, _set

Form = int  # basis form x^expo dx_S, coded as below
Vec = Dict[Form, int]  # sparse integer combination of basis forms

#: work budget of qp_cohomology and ga_cohomology: basis forms of weight 1..D,
#: each certified in 4-10 us at n <= 4 on a 2-vCPU host (85 us at n = 5000)
MAX_DERHAM_FORMS = 10_000

# Variable v owns the _F-bit field at bit _F*v of a form's code, holding
# 2*expo[v] + (1 if v in S). Every exponent is at most D <= MAX_DERHAM_FORMS,
# so no field carries into the next. d moves x_v into dx_v, code - 2^(_F v);
# iota moves dx_v back with one more x_v, code + 2^(_F v).
_F = MAX_DERHAM_FORMS.bit_length() + 1
_FIELD = (1 << _F) - 1


def _d(form: Form) -> Vec:
    """d(x^expo dx_S) = sum over v not in S of expo[v] x^(expo - e_v) dx_v ^ dx_S."""
    out = {}
    odd = 0  # moving dx_v into place costs one swap per s in S below v
    rest, shift = form, 0
    while rest:
        field = rest & _FIELD
        if not field:  # jump to the next nonzero field
            skip = ((rest & -rest).bit_length() - 1) // _F * _F
            rest >>= skip
            shift += skip
            field = rest & _FIELD
        if field & 1:
            odd ^= 1
        else:
            out[form - (1 << shift)] = -(field >> 1) if odd else field >> 1
        rest >>= _F
        shift += _F
    return out


def _iota(form: Form) -> Vec:
    """Contraction of x^expo dx_S with the Euler field sum_v x_v d/dx_v."""
    out = {}
    # the low bit of every field (a repunit in base 2^_F), set where v is in S
    flags = form & ((1 << _F * (form.bit_length() // _F + 1)) - 1) // _FIELD
    odd = 0  # the sign of dx_v at its position in dx_S
    while flags:
        low = flags & -flags
        out[form + low] = -1 if odd else 1
        odd ^= 1
        flags ^= low
    return out


def _decode(form: Form, n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(S, expo) of a form in n variables."""
    fields = [form >> _F * v & _FIELD for v in range(n)]
    return tuple(v for v in range(n) if fields[v] & 1), tuple(f >> 1 for f in fields)


def _pieces(n: int, D: int) -> List[Tuple[int, int]]:
    return [(i, e) for i in range(0, n + 1) for e in range(0, D - i + 1)]


def _forms(n: int, i: int, e: int) -> Tuple[Form, ...]:
    """Piece (i, e): S in the order of combinations, then expo in descending lex
    order (that of combinations_with_replacement). Each code is built once, by
    one addition to a code in one variable fewer: O(n) steps per form."""
    if n == 1:
        xs = [2 * e]
    else:  # rev[k]: x^expo of degree k in the variables from v on, ascending lex
        rev = [[2 * k << _F * (n - 1)] for k in range(e + 1)]
        for v in range(n - 2, 0, -1):
            unit = 2 << _F * v
            for k in range(e, 0, -1):  # rev[k - a] still holds variable v + 1's list
                rev[k].extend(a * unit + x for a in range(1, k + 1) for x in rev[k - a])
        xs = [2 * a + x for a in range(e, 0, -1) for x in reversed(rev[e - a])]
        xs.extend(reversed(rev[e]))
    return tuple(s + x for s in map(sum, combinations([1 << _F * v for v in range(n)], i))
                 for x in xs)


def _piece_dim(n: int, i: int, e: int) -> int:
    return comb(n, i) * comb(n + e - 1, e)


def _form_count(n: int, D: int) -> int:
    """Basis forms of weight 1..D, or a lower bound once over MAX_DERHAM_FORMS.

    The hockey stick over e leaves the Delannoy number sum_i C(n,i) C(n+D-i, n),
    weight 0 included; piece (1, 0) holds n forms and each weight at least one.
    """
    if max(n, D) > MAX_DERHAM_FORMS:
        return max(n, D)
    count = -1
    for i in range(min(n, D) + 1):
        count += comb(n, i) * comb(n + D - i, n)
        if count > MAX_DERHAM_FORMS:
            break
    return count


def _check_sizes(n: int, D: int) -> None:
    _check_int(n, "n", 1)
    _check_int(D, "D", 1)
    _check_budget(_form_count(n, D), "MAX_DERHAM_FORMS", MAX_DERHAM_FORMS,
                  "n = %d, D = %d is", n, D)


def ga_cohomology(n: int, D: int) -> Dict[int, Dict[int, int]]:
    """Dimensions of the Omega^i graded pieces; the group cohomology is
    the whole module of forms, so no quotient is taken."""
    _check_sizes(n, D)
    return {
        i: {e: _piece_dim(n, i, e) for e in range(0, D - i + 1)}
        for i in range(0, n + 1)
    }


class QpCohomology(Frozen):
    """Kernel dimensions per weight strand, with the truncation frontier."""

    def __init__(self, n: int, D: int, table: Dict[int, Dict[int, int]],
                 boundary: FrozenSet[Tuple[int, int]]):
        _set(self, "n", n)
        _set(self, "D", D)
        _set(self, "table", table)
        _set(self, "boundary", boundary)


def qp_cohomology(n: int, D: int) -> QpCohomology:
    """dim Ker(d_i) per weight w, for every strand with i + e <= D.

    Every strand with w >= 1 is certified exact on each basis form (see the
    module docstring; CertificateError otherwise), and the kernel of d_i on
    weight w is sum_{j<i} (-1)^(i-1-j) dim(j, w-j). Degree 0 reports just
    the constants. ``boundary`` lists the pieces (i, D) on the truncation
    frontier; they are certified like the others.
    """
    _check_sizes(n, D)
    strands: Dict[int, List[Form]] = {}
    for i, e in _pieces(n, D):
        if i + e:
            strands.setdefault(i + e, []).extend(_forms(n, i, e))
    for w, forms in strands.items():
        # d and iota keep the weight: each strand is checked on its own maps
        ops = {f: (_d(f), _iota(f)) for f in forms}
        for form in forms:
            dd: Vec = {}
            lhs: Vec = {}  # d(iota f) + iota(d f), summed with d(d f) in one pass
            df, iota_f = ops[form]
            try:
                for g, c in df.items():
                    dg, ig = ops[g]
                    for h, a in dg.items():
                        dd[h] = dd.get(h, 0) + c * a
                    for h, a in ig.items():
                        lhs[h] = lhs.get(h, 0) + c * a
                for g, c in iota_f.items():
                    for h, a in ops[g][0].items():
                        lhs[h] = lhs.get(h, 0) + c * a
            except KeyError:
                raise CertificateError("d or iota leaves the basis of weight %d at the form %r"
                                       % (w, _decode(form, n))) from None
            if any(dd.values()):
                raise CertificateError("d o d is nonzero on the form %r" % (_decode(form, n),))
            if lhs.pop(form, 0) != w or any(lhs.values()):
                raise CertificateError(
                    "d.iota + iota.d is not %d.id on the form %r" % (w, _decode(form, n))
                )
    table: Dict[int, Dict[int, int]] = {0: {0: 1}}
    for i in range(1, n + 1):
        table[i] = {
            w: sum((-1) ** (i - 1 - j) * _piece_dim(n, j, w - j) for j in range(i))
            for w in range(i, D + 1)
        }
    boundary = frozenset((i, D) for i in range(1, min(n, D) + 1))
    return QpCohomology(n, D, table, boundary)
