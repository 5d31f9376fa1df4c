"""Bounded complexes of free modules over a Euclidean coefficient domain.

Cohomology is read off one Smith elimination per differential, which builds
no transform: Ker d_j is a direct summand, so H^j is free of rank
n_j - rank d_j - rank d_{j-1} plus the non-unit invariant factors of d_{j-1}.
The shift functor eta_{delta,f} re-presents the submodule terms in the free
bases B = V diag(t) of the Smith forms of the differentials. No V is built:
a product M B replays the column log of the elimination on M, and a solve
B X = W replays its inverse operations on the rows of W, so induced
differentials and induced chain maps stay over the domain with exact
divisions only. On Koszul complexes both are read off the gcd of the elements.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import comb
from typing import Dict, List, Sequence, Tuple

from .errors import CertificateError, Frozen, _check_budget, _check_int, _set
from .exactalg import (
    CoeffDomain,
    Mat,
    _col_op,
    _replayed,
    _row_op,
    identity,
    mat_mul,
    mat_neg,
    mat_to_json,
    smith_elimination,
    zeros,
)

#: work budget of the Koszul functions: 2^(k-1) times the coefficients of the
#: k elements (degree + 1 per polynomial), the size of the differentials. No CLI
#: verb runs a Smith form on them, but the library cohomology and decalage of
#: koszul do: four elements of degree 16 (544) take 13 s; five quadratics have 240.
MAX_KOSZUL_COEFFS = 256


class BoundedComplex(Frozen):
    """Terms are free modules of the given ranks, starting at degree lowest.

    differentials[i] maps term i to term i+1 and has shape
    ranks[i+1] x ranks[i]; consecutive differentials must compose to zero.
    """

    def __init__(self, domain: CoeffDomain, lowest: int, ranks: Tuple[int, ...],
                 differentials: Tuple[Mat, ...]):
        _set(self, "domain", domain)
        _set(self, "lowest", lowest)
        _set(self, "ranks", ranks)
        _set(self, "differentials", differentials)
        if not self.ranks:
            raise ValueError("a bounded complex needs at least one term")
        if len(self.differentials) != len(self.ranks) - 1:
            raise ValueError("expected %d differentials" % (len(self.ranks) - 1))
        for i, d in enumerate(self.differentials):
            if (d.rows, d.cols) != (self.ranks[i + 1], self.ranks[i]):
                raise ValueError("differential %d has the wrong shape" % i)
        dom = self.domain
        for i in range(len(self.differentials) - 1):
            prod = mat_mul(dom, self.differentials[i + 1], self.differentials[i])
            if any(not dom.is_zero(x) for row in prod.data for x in row):
                raise ValueError("differentials do not compose to zero at %d" % i)

    @property
    def highest(self) -> int:
        return self.lowest + len(self.ranks) - 1

    def degrees(self) -> range:
        return range(self.lowest, self.highest + 1)

    def rank_at(self, degree: int) -> int:
        if self.lowest <= degree <= self.highest:
            return self.ranks[degree - self.lowest]
        return 0

    def differential_at(self, degree: int) -> Mat:
        """Outgoing differential at the degree, zero off the support."""
        i = degree - self.lowest
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        return zeros(self.domain, self.rank_at(degree + 1), self.rank_at(degree))


def complex_to_json(C: BoundedComplex) -> dict:
    return {
        "domain": C.domain.name,
        "lowest": C.lowest,
        "ranks": list(C.ranks),
        "differentials": [mat_to_json(C.domain, d) for d in C.differentials],
    }


# ------------------------------------------------------------------ cohomology


def cohomology(C: BoundedComplex) -> Dict[int, Tuple[int, Tuple]]:
    """Per-degree (free rank, invariant factors) of H^j = Ker d_j / Im d_{j-1}.

    Each differential's elimination is read at its source and at its target.
    Im d_{j-1} lies in Ker d_j because BoundedComplex checks d o d = 0.
    """
    dom = C.domain
    out: Dict[int, Tuple[int, Tuple]] = {}
    f_in = smith_elimination(dom, C.differential_at(C.lowest - 1))
    for j in C.degrees():
        f_out = smith_elimination(dom, C.differential_at(j))
        factors = tuple(s for s in f_in.invariant_factors if s != dom.one)
        out[j] = (C.rank_at(j) - f_out.rank - f_in.rank, factors)
        f_in = f_out
    return out


def is_acyclic(C: BoundedComplex) -> bool:
    return all(v == (0, ()) for v in cohomology(C).values())


# ---------------------------------------------------------------------- Koszul


def _admitted(dom: CoeffDomain, elements: Sequence) -> list:
    """The elements converted, refused before any work over MAX_KOSZUL_COEFFS."""
    gs = [dom.convert(g) for g in elements]
    if not gs:
        raise ValueError("koszul needs at least one element")
    coeffs = sum(len(getattr(g, "coeffs", (g,))) for g in gs) << (len(gs) - 1)
    _check_budget(coeffs, "MAX_KOSZUL_COEFFS", MAX_KOSZUL_COEFFS, "%d Koszul coefficients are")
    return gs


def _scale(dom: CoeffDomain, f):
    """f converted, refused unless it is a non-zero-divisor (over a domain, nonzero)."""
    f = dom.convert(f)
    if dom.is_zero(f):
        raise ValueError("decalage needs a non-zero-divisor f")
    return f


def koszul(dom: CoeffDomain, elements: Sequence) -> BoundedComplex:
    """Koszul complex on the given elements, degrees 0..n.

    Basis of term m is the sorted m-subsets; inserting h as the m-th
    element of the new subset carries the sign (-1)^(m-1).
    """
    gs = _admitted(dom, elements)
    n = len(gs)
    levels = [list(combinations(range(n), m)) for m in range(n + 1)]
    index = [{S: i for i, S in enumerate(level)} for level in levels]
    ranks = tuple(comb(n, m) for m in range(n + 1))
    diffs = []
    for m in range(n):
        rows = [[dom.zero] * ranks[m] for _ in range(ranks[m + 1])]
        for col, S in enumerate(levels[m]):
            for h in range(n):
                if h in S:
                    continue
                pos = sum(1 for s in S if s < h)
                target = tuple(sorted(S + (h,)))
                entry = gs[h] if pos % 2 == 0 else -gs[h]
                row = index[m + 1][target]
                rows[row][col] = rows[row][col] + entry
        diffs.append(Mat(ranks[m + 1], ranks[m], tuple(tuple(r) for r in rows)))
    return BoundedComplex(dom, 0, ranks, tuple(diffs))


def _gcd(dom: CoeffDomain, gs: list):
    """The gcd of the elements, checked to divide each; coprime cofactors are not."""
    g = reduce(dom.gcd, gs, dom.zero)
    for x in gs:
        if not dom.divides(g, x):
            raise CertificateError("the gcd %s does not divide the element %s" % (g, x))
    return g


def koszul_cohomology(dom: CoeffDomain, elements: Sequence) -> Dict[int, Tuple[int, Tuple]]:
    """cohomology(koszul(dom, elements)) from the gcd g of the k elements: GL_k
    moves them to (g, 0, ..., 0), so K is the sum of the K(g)[-j], C(k-1, j)
    times (Eisenbud, Commutative Algebra, ch. 17). _gcd checks g | f_i, not coprimality."""
    gs = _admitted(dom, elements)
    k, g = len(gs), _gcd(dom, gs)
    if dom.is_zero(g):
        return {j: (comb(k, j), ()) for j in range(k + 1)}
    torsion = () if g == dom.one else (g,)
    return {j: (0, torsion * comb(k - 1, j - 1) if j else ()) for j in range(k + 1)}


def koszul_decalage(dom: CoeffDomain, f, elements: Sequence) -> BoundedComplex:
    """A complex isomorphic to decalage(koszul(dom, elements), f, identity
    profile): eta_f K(g) = K(h) for h = g / gcd(f, g) (Bhatt-Morrow-Scholze,
    Integral p-adic Hodge theory, §6), so it is the sum of the K(-h)[-j],
    C(k-1, j) times. Term m lists the sources of the j = m summands, then the
    targets of the j = m - 1 ones; h is monic over Q[t], positive over Z. g is
    checked as in koszul_cohomology."""
    gs = _admitted(dom, elements)
    f = _scale(dom, f)
    k, g = len(gs), _gcd(dom, gs)
    h = -_exact_div(dom, g, dom.gcd(f, g))
    ranks = tuple(comb(k, m) for m in range(k + 1))
    # source c of a j = m summand maps to its target, after the C(k-1, m+1) j = m + 1 sources
    diffs = tuple(Mat(ranks[m + 1], ranks[m], tuple(
        tuple(h if r == comb(k - 1, m + 1) + c else dom.zero for c in range(ranks[m]))
        for r in range(ranks[m + 1]))) for m in range(k))
    return BoundedComplex(dom, 0, ranks, diffs)


# -------------------------------------------------------------------- decalage


class ShiftProfile(Frozen):
    """delta tabulated on [lo, lo+len-1], clamped constant outside."""

    def __init__(self, lo: int, values: Tuple[int, ...]):
        values = tuple(_check_int(v, "shift value", 0) for v in values)
        if not values:
            raise ValueError("shift profile needs at least one value")
        _set(self, "lo", _check_int(lo, "lo"))
        _set(self, "values", values)

    def __call__(self, j: int) -> int:
        i = min(max(j - self.lo, 0), len(self.values) - 1)
        return self.values[i]

    @staticmethod
    def constant(c: int) -> "ShiftProfile":
        return ShiftProfile(0, (c,))

    @staticmethod
    def identity(lo: int, hi: int) -> "ShiftProfile":
        if lo < 0:
            raise ValueError("identity profile needs lo >= 0 to stay in N")
        return ShiftProfile(lo, tuple(range(lo, hi + 1)))


def _exact_div(dom: CoeffDomain, a, b):
    q, r = dom.divmod(a, b)
    if not dom.is_zero(r):
        raise CertificateError("inexact division while re-presenting a term")
    return q


class _EtaTerm:
    """One term of eta, in the basis B = V diag(tvec): V is the product of the
    logged column operations cols, and tvec scales its columns."""

    __slots__ = ("cols", "tvec")

    def __init__(self, cols: Tuple[tuple, ...], tvec: Tuple):
        self.cols = cols
        self.tvec = tvec

    def times_basis(self, M: Mat) -> Mat:
        """M B: the column operations replayed on M, then column k times tvec[k]."""
        MV = _replayed(M, self.cols, _col_op)
        return Mat(MV.rows, MV.cols,
                   tuple(tuple(x * s for x, s in zip(row, self.tvec)) for row in MV.data))

    def coordinates(self, dom: CoeffDomain, W: Mat) -> Mat:
        """Solve B X = W exactly (columns of W lie in the span): the inverse
        operations replayed on the rows of W, then row i divided by tvec[i]."""
        X = _replayed(W, self.cols, _row_op, inverse=True)
        return Mat(X.rows, X.cols, tuple(tuple(_exact_div(dom, x, s) for x in row)
                                         for row, s in zip(X.data, self.tvec)))


def _eta_terms(C: BoundedComplex, f, delta: ShiftProfile) -> List[_EtaTerm]:
    dom = C.domain
    terms: List[_EtaTerm] = []
    for j in C.degrees():
        n = C.rank_at(j)
        c = max(0, delta(j + 1) - delta(j))
        if c == 0:
            terms.append(_EtaTerm((), (dom.one,) * n))
            continue
        smith = smith_elimination(dom, C.differential_at(j))
        fpow = f ** c
        tvec = tuple(_exact_div(dom, fpow, dom.gcd(s, fpow)) for s in smith.invariant_factors)
        terms.append(_EtaTerm(smith.cols, tvec + (dom.one,) * (n - smith.rank)))
    return terms


def decalage(C: BoundedComplex, f, delta: ShiftProfile) -> BoundedComplex:
    """The shifted complex: term j is {x in f^d(j) K^j : dx in f^d(j+1) K^j+1}.

    Ranks are unchanged (each term is a finite-index free submodule);
    the differentials are rewritten in the new bases.
    """
    f = _scale(C.domain, f)
    return _decalage(C, f, delta, _eta_terms(C, f, delta))


def _decalage(
    C: BoundedComplex, f, delta: ShiftProfile, terms: List[_EtaTerm]
) -> BoundedComplex:
    """decalage with f converted and checked, on C's precomputed eta terms."""
    dom = C.domain
    diffs = []
    for i, j in enumerate(range(C.lowest, C.highest)):
        c = max(0, delta(j + 1) - delta(j))
        e = max(0, delta(j) - delta(j + 1))
        W = terms[i].times_basis(C.differentials[i])
        fc, fe = f ** c, f ** e
        data = tuple(
            tuple(_exact_div(dom, x, fc) * fe for x in row) for row in W.data
        )
        diffs.append(terms[i + 1].coordinates(dom, Mat(W.rows, W.cols, data)))
    return BoundedComplex(dom, C.lowest, C.ranks, tuple(diffs))


# ------------------------------------------------------------------ chain maps


class ChainMap(Frozen):
    """Degreewise map between complexes on the same support window."""

    def __init__(self, source: BoundedComplex, target: BoundedComplex,
                 components: Tuple[Mat, ...]):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "components", components)
        if self.source.domain is not self.target.domain:
            raise ValueError("chain map needs a common coefficient domain")
        if (self.source.lowest, len(self.source.ranks)) != (
            self.target.lowest,
            len(self.target.ranks),
        ):
            raise ValueError("chain map needs matching support; pad first")
        if len(self.components) != len(self.source.ranks):
            raise ValueError("one component per degree expected")
        dom = self.source.domain
        for i, comp in enumerate(self.components):
            if (comp.rows, comp.cols) != (self.target.ranks[i], self.source.ranks[i]):
                raise ValueError("component %d has the wrong shape" % i)
        for i in range(len(self.components) - 1):
            lhs = mat_mul(dom, self.target.differentials[i], self.components[i])
            rhs = mat_mul(dom, self.components[i + 1], self.source.differentials[i])
            if lhs != rhs:
                raise ValueError("squares do not commute at index %d" % i)


def identity_chain_map(C: BoundedComplex) -> ChainMap:
    return ChainMap(C, C, tuple(identity(C.domain, r) for r in C.ranks))


def cone(phi: ChainMap) -> BoundedComplex:
    """Mapping cone: term j is source^{j+1} + target^j."""
    src, tgt = phi.source, phi.target
    dom = src.domain
    N = len(src.ranks)
    lo = src.lowest - 1
    a = (*src.ranks, 0)  # source part of each cone index
    b = (0, *tgt.ranks)  # target part
    ranks = tuple(a[i] + b[i] for i in range(N + 1))
    diffs = []
    for i in range(N):
        top_left = (
            mat_neg(src.differentials[i]) if i < N - 1 else zeros(dom, 0, a[i])
        )
        bottom_left = phi.components[i]
        bottom_right = (
            tgt.differentials[i - 1] if i >= 1 else zeros(dom, tgt.ranks[i], 0)
        )
        rows = []
        for r in range(top_left.rows):
            rows.append(top_left.data[r] + tuple(dom.zero for _ in range(b[i])))
        for r in range(bottom_left.rows):
            rows.append(bottom_left.data[r] + bottom_right.data[r])
        diffs.append(Mat(ranks[i + 1], ranks[i], tuple(rows)))
    return BoundedComplex(dom, lo, ranks, tuple(diffs))


def is_quasi_iso(phi: ChainMap) -> bool:
    """True iff the mapping cone is acyclic."""
    return is_acyclic(cone(phi))


def decalage_map(phi: ChainMap, f, delta: ShiftProfile) -> ChainMap:
    """Induced map between the shifted complexes, in the tracked bases."""
    dom = phi.source.domain
    f = _scale(dom, f)
    # one Smith pass per distinct complex: its eta terms give both the
    # shifted complex and the coordinates of the induced components
    src_terms = _eta_terms(phi.source, f, delta)
    source = _decalage(phi.source, f, delta, src_terms)
    if phi.target is phi.source:
        tgt_terms, target = src_terms, source
    else:
        tgt_terms = _eta_terms(phi.target, f, delta)
        target = _decalage(phi.target, f, delta, tgt_terms)
    comps = []
    for i in range(len(phi.components)):
        W = src_terms[i].times_basis(phi.components[i])
        comps.append(tgt_terms[i].coordinates(dom, W))
    return ChainMap(source, target, tuple(comps))
