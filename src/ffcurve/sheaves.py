"""Normal forms and invariant-level homological algebra for coherent sheaves.

A coherent sheaf is stored in slope normal form: a bundle part given by a
multiset of reduced slopes (the classification theorem makes every bundle a
direct sum of stables O(d/h)) and a torsion part given by point labels with
non-increasing invariant-factor lists. All cohomological data lives at the
level of (dimension, height) pairs, and on bundles it has a closed form:
Hom(O(lam), O(mu)) is H^0(O(mu - lam)), of (dimension, height)
(D, h_lam*h_mu) with D = d_mu*h_lam - d_lam*h_mu when D >= 0, and Ext^1 is
-(D, h_lam*h_mu) when D < 0. The atoms are stored sorted, so both are running
sums of one walk, and the same-point torsion pairing is one merge: linear in
the atoms, not a sum over pairs. H^0 and H^1 are the pairing against O.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .errors import CertificateError, Frozen, _check_int, _set
from .slopes import INFINITY, Slope, reduce


class BCInvariant(NamedTuple):
    """Additive (dimension, height) pair."""

    dim: int
    ht: int

    def __add__(self, other):
        return BCInvariant(self.dim + other[0], self.ht + other[1])

    def __sub__(self, other):
        return BCInvariant(self.dim - other[0], self.ht - other[1])

    def __str__(self) -> str:
        return "(%d, %d)" % (self.dim, self.ht)

BundleAtom = Tuple[Slope, int]
TorsionAtom = Tuple[str, Tuple[int, ...]]


def _is_label(text: str) -> bool:
    """The one torsion-label rule, the parser's too: a str that is a name (a
    letter or "_", then letters, digits and "_", by str.isalnum) or "∞"."""
    return text == "∞" or isinstance(text, str) and (
        (text[:1].isalpha() or text[:1] == "_") and text.replace("_", "a").isalnum())


def _canon_label(label: str) -> str:
    if not _is_label(label):
        raise ValueError("%r is not a torsion label: a name or inf" % (label,))
    return "inf" if label == "∞" else label


class CoherentSheaf(Frozen):
    """Slope normal form: bundle atoms (slope strictly decreasing) + torsion.
    It trusts its arguments: build it through normalize, which checks them."""

    def __init__(self, bundle: Tuple[BundleAtom, ...] = (), torsion: Tuple[TorsionAtom, ...] = ()):
        _set(self, "bundle", bundle)
        _set(self, "torsion", torsion)

    @staticmethod
    def zero() -> "CoherentSheaf":
        return CoherentSheaf((), ())

    @property
    def is_zero(self) -> bool:
        return not self.bundle and not self.torsion

    @property
    def rank(self) -> int:
        return sum(s.h * m for s, m in self.bundle)

    @property
    def degree(self) -> int:
        return sum(s.d * m for s, m in self.bundle) + sum(
            sum(fs) for _, fs in self.torsion
        )

    @property
    def torsion_length(self) -> int:
        return sum(sum(fs) for _, fs in self.torsion)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for s, m in self.bundle:
            atom = "O" if (s.d, s.h) == (0, 1) else "O(%s)" % s
            parts.append(atom if m == 1 else "%s^%d" % (atom, m))
        for label, fs in self.torsion:
            parts.append("T(%s,[%s])" % (label, ",".join(str(k) for k in fs)))
        return " + ".join(parts)


def normalize(
    bundle: Iterable[Tuple[object, int]], torsion: Iterable[Tuple[str, Sequence[int]]]
) -> CoherentSheaf:
    """Canonical form: slopes merged and sorted descending, factors sorted.

    Bundle entries are (Slope | (d, h), multiplicity >= 1); torsion entries
    are (label, non-empty positive factors). Same-label torsion merges.
    """
    by_slope = {}
    for raw, mult in bundle:
        s = raw if isinstance(raw, Slope) else reduce(*raw)
        if not s.is_finite:
            raise ValueError("bundle atoms need finite slopes; torsion is separate")
        by_slope[s] = by_slope.get(s, 0) + _check_int(mult, "multiplicity", 1)
    by_label = {}
    for label, factors in torsion:
        fs = [_check_int(k, "torsion factor", 1) for k in factors]
        if not fs:
            raise ValueError("torsion factor list must be non-empty")
        by_label.setdefault(_canon_label(label), []).extend(fs)
    b = tuple(sorted(by_slope.items(), key=lambda it: it[0], reverse=True))
    t = tuple(
        (label, tuple(sorted(fs, reverse=True)))
        for label, fs in sorted(by_label.items())
    )
    return CoherentSheaf(b, t)


def O(d: int, h: int = 1, mult: int = 1) -> CoherentSheaf:
    """The semistable bundle O(d/h)^mult."""
    return normalize([(reduce(d, h), mult)], [])


def T(factors: Sequence[int], label: str = "inf") -> CoherentSheaf:
    """Torsion sheaf at one point with the given invariant factors."""
    return normalize([], [(label, tuple(factors))])


def direct_sum(*sheaves: CoherentSheaf) -> CoherentSheaf:
    bundle: List[Tuple[Slope, int]] = []
    torsion: List[Tuple[str, Tuple[int, ...]]] = []
    for F in sheaves:
        bundle.extend(F.bundle)
        torsion.extend(F.torsion)
    return normalize(bundle, torsion)


def numeric_invariants(F: CoherentSheaf):
    """(rank, degree, slope). Slope is INFINITY for pure torsion and None for 0."""
    r, d = F.rank, F.degree
    if F.is_zero:
        return r, d, None
    if r == 0:
        return r, d, INFINITY
    return r, d, reduce(d, r)


def hn(F: CoherentSheaf) -> List[Tuple[Slope, CoherentSheaf]]:
    """Harder-Narasimhan pieces with strictly decreasing slopes.

    Torsion (slope infinity) comes first; the filtration splits, so each
    piece is returned as a summand.
    """
    if F.is_zero:
        raise ValueError("the zero sheaf has no HN filtration")
    pieces: List[Tuple[Slope, CoherentSheaf]] = []
    if F.torsion:
        pieces.append((INFINITY, CoherentSheaf((), F.torsion)))
    for s, m in F.bundle:
        pieces.append((s, CoherentSheaf(((s, m),), ())))
    return pieces


# ------------------------------------------------------------------ cohomology


#: the bundle atoms of O, the source of H^0 = Hom(O, -) and H^1 = Ext^1(O, -)
_UNIT = ((Slope(0), 1),)


def _pairing(src: Sequence[BundleAtom], dst: Sequence[BundleAtom]) -> Tuple[BCInvariant, BCInvariant]:
    """(Hom, Ext^1) between the bundle atoms, in one walk down both lists.

    O(lam)^a, O(mu)^b add a*b*(D, h_lam*h_mu), D = d_mu*h_lam - d_lam*h_mu,
    to Hom when D >= 0 and its negative to Ext^1 when D < 0, that is lam > mu.
    Slopes descend, so for each mu the lam > mu are a prefix of src: Ext^1
    reads running sums of a*h_lam and a*d_lam over it, Hom the totals minus them.
    """
    H, Dg = sum(a * lam.h for lam, a in src), sum(a * lam.d for lam, a in src)
    i = ph = pd = hd = hh = ed = eh = 0
    for mu, b in dst:
        while i < len(src) and mu < src[i][0]:
            lam, a = src[i]
            ph, pd, i = ph + a * lam.h, pd + a * lam.d, i + 1
        hd += b * (mu.d * (H - ph) - mu.h * (Dg - pd))
        hh += b * mu.h * (H - ph)
        ed += b * (mu.h * pd - mu.d * ph)
        eh -= b * mu.h * ph
    return BCInvariant(hd, hh), BCInvariant(ed, eh)


def h0(F: CoherentSheaf) -> BCInvariant:
    return _pairing(_UNIT, F.bundle)[0] + (F.torsion_length, 0)


def h1(F: CoherentSheaf) -> BCInvariant:
    return _pairing(_UNIT, F.bundle)[1]


def chi(F: CoherentSheaf) -> BCInvariant:
    out = h0(F) - h1(F)
    # Riemann-Roch shape: chi = (degree, rank)
    if out != BCInvariant(F.degree, F.rank):
        raise CertificateError(
            "Riemann-Roch failed: chi = %s, (degree, rank) = (%d, %d)"
            % (tuple(out), F.degree, F.rank)
        )
    return out


# --------------------------------------------------------------------- hom/ext


def hom(F: CoherentSheaf, G: CoherentSheaf) -> BCInvariant:
    """Hom-space invariant, bilinear over the normal forms."""
    # bundle into torsion: rank * length sections of the stalk
    tors = F.rank * G.torsion_length + _torsion_pairing(F, G)
    return _pairing(F.bundle, G.bundle)[0] + (tors, 0)


def ext1(F: CoherentSheaf, G: CoherentSheaf) -> BCInvariant:
    # torsion against bundles: dual pairing, length * rank
    tors = F.torsion_length * G.rank + _torsion_pairing(F, G)
    return _pairing(F.bundle, G.bundle)[1] + (tors, 0)


def ext2(F: CoherentSheaf, G: CoherentSheaf) -> BCInvariant:
    # the curve is regular of dimension 1
    return BCInvariant(0, 0)


def _torsion_pairing(F: CoherentSheaf, G: CoherentSheaf) -> int:
    """Same-point pairing: sum of min(a, b) over factor pairs, in one merge of
    the descending lists from their small ends, where the smaller end is the
    min against every factor still left in the other list."""
    gt = dict(G.torsion)
    total = 0
    for label, fs in F.torsion:
        fs, gs = list(fs), list(gt.get(label, ()))
        while fs and gs:
            if fs[-1] > gs[-1]:
                fs, gs = gs, fs
            total += fs.pop() * len(gs)
    return total


# -------------------------------------------------------------------------- K0


def k0_class(F: CoherentSheaf) -> Tuple[int, int]:
    """Class a*[O] + b*[O(1)], solved from rank = a + b, degree = b."""
    a = b = 0
    for s, m in F.bundle:
        a += m * (s.h - s.d)
        b += m * s.d
    for _, fs in F.torsion:
        k = sum(fs)
        a -= k
        b += k
    return a, b


# --------------------------------------------------------------- tilted values


class TiltedObject(Frozen):
    """Object of the tilted heart: (neg placed in degree -1, pos in degree 0).

    neg carries only bundle atoms of slope < 0; pos carries slopes >= 0
    and all torsion.
    """

    def __init__(self, neg: CoherentSheaf, pos: CoherentSheaf):
        if neg.torsion:
            raise ValueError("the degree -1 part cannot contain torsion")
        if any(s.d >= 0 for s, _ in neg.bundle):
            raise ValueError("degree -1 slopes must be < 0")
        if any(s.d < 0 for s, _ in pos.bundle):
            raise ValueError("degree 0 slopes must be >= 0")
        _set(self, "neg", neg)
        _set(self, "pos", pos)

    @property
    def is_zero(self) -> bool:
        return self.neg.is_zero and self.pos.is_zero

    def k0_class(self) -> Tuple[int, int]:
        an, bn = k0_class(self.neg)
        ap, bp = k0_class(self.pos)
        return ap - an, bp - bn

    @property
    def rank(self) -> int:
        a, b = self.k0_class()
        return a + b

    @property
    def degree(self) -> int:
        return self.k0_class()[1]

    def __str__(self) -> str:
        if self.pos.is_zero and not self.neg.is_zero:
            # neg holds only bundle atoms, none of them "O" (slope < 0)
            return " + ".join(atom + "[1]" for atom in str(self.neg).split(" + "))
        return "tilted(%s; %s)" % (self.neg, self.pos)


# ------------------------------------------------------------------- sequences


class ShortExactSequence(Frozen):
    """A certified short exact sequence; entries live in the tilted heart."""

    def __init__(self, left: TiltedObject, middle: TiltedObject, right: TiltedObject,
                 tag: str = "composite"):
        _set(self, "left", left)
        _set(self, "middle", middle)
        _set(self, "right", right)
        _set(self, "tag", tag)

    def validate(self) -> "ShortExactSequence":
        lm, rm, mm = self.left.k0_class(), self.right.k0_class(), self.middle.k0_class()
        if mm != (lm[0] + rm[0], lm[1] + rm[1]):
            raise ValueError(
                "additivity fails for %s: %s != %s + %s" % (self.tag, mm, lm, rm)
            )
        return self

    def __str__(self) -> str:
        return "0 -> %s -> %s -> %s -> 0  [%s]" % (
            self.left,
            self.middle,
            self.right,
            self.tag,
        )


def _plain(F: CoherentSheaf) -> TiltedObject:
    return TiltedObject(CoherentSheaf.zero(), F)


def _shifted(F: CoherentSheaf) -> TiltedObject:
    return TiltedObject(F, CoherentSheaf.zero())


def se1(d: int) -> ShortExactSequence:
    """0 -> O -> O(1) + O(d-1) -> O(d) -> 0 for d > 1."""
    _check_int(d, "the d of se1", 2)
    return ShortExactSequence(
        _plain(O(0)), _plain(direct_sum(O(1), O(d - 1))), _plain(O(d)), "se1"
    ).validate()


def se2(k: int) -> ShortExactSequence:
    """0 -> O -> O(k) -> T(inf,[k]) -> 0 for k > 0."""
    _check_int(k, "the k of se2", 1)
    return ShortExactSequence(
        _plain(O(0)), _plain(O(k)), _plain(T([k])), "se2"
    ).validate()


def se3(k: int) -> ShortExactSequence:
    """0 -> O -> T(inf,[k]) -> O(-k)[1] -> 0 for k > 0."""
    _check_int(k, "the k of se3", 1)
    return ShortExactSequence(
        _plain(O(0)), _plain(T([k])), _shifted(O(-k)), "se3"
    ).validate()
