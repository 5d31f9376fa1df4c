"""The tilt of the coherent heart at slope 0 and its slope theory.

Objects of the tilted heart split as (negative-slope part shifted into
degree -1, non-negative part in degree 0) because Ext^2 vanishes on the
curve. The tilted degree and rank are deg- = -rank, rg- = degree, and the
tilted slope mu- = -rank/degree, with slope-0 bundles sitting at mu- =
minus infinity. Tilting once more at mu- = 0 recovers the coherent heart;
the double-tilt functor just unshifts.
"""

from __future__ import annotations

from functools import total_ordering
from typing import List, Tuple

from .errors import Frozen, _set
from .sheaves import (
    BCInvariant,
    CoherentSheaf,
    TiltedObject,
    direct_sum,
    ext1,
    hom,
)


@total_ordering
class _MinusInfinity:
    """Exact minus infinity: below every int and Fraction, equal only to itself."""

    __slots__ = ()

    def __lt__(self, other):
        if other is self:
            return False
        from fractions import Fraction
        return True if isinstance(other, (int, Fraction)) else NotImplemented

    def __repr__(self):
        return "-inf"

    def __reduce__(self):
        # pickle and deepcopy hand back the module's one instance
        return "MU_MINUS_INFINITY"


#: The tilted slope of slope-0 bundles.
MU_MINUS_INFINITY = _MinusInfinity()


def split_torsion_pair(F: CoherentSheaf) -> Tuple[CoherentSheaf, CoherentSheaf]:
    """Split F = below + above with slopes(below) < 0 <= slopes(above).

    Torsion counts as slope infinity and lands above. There are no maps from
    the above part into the below part, which is what makes the pair a
    torsion pair.
    """
    below = [(s, m) for s, m in F.bundle if s.d < 0]
    above = [(s, m) for s, m in F.bundle if s.d >= 0]
    return (
        CoherentSheaf(tuple(below), ()),
        CoherentSheaf(tuple(above), F.torsion),
    )


def tilt(F: CoherentSheaf) -> TiltedObject:
    """Place the negative-slope part in degree -1 and the rest in degree 0."""
    below, above = split_torsion_pair(F)
    return TiltedObject(below, above)


def _as_heart(x) -> TiltedObject:
    return x if isinstance(x, TiltedObject) else tilt(x)


def double_tilt(A: TiltedObject) -> CoherentSheaf:
    """Tilt the tilted heart once more and read the result as a sheaf.

    On split objects the second tilt composed with the shift equivalence
    simply forgets which part was shifted.
    """
    return direct_sum(A.neg, A.pos)


def tilted_invariants(A: TiltedObject):
    """(deg-, rg-, mu-) of a tilted object.

    With (r, d) the rank and degree of the class [pos] - [neg]:
    deg- = -r, rg- = d, mu- = -r/d; mu- is minus infinity when d = 0.
    """
    if A.is_zero:
        raise ValueError("the zero object has no tilted slope")
    from fractions import Fraction
    a, b = A.k0_class()
    r, d = a + b, b
    if d == 0:
        return -r, d, MU_MINUS_INFINITY
    return -r, d, Fraction(-r, d)


def hn_minus(A: TiltedObject) -> List[Tuple[object, TiltedObject]]:
    """HN pieces for the tilted slope, strictly decreasing.

    Order of atom families: shifted negative stables (mu- = -1/slope > 0),
    torsion (mu- = 0), positive stables (mu- = -h/d < 0), slope-0 bundles
    (mu- = minus infinity). mu- = -h/d falls as d/h falls within each sign,
    so reading each part in its stored descending slope order needs no sort.
    """
    if A.is_zero:
        raise ValueError("the zero object has no HN filtration")
    from fractions import Fraction
    zero = CoherentSheaf.zero()
    pieces: List[Tuple[object, TiltedObject]] = []
    for s, m in A.neg.bundle:
        mu = Fraction(s.h, -s.d)
        pieces.append((mu, TiltedObject(CoherentSheaf(((s, m),), ()), zero)))
    if A.pos.torsion:
        pieces.append((Fraction(0), TiltedObject(zero, CoherentSheaf((), A.pos.torsion))))
    for s, m in A.pos.bundle:
        mu = MU_MINUS_INFINITY if s.d == 0 else Fraction(-s.h, s.d)
        pieces.append((mu, TiltedObject(zero, CoherentSheaf(((s, m),), ()))))
    return pieces


class HomMatrix(Frozen):
    """2x2 block of hom invariants plus their sum."""

    def __init__(self, entries: Tuple[Tuple[BCInvariant, BCInvariant], ...]):
        _set(self, "entries", entries)

    @property
    def total(self) -> BCInvariant:
        out = BCInvariant(0, 0)
        for row in self.entries:
            for e in row:
                out = out + e
        return out

    def __str__(self) -> str:
        rows = [
            "[%s  %s]" % (row[0], row[1]) for row in self.entries
        ]
        return "\n".join(rows) + "\ntotal %s" % (self.total,)


def hom_tilted(A: TiltedObject, B: TiltedObject) -> HomMatrix:
    """Hom matrix in the tilted heart.

    Rows index the target part (neg, pos) and columns the source part
    (neg, pos), so entries[r][c] is the hom from source part c into target
    part r. The corner [0][1], from the source pos part into the target neg
    part, is Ext^1(A.pos, B.neg) of sheaves; the corner [1][0] vanishes.
    """
    return HomMatrix(
        (
            (hom(A.neg, B.neg), ext1(A.pos, B.neg)),
            (BCInvariant(0, 0), hom(A.pos, B.pos)),
        )
    )


def ext1_tilted(A: TiltedObject, B: TiltedObject) -> BCInvariant:
    """Ext^1 in the tilted heart, expanded over the split parts."""
    return ext1(A.neg, B.neg) + hom(A.neg, B.pos) + ext1(A.pos, B.pos)
