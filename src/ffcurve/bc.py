"""Descriptors and presentations on the Banach-Colmez side.

An object of the tilted heart is read off atom by atom: positive slopes
give universal-cover atoms U(d/h), slope 0 gives copies of Qp, torsion
gives Ga jets, and shifted negative slopes give cokernel atoms. One
function per atom gives its text, its JSON entry and its additive
(dimension, height), which matches (degree, rank) in the heart. A
presentation stores its target, kernel rank, middle and splice steps.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import Frozen, _check_budget, _set
from .sheaves import (
    BCInvariant,
    CoherentSheaf,
    O,
    ShortExactSequence,
    T,
    TiltedObject,
    _plain,
    direct_sum,
    ext1,
    ext2,
    hom,
    se1,
    se2,
    se3,
)
from .slopes import Slope
from .tilting import _as_heart

Atom = Tuple[str, object]

_ZERO = CoherentSheaf.zero()

#: cold `present` at 20,000 steps: 0.83-0.87 s on one atom, up to 1.15 s on many (2 vCPUs)
MAX_PRESENT_STEPS = 20_000


def _atom(atom: Atom) -> Tuple[str, dict, BCInvariant]:
    """Text, ffcurve/1 JSON entry and (dim, ht) of one descriptor atom."""
    kind, payload = atom
    if kind == "QP":
        text = "Qp" if payload == 1 else "Qp^%d" % payload
        return text, {"kind": "Qp", "mult": payload}, BCInvariant(0, payload)
    if kind == "GA":
        label, fs = payload
        text = "Ga[%s]" % ",".join(str(k) for k in fs)
        text = text if label == "inf" else text + "@" + label
        return text, {"kind": "Ga", "label": label, "lengths": list(fs)}, BCInvariant(sum(fs), 0)
    # U(d/h)^m, or the cokernel atom of O(d/h)^m[1] with d < 0, of class -(d, h)m
    d, h, m = payload
    name, sign = ("U", 1) if kind == "U" else ("Coker", -1)
    slope = str(Slope(d, h))
    text = "%s(%s)" % (name, slope) if m == 1 else "%s(%s)^%d" % (name, slope, m)
    return text, {"kind": name, "slope": slope, "mult": m}, BCInvariant(sign * d * m, sign * h * m)


class BCDescriptor(Frozen):
    """Atom list; its text, JSON and (dimension, height) are read off _atom per atom."""

    def __init__(self, atoms: Tuple[Atom, ...]):
        _set(self, "atoms", atoms)

    @property
    def invariant(self) -> BCInvariant:
        return sum((_atom(a)[2] for a in self.atoms), BCInvariant(0, 0))

    def __str__(self) -> str:
        return " + ".join(_atom(a)[0] for a in self.atoms) or "0"

    def to_json(self) -> dict:
        inv = self.invariant
        return {"atoms": [_atom(a)[1] for a in self.atoms], "dim": inv.dim, "ht": inv.ht}


def r0tau(x) -> BCDescriptor:
    """Atom decomposition of a heart object on the Banach-Colmez side.

    Order follows the slope filtration: cokernel atoms, then Ga jets, then
    the degree-0 part's bundle atoms in their stored descending order, so
    the one slope-0 atom, the Qp block, comes last.
    """
    A = _as_heart(x)
    atoms: List[Atom] = [("COKER", (s.d, s.h, m)) for s, m in A.neg.bundle]
    atoms += [("GA", t) for t in A.pos.torsion]
    atoms += [("QP", m) if s.d == 0 else ("U", (s.d, s.h, m)) for s, m in A.pos.bundle]
    return BCDescriptor(tuple(atoms))


def dim_ht(x) -> BCInvariant:
    """(dimension, height) = (degree, rank) taken in the tilted heart."""
    A = _as_heart(x)
    return BCInvariant(A.degree, A.rank)


def breen_tables() -> dict:
    """Hom/Ext tables for the pair (Ga, Qp), derived from the sheaf rules.

    The dictionary sends Ga to the length-1 torsion sheaf and Qp to the
    structure sheaf; rows index the source, columns the target.
    """
    objs = (T([1]), O(0))

    def table(f):
        return tuple(tuple(f(X, Y) for Y in objs) for X in objs)

    return {
        "labels": ("GA", "QP"),
        "hom": table(hom),
        "ext1": table(ext1),
        "ext2": table(ext2),
    }


# -------------------------------------------------------------- presentations


def _kernel(a: int) -> TiltedObject:
    """O^a in degree 0."""
    return _plain(O(0, mult=a)) if a else _plain(_ZERO)


class PresentationCertificate(Frozen):
    """Two-term resolution 0 -> O^a -> middle -> target -> 0.

    Stores the target, a, the middle and the splice ladder steps; final and
    levels are derived from them. The kernel is slope-0 of rank a and every
    middle slope lies in [0, 1].
    """

    def __init__(self, target: TiltedObject, a: int, middle: CoherentSheaf,
                 steps: Tuple[ShortExactSequence, ...]):
        _set(self, "target", target)
        _set(self, "a", a)
        _set(self, "middle", middle)
        _set(self, "steps", steps)

    @property
    def final(self) -> ShortExactSequence:
        """0 -> O^a -> middle -> target -> 0, tagged presentation."""
        return ShortExactSequence(_kernel(self.a), _plain(self.middle), self.target,
                                  "presentation")

    @property
    def levels(self) -> Tuple[Tuple[str, int], ...]:
        """(slope, h) of each atom with h > 1 resolved on the degree-h cover:
        positive slopes above 1, then shifted negatives."""
        covered = [s for s, _ in self.target.pos.bundle if s.d > s.h]
        covered += [s for s, _ in self.target.neg.bundle]
        return tuple((str(s), s.h) for s in covered if s.h > 1)

    def validate(self) -> "PresentationCertificate":
        for step in self.steps:
            step.validate()
        self.final.validate()
        if self.middle.torsion:
            raise ValueError("middle term must be torsion free")
        for s, _ in self.middle.bundle:
            if s.d < 0 or s.d > s.h:
                raise ValueError("middle slope %s outside [0, 1]" % s)
        return self

    def __str__(self) -> str:
        return str(self.final)


def _present_steps(A: TiltedObject) -> int:
    """Splice steps of A's presentation: d per positive atom d/h with d > h,
    k + 1 per torsion factor k, d + 2 per shifted atom of slope -d/h."""
    return (sum(s.d for s, _ in A.pos.bundle if s.d > s.h)
            + sum(k + 1 for _, fs in A.pos.torsion for k in fs)
            + sum(2 - s.d for s, _ in A.neg.bundle))


def effective_presentation(x) -> PresentationCertificate:
    """Resolve a heart object by slope-[0,1] bundles with slope-0 kernel.

    Integer twists unroll through the elementary twist ladder; torsion
    splices the evaluation sequence onto that ladder; shifted negatives
    splice through torsion. Slopes d/h with h > 1 run the same ladder on
    the degree-h cover and push down, which multiplies the kernel rank
    by h. An object whose presentation takes over MAX_PRESENT_STEPS steps
    raises BudgetError before any of them.
    """
    A = _as_heart(x)
    _check_budget(_present_steps(A), "MAX_PRESENT_STEPS", MAX_PRESENT_STEPS,
                  "%d presentation steps are")
    a_total = 0
    mid_parts: List[CoherentSheaf] = []
    steps: List[ShortExactSequence] = []

    def ladder(d: int) -> None:
        # splice certificates for O(d) <- O(1)+O(d-1) <- ... , d >= 2
        for j in range(2, d + 1):
            steps.append(se1(j))

    def composite(a: int, mid: CoherentSheaf, right: TiltedObject, h: int) -> None:
        nonlocal a_total
        steps.append(
            ShortExactSequence(
                _kernel(a),
                _plain(mid),
                right,
                "composite" if h == 1 else "composite@level%d" % h,
            ).validate()
        )
        a_total += a
        mid_parts.append(mid)

    for s, m in A.pos.bundle:
        if s.d <= s.h:
            # slope already in [0, 1]: building block, nothing to resolve
            mid_parts.append(CoherentSheaf(((s, m),), ()))
            continue
        d, h = s.d, s.h
        ladder(d)
        composite(m * h * (d - 1), O(1, h, mult=m * d), _plain(O(d, h, mult=m)), h)
    for label, fs in A.pos.torsion:
        for k in fs:
            steps.append(se2(k))
            ladder(k)
            composite(k, O(1, mult=k), _plain(T([k], label)), 1)
    for s, m in A.neg.bundle:
        d, h = -s.d, s.h
        steps.append(se3(d))
        steps.append(se2(d))
        ladder(d)
        composite(
            m * h * (d + 1),
            O(1, h, mult=m * d),
            TiltedObject(O(-d, h, mult=m), _ZERO),
            h,
        )

    middle = direct_sum(*mid_parts) if mid_parts else _ZERO
    return PresentationCertificate(A, a_total, middle, tuple(steps)).validate()
