"""Descriptors and presentations on the Banach-Colmez side.

An object of the tilted heart is read off atom by atom: positive slopes
give universal-cover atoms U(d/h), slope 0 gives copies of Qp, torsion
gives Ga jets, and shifted negative slopes give cokernel atoms. The
additive (dimension, height) pair matches (degree, rank) in the heart.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import Frozen, _set
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


def _atom_invariant(atom: Atom) -> BCInvariant:
    kind, payload = atom
    if kind == "QP":
        return BCInvariant(0, payload)
    if kind == "GA":
        return BCInvariant(sum(payload[1]), 0)
    d, h, m = payload
    if kind == "U":
        return BCInvariant(d * m, h * m)
    # cokernel atom for O(d/h)[1], d < 0
    return BCInvariant(-d * m, -h * m)


def _atom_str(atom: Atom) -> str:
    kind, payload = atom
    if kind == "QP":
        return "Qp" if payload == 1 else "Qp^%d" % payload
    if kind == "GA":
        label, fs = payload
        body = "Ga[%s]" % ",".join(str(k) for k in fs)
        return body if label == "inf" else body + "@" + label
    d, h, m = payload
    slope = str(Slope(d, h))
    body = "U(%s)" % slope if kind == "U" else "Coker(%s)" % slope
    return body if m == 1 else body + "^%d" % m


class BCDescriptor(Frozen):
    """Atom list with its additive (dimension, height) invariant."""

    def __init__(self, atoms: Tuple[Atom, ...]):
        _set(self, "atoms", atoms)

    @property
    def invariant(self) -> BCInvariant:
        total = BCInvariant(0, 0)
        for atom in self.atoms:
            total = total + _atom_invariant(atom)
        return total

    def __str__(self) -> str:
        if not self.atoms:
            return "0"
        return " + ".join(_atom_str(a) for a in self.atoms)

    def to_json(self) -> dict:
        out = []
        for kind, payload in self.atoms:
            if kind == "QP":
                out.append({"kind": "Qp", "mult": payload})
            elif kind == "GA":
                out.append(
                    {"kind": "Ga", "label": payload[0], "lengths": list(payload[1])}
                )
            else:
                d, h, m = payload
                out.append(
                    {
                        "kind": "U" if kind == "U" else "Coker",
                        "slope": str(Slope(d, h)),
                        "mult": m,
                    }
                )
        inv = self.invariant
        return {"atoms": out, "dim": inv.dim, "ht": inv.ht}


def r0tau(x) -> BCDescriptor:
    """Atom decomposition of a heart object on the Banach-Colmez side.

    Order follows the slope filtration: cokernel atoms, then Ga jets,
    then U atoms, with the Qp block last.
    """
    A = _as_heart(x)
    atoms: List[Atom] = []
    for s, m in A.neg.bundle:
        atoms.append(("COKER", (s.d, s.h, m)))
    for label, fs in A.pos.torsion:
        atoms.append(("GA", (label, fs)))
    qp = 0
    for s, m in A.pos.bundle:
        if s.d == 0:
            qp += m
        else:
            atoms.append(("U", (s.d, s.h, m)))
    if qp:
        atoms.append(("QP", qp))
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


class PresentationCertificate(Frozen):
    """Two-term resolution 0 -> O^a -> middle -> target -> 0.

    The kernel is slope-0 of rank a, every middle slope lies in [0, 1],
    and steps records the splice ladder the composite was built from.
    Atoms handled on a degree-h cover are listed in levels.
    """

    def __init__(self, target: TiltedObject, a: int, middle: CoherentSheaf,
                 steps: Tuple[ShortExactSequence, ...], final: ShortExactSequence,
                 levels: Tuple[Tuple[str, int], ...] = ()):
        _set(self, "target", target)
        _set(self, "a", a)
        _set(self, "middle", middle)
        _set(self, "steps", steps)
        _set(self, "final", final)
        _set(self, "levels", levels)

    def validate(self) -> "PresentationCertificate":
        for step in self.steps:
            step.validate()
        self.final.validate()
        if self.final.right != self.target:
            raise ValueError("presentation does not end at its target")
        want_left = _plain(O(0, mult=self.a)) if self.a else _plain(_ZERO)
        if self.final.left != want_left:
            raise ValueError("kernel is not O^%d" % self.a)
        if self.final.middle != _plain(self.middle):
            raise ValueError("middle term mismatch")
        if self.middle.torsion:
            raise ValueError("middle term must be torsion free")
        for s, _ in self.middle.bundle:
            if s.d < 0 or s.d > s.h:
                raise ValueError("middle slope %s outside [0, 1]" % s)
        return self

    def __str__(self) -> str:
        return str(self.final)


def effective_presentation(x) -> PresentationCertificate:
    """Resolve a heart object by slope-[0,1] bundles with slope-0 kernel.

    Integer twists unroll through the elementary twist ladder; torsion
    splices the evaluation sequence onto that ladder; shifted negatives
    splice through torsion. Slopes d/h with h > 1 run the same ladder on
    the degree-h cover and push down, which multiplies the kernel rank
    by h.
    """
    A = _as_heart(x)
    a_total = 0
    mid_parts: List[CoherentSheaf] = []
    steps: List[ShortExactSequence] = []
    levels: List[Tuple[str, int]] = []

    def ladder(d: int) -> None:
        # splice certificates for O(d) <- O(1)+O(d-1) <- ... , d >= 2
        for j in range(2, d + 1):
            steps.append(se1(j))

    def composite(a: int, mid: CoherentSheaf, right: TiltedObject, h: int) -> None:
        nonlocal a_total
        steps.append(
            ShortExactSequence(
                _plain(O(0, mult=a)) if a else _plain(_ZERO),
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
        if h > 1:
            levels.append((str(s), h))
        ladder(d)
        composite(m * h * (d - 1), O(1, h, mult=m * d), _plain(O(d, h, mult=m)), h)
    for label, fs in A.pos.torsion:
        for k in fs:
            steps.append(se2(k))
            ladder(k)
            composite(k, O(1, mult=k), _plain(T([k], label)), 1)
    for s, m in A.neg.bundle:
        d, h = -s.d, s.h
        if h > 1:
            levels.append((str(s), h))
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
    final = ShortExactSequence(
        _plain(O(0, mult=a_total)) if a_total else _plain(_ZERO),
        _plain(middle),
        A,
        "presentation",
    )
    return PresentationCertificate(
        A, a_total, middle, tuple(steps), final, tuple(levels)
    ).validate()
