"""Descriptors and presentations on the Banach-Colmez side.

An object of the tilted heart is read off atom by atom: positive slopes
give universal-cover atoms U(d/h), slope 0 gives copies of Qp, torsion
gives Ga jets, and shifted negative slopes give cokernel atoms. One
function per atom gives its text, its JSON entry and its additive
(dimension, height), which matches (degree, rank) in the heart. A
presentation stores its target, kernel rank, middle and splice steps; one
walk lists the atoms it resolves with their closed forms, and its budget,
steps, kernel rank, middle, levels and composition check all read it.
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


def _rung(s: Slope, m: int, label: str = None) -> tuple:
    """(pre-steps, d, kernel rank, middle, right term, s) of one resolved atom.

    The atom is O(s)^m, shifted if s < 0, or with a label the torsion factor
    T(label,[d]), read as s = d/1 and m = 1. Integer twists unroll through the
    twist ladder se1(2..d); torsion splices se2(d) onto it, and shifted atoms
    se3(d) then se2(d), pre-steps held as (function, argument) pairs. Slopes
    ±d/h run the ladder on the degree-h cover and push down. Each splice has
    kernel O, so the kernel rank is m·h per splice and the middle O(1/h)^(m·d).
    """
    d, h = abs(s.d), s.h
    if label is not None:
        pre, right = ((se2, d),), _plain(CoherentSheaf((), ((label, (d,)),)))
    elif s.d < 0:
        pre, right = ((se3, d), (se2, d)), TiltedObject(CoherentSheaf(((s, m),), ()), _ZERO)
    else:
        pre, right = (), _plain(CoherentSheaf(((s, m),), ()))
    return pre, d, m * h * (len(pre) + d - 1), O(1, h, mult=m * d), right, s


def _walk(A: TiltedObject) -> Tuple[List[tuple], List[CoherentSheaf]]:
    """The atoms A's presentation resolves, as _rung tuples in step order
    (positive slopes above 1, torsion factors, shifted atoms), and the
    slope-[0, 1] atoms that pass straight to the middle."""
    resolved, flat = [], []
    for s, m in A.pos.bundle:
        if s.d <= s.h:
            flat.append(CoherentSheaf(((s, m),), ()))
        else:
            resolved.append(_rung(s, m))
    resolved += [_rung(Slope(k, 1), 1, label) for label, fs in A.pos.torsion for k in fs]
    resolved += [_rung(s, m) for s, m in A.neg.bundle]
    return resolved, flat


class PresentationCertificate(Frozen):
    """Two-term resolution 0 -> O^a -> middle -> target -> 0.

    Stores the target, a, the middle and the splice steps; final and levels
    are derived. validate checks each step, final's K0 additivity and a
    torsion-free middle of slopes in [0, 1], then that the composite steps
    compose to final: their right terms are the target's resolved atoms in
    order, their kernel ranks sum to a, and their middles with the target's
    slope-[0, 1] atoms sum to the middle.
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
        """(slope, h) of each resolved atom run on a degree-h cover, h > 1."""
        return tuple((str(s), s.h) for *_, s in _walk(self.target)[0] if s.h > 1)

    def validate(self) -> "PresentationCertificate":
        for step in self.steps:
            step.validate()
        self.final.validate()
        if self.middle.torsion:
            raise ValueError("middle term must be torsion free")
        for s, _ in self.middle.bundle:
            if s.d < 0 or s.d > s.h:
                raise ValueError("middle slope %s outside [0, 1]" % s)
        resolved, flat = _walk(self.target)
        composites = [st for st in self.steps if st.tag.startswith("composite")]
        if ([st.right for st in composites] != [r[4] for r in resolved]
                or sum(st.left.rank for st in composites) != self.a
                or direct_sum(*(st.middle.pos for st in composites), *flat) != self.middle):
            raise ValueError("the composite steps do not compose to the presentation")
        return self

    def __str__(self) -> str:
        return str(self.final)


def effective_presentation(x) -> PresentationCertificate:
    """Resolve a heart object by slope-[0,1] bundles with slope-0 kernel: the
    steps of each _walk atom, then its composite; kernel ranks and middles add
    up. Over MAX_PRESENT_STEPS steps raises BudgetError before any of them."""
    A = _as_heart(x)
    resolved, flat = _walk(A)
    _check_budget(sum(len(pre) + d for pre, d, *_ in resolved), "MAX_PRESENT_STEPS",
                  MAX_PRESENT_STEPS, "%d presentation steps are")
    steps: List[ShortExactSequence] = []
    for pre, d, a, mid, right, s in resolved:
        steps += [f(n) for f, n in pre]
        # the twist ladder O(d) <- O(1) + O(d-1) <- ... , one splice per j
        steps += [se1(j) for j in range(2, d + 1)]
        tag = "composite" if s.h == 1 else "composite@level%d" % s.h
        steps.append(ShortExactSequence(_kernel(a), _plain(mid), right, tag).validate())
    middle = direct_sum(*(r[3] for r in resolved), *flat)
    return PresentationCertificate(A, sum(r[2] for r in resolved), middle,
                                   tuple(steps)).validate()
