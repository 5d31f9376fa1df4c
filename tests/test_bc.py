"""Banach-Colmez descriptors, the breen table oracle, and presentations.

The twelve table entries are frozen literals; the presentation certificates
are checked against the K0/rank/degree additivity oracle at every splice.
"""

import random
from fractions import Fraction

import pytest

from ffcurve import bc
from ffcurve.bc import (
    BCDescriptor,
    PresentationCertificate,
    breen_tables,
    dim_ht,
    effective_presentation,
    r0tau,
)
from ffcurve.sheaves import (
    BCInvariant,
    CoherentSheaf,
    O,
    ShortExactSequence,
    T,
    TiltedObject,
    _plain,
    direct_sum,
    se1,
    se2,
    se3,
)
from ffcurve.errors import BudgetError
from ffcurve.tilting import _as_heart, tilt

from gen import random_sheaf, random_tilted

ZERO = CoherentSheaf.zero()


# ----------------------------------------------------------------------- r0tau


def test_r0tau_structure_sheaf_is_qp():
    D = r0tau(tilt(O(0)))
    assert D.atoms == (("QP", 1),)
    assert D.invariant == BCInvariant(0, 1)


def test_r0tau_twist_is_u_atom():
    D = r0tau(tilt(O(1)))
    assert D.atoms == (("U", (1, 1, 1)),)
    assert D.invariant == BCInvariant(1, 1)


def test_r0tau_shifted_negative():
    D = r0tau(TiltedObject(O(-1), ZERO))
    assert D.invariant == BCInvariant(1, -1)
    assert D.atoms == (("COKER", (-1, 1, 1)),)


def test_r0tau_torsion_lengths():
    D = r0tau(tilt(T([3, 1])))
    assert D.atoms == (("GA", ("inf", (3, 1))),)
    assert D.invariant == BCInvariant(4, 0)


def test_r0tau_mixed_atoms_and_additivity():
    A = TiltedObject(O(-1, 2), direct_sum(O(0, mult=2), O(2, 3), T([2])))
    D = r0tau(A)
    kinds = sorted(a[0] for a in D.atoms)
    assert kinds == ["COKER", "GA", "QP", "U"]
    assert D.invariant == BCInvariant(2 + 2 + 1, 3 + 2 - 2)


# ---------------------------------------------------------------------- dim_ht


def test_dim_ht_examples():
    for k in (1, 3):
        assert dim_ht(tilt(T([k]))) == BCInvariant(k, 0)
    assert dim_ht(tilt(O(0))) == BCInvariant(0, 1)
    assert dim_ht(TiltedObject(O(-2, 3), ZERO)) == BCInvariant(2, -3)


def test_dim_ht_equals_r0tau_invariant_randomized():
    rng = random.Random(41)
    for _ in range(300):
        A = random_tilted(rng)
        a, b = A.k0_class()
        r, d = a + b, b
        assert dim_ht(A) == BCInvariant(d, r)
        assert dim_ht(A) == r0tau(A).invariant


def test_dim_ht_additive_on_certificates():
    for s in [se1(2), se1(6), se2(2), se2(5), se3(1), se3(4)]:
        l, m, r = (dim_ht(e) for e in (s.left, s.middle, s.right))
        assert m == l + r


# ---------------------------------------------------------------- breen tables


def test_breen_tables_exact():
    tables = breen_tables()
    C = BCInvariant(1, 0)
    QP = BCInvariant(0, 1)
    Z = BCInvariant(0, 0)
    assert tables["hom"] == ((C, Z), (C, QP))
    assert tables["ext1"] == ((C, C), (Z, Z))
    assert tables["ext2"] == ((Z, Z), (Z, Z))


def test_breen_labels_order():
    tables = breen_tables()
    assert tables["labels"] == ("GA", "QP")


# --------------------------------------------------------------- presentations


def _check_certificate(cert, target):
    cert.validate()
    assert cert.final.right == target
    # kernel is a slope-0 semistable
    kernel = cert.final.left
    assert kernel.neg.is_zero
    assert not kernel.pos.torsion
    assert all(s.d == 0 for s, _ in kernel.pos.bundle)
    assert kernel.pos.rank == cert.a
    # middle slopes within [0, 1]
    middle = cert.final.middle
    assert middle.neg.is_zero and not middle.pos.torsion
    for s, _ in middle.pos.bundle:
        assert 0 <= Fraction(s.d, s.h) <= 1
    # class identity [middle] = a[O] + [target]
    am, bm = cert.final.middle.k0_class()
    at, bt = target.k0_class()
    assert (am, bm) == (at + cert.a, bt)


def test_presentation_integer_twist():
    cert = effective_presentation(tilt(O(2)))
    assert cert.a == 1
    assert cert.middle == O(1, mult=2)
    assert cert.levels == ()
    _check_certificate(cert, tilt(O(2)))
    assert any(s.tag == "se1" for s in cert.steps)


def test_presentation_torsion_uses_se2():
    target = tilt(T([3]))
    cert = effective_presentation(target)
    assert cert.a == 3
    assert cert.middle == O(1, mult=3)
    assert any(s.tag == "se2" for s in cert.steps)
    _check_certificate(cert, target)


def test_presentation_shifted_uses_se3():
    target = TiltedObject(O(-2), ZERO)
    cert = effective_presentation(target)
    assert cert.a == 3
    assert cert.middle == O(1, mult=2)
    assert cert.levels == ()
    assert any(s.tag == "se3" for s in cert.steps)
    _check_certificate(cert, target)


def test_presentation_fractional_levels():
    target = tilt(O(3, 2))
    cert = effective_presentation(target)
    assert cert.a == 4
    assert cert.middle == O(1, 2, mult=3)
    assert cert.levels == (("3/2", 2),)
    assert any("level" in s.tag for s in cert.steps)
    _check_certificate(cert, target)
    neg = TiltedObject(O(-3, 2), ZERO)
    cert2 = effective_presentation(neg)
    assert cert2.a == 8
    assert cert2.middle == O(1, 2, mult=3)
    assert cert2.levels == (("-3/2", 2),)
    _check_certificate(cert2, neg)


def test_presentation_certificate_str_is_its_final_sequence():
    cert = effective_presentation(TiltedObject(O(-1), O(2)))
    assert str(cert) == str(cert.final) == (
        "0 -> tilted(0; O^3) -> tilted(0; O(1)^3) -> tilted(O(-1); O(2)) -> 0  [presentation]"
    )
    assert str(effective_presentation(direct_sum(O(3, 2), T([2])))) == (
        "0 -> tilted(0; O^6) -> tilted(0; O(1)^2 + O(1/2)^3) -> tilted(0; O(3/2) + T(inf,[2]))"
        " -> 0  [presentation]"
    )


def test_presentation_small_slopes_left_alone():
    cert = effective_presentation(tilt(O(1, 2)))
    assert cert.a == 0 and cert.middle == O(1, 2) and cert.levels == ()
    cert = effective_presentation(tilt(O(0, mult=3)))
    assert cert.a == 0 and cert.middle == O(0, mult=3)
    cert = effective_presentation(tilt(O(1, mult=2)))
    assert cert.steps == () and cert.a == 0 and cert.middle == O(1, mult=2)


def test_presentation_randomized():
    rng = random.Random(43)
    for _ in range(200):
        A = random_tilted(rng, dmax=9, hmax=6, lenmax=6)
        cert = effective_presentation(A)
        _check_certificate(cert, A)
        for step in cert.steps:
            step.validate()


def test_presentation_step_count_is_its_closed_form():
    # d per positive atom d/h with d > h, k + 1 per torsion factor k, and
    # d + 2 per shifted atom of slope -d/h, whatever the multiplicities
    rng = random.Random(47)
    for i in range(300):
        x = random_tilted(rng, dmax=9, hmax=6) if i % 2 else random_sheaf(rng, dmax=9, hmax=6)
        A = _as_heart(x)
        want = (sum(s.d for s, _ in A.pos.bundle if s.d > s.h)
                + sum(k + 1 for _, fs in A.pos.torsion for k in fs)
                + sum(-s.d + 2 for s, _ in A.neg.bundle))
        assert len(effective_presentation(x).steps) == want


def test_present_budget_admits_its_bound_and_refuses_one_more(monkeypatch):
    # 5 for O(5/2), 4 for T(inf,[3]), 3 + 2 for T(x,[2,1]), 3 for O(-1)[1], 5 for O(-3/2)^2[1]
    A = TiltedObject(direct_sum(O(-3, 2, mult=2), O(-1)),
                     direct_sum(O(5, 2), O(0, mult=2), T([2, 1], "x"), T([3])))
    monkeypatch.setattr(bc, "MAX_PRESENT_STEPS", 22)
    assert len(effective_presentation(A).steps) == 22
    monkeypatch.setattr(bc, "MAX_PRESENT_STEPS", 21)
    with pytest.raises(BudgetError, match="^22 presentation steps are over the budget "
                                          "MAX_PRESENT_STEPS = 21$"):
        effective_presentation(A)


# ----------------------------------------------------------------- refusals


def _with(cert, **fields):
    # the certificate with some fields replaced, built through the constructor
    return PresentationCertificate(**{f: fields.get(f, getattr(cert, f)) for f in cert._fields})


# 0 -> O -> O(1) -> O(3) -> 0 claims the K0 class (0, 1) = (1, 0) + (-2, 3)
_NON_ADDITIVE = ShortExactSequence(_plain(O(0)), _plain(O(1)), _plain(O(3)), "se1")


def test_short_exact_sequence_refuses_non_additive_classes():
    with pytest.raises(ValueError, match="additivity fails for se1"):
        _NON_ADDITIVE.validate()


# final is derived from target, a and middle, so a corrupted one of them breaks
# its K0 additivity
@pytest.mark.parametrize("fields,message", [
    ({"target": tilt(O(4))}, "additivity fails for presentation"),
    ({"a": 3}, "additivity fails for presentation"),
    ({"middle": O(0, mult=3)}, "additivity fails for presentation"),
    ({"steps": (_NON_ADDITIVE,)}, "additivity fails for se1"),
], ids=["target", "kernel", "middle", "step"])
def test_presentation_refuses_a_corrupted_field(fields, message):
    cert = effective_presentation(tilt(O(3)))
    assert (cert.a, cert.middle) == (2, O(1, mult=3))
    assert _with(cert).validate() == cert
    with pytest.raises(ValueError, match=message):
        _with(cert, **fields).validate()


def test_presentation_refuses_a_torsion_middle():
    # the derived final is additive: (0, 1) = (1, 0) + (-1, 1)
    middle, target = direct_sum(O(0), T([1])), _plain(T([1]))
    with pytest.raises(ValueError, match="torsion free"):
        PresentationCertificate(target, 1, middle, ()).validate()


def test_presentation_refuses_a_middle_slope_above_one():
    target = _plain(O(2))
    with pytest.raises(ValueError, match="middle slope 2 outside"):
        PresentationCertificate(target, 0, O(2), ()).validate()


# the steps must compose to the final sequence, not only be additive one by one


def test_presentation_refuses_steps_that_do_not_resolve_its_target():
    # O(2) + T(inf,[1]) has the K0 class of O(3), so final stays additive
    target, middle = tilt(direct_sum(O(2), T([1]))), O(1, mult=3)
    assert target.k0_class() == tilt(O(3)).k0_class()
    for steps in (effective_presentation(tilt(O(3))).steps, ()):
        with pytest.raises(ValueError, match="composite steps do not compose"):
            PresentationCertificate(target, 2, middle, steps).validate()


def test_presentation_refuses_a_target_swapped_within_its_k0_class():
    rng = random.Random(53)
    for i in range(300):
        x = _as_heart(random_tilted(rng, dmax=9, hmax=6) if i % 2
                      else random_sheaf(rng, dmax=9, hmax=6))
        cert = effective_presentation(x)
        assert cert.validate() == cert
        cert = effective_presentation(TiltedObject(x.neg, direct_sum(x.pos, O(1))))
        # O + T(inf,[1]) has the class of O(1) but one more resolved atom
        swapped = TiltedObject(x.neg, direct_sum(x.pos, O(0), T([1])))
        assert swapped.k0_class() == cert.target.k0_class()
        with pytest.raises(ValueError, match="composite steps do not compose"):
            _with(cert, target=swapped).validate()
