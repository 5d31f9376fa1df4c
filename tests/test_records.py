"""The library's frozen records, one table over all 13 classes.

Each record refuses assignment and deletion, equals only records of its own
class, hashes as its field tuple, builds from keywords and defaults, and
prints as ``Name(field=value, ...)``; test_sheaves.py round-trips the same
samples through pickle and deepcopy.  The reprs below were captured while the
records were still dataclasses.
"""

import pytest

from ffcurve.bc import PresentationCertificate
from ffcurve.errors import Frozen
from ffcurve.sheaves import CoherentSheaf, ShortExactSequence, TiltedObject

from gen import record_samples

REPRS = {
    "Mat": "Mat(rows=2, cols=2, data=((2, 4), (6, 8)))",
    "SmithForm": (
        "SmithForm(S=Mat(rows=2, cols=2, data=((2, 0), (0, 4))), U=Mat(rows=2, cols=2, "
        "data=((1, 0), (3, -1))), Uinv=Mat(rows=2, cols=2, data=((1, 0), (3, -1))), "
        "V=Mat(rows=2, cols=2, data=((1, -2), (0, 1))), Vinv=Mat(rows=2, cols=2, "
        "data=((1, 2), (0, 1))), rank=2)"
    ),
    "SmithElimination": (
        "SmithElimination(S=Mat(rows=2, cols=2, data=((2, 0), (0, 4))), rank=2, "
        "rows=(('add', 1, 0, -3, 3), ('scale', 1, None, -1, -1)), cols=(('add', 0, 1, "
        "-2, 2),))"
    ),
    "BoundedComplex": (
        "BoundedComplex(domain=INTEGERS, lowest=0, ranks=(1, 2, 1), "
        "differentials=(Mat(rows=2, cols=1, data=((2,), (3,))), Mat(rows=1, cols=2, "
        "data=((-3, 2),))))"
    ),
    "ShiftProfile": "ShiftProfile(lo=1, values=(0, 2))",
    "ChainMap": (
        "ChainMap(source=BoundedComplex(domain=INTEGERS, lowest=0, ranks=(1, 1), "
        "differentials=(Mat(rows=1, cols=1, data=((2,),)),)), "
        "target=BoundedComplex(domain=INTEGERS, lowest=0, ranks=(1, 1), "
        "differentials=(Mat(rows=1, cols=1, data=((2,),)),)), components=(Mat(rows=1, "
        "cols=1, data=((1,),)), Mat(rows=1, cols=1, data=((1,),))))"
    ),
    "CoherentSheaf": "CoherentSheaf(bundle=((Slope(1/2), 1),), torsion=(('x', (2,)),))",
    "TiltedObject": (
        "TiltedObject(neg=CoherentSheaf(bundle=((Slope(-1), 1),), torsion=()), "
        "pos=CoherentSheaf(bundle=((Slope(2), 1),), torsion=()))"
    ),
    "ShortExactSequence": (
        "ShortExactSequence(left=TiltedObject(neg=CoherentSheaf(bundle=(), "
        "torsion=()), pos=CoherentSheaf(bundle=((Slope(0), 1),), torsion=())), "
        "middle=TiltedObject(neg=CoherentSheaf(bundle=(), torsion=()), "
        "pos=CoherentSheaf(bundle=((Slope(2), 1),), torsion=())), "
        "right=TiltedObject(neg=CoherentSheaf(bundle=(), torsion=()), "
        "pos=CoherentSheaf(bundle=(), torsion=(('inf', (2,)),))), tag='se2')"
    ),
    "BCDescriptor": "BCDescriptor(atoms=(('GA', ('x', (2,))), ('U', (1, 2, 1))))",
    "PresentationCertificate": (
        "PresentationCertificate(target=TiltedObject(neg=CoherentSheaf(bundle=(), "
        "torsion=()), pos=CoherentSheaf(bundle=(), torsion=())), a=0, "
        "middle=CoherentSheaf(bundle=(), torsion=()), steps=())"
    ),
    "HomMatrix": (
        "HomMatrix(entries=((BCInvariant(dim=0, ht=0), BCInvariant(dim=2, ht=-1)), "
        "(BCInvariant(dim=0, ht=0), BCInvariant(dim=1, ht=2))))"
    ),
    "QpCohomology": (
        "QpCohomology(n=1, D=2, table={0: {0: 1}, 1: {1: 1, 2: 1}}, "
        "boundary=frozenset({(1, 2)}))"
    ),
}


def _samples():
    return {type(x).__name__: (x, fields) for x, fields in record_samples()}


def test_the_table_has_every_record():
    samples = _samples()  # imports every module that defines a record
    library = {c.__name__ for c in Frozen.__subclasses__() if c.__module__.startswith("ffcurve.")}
    assert sorted(samples) == sorted(REPRS) == sorted(library) and len(REPRS) == 13


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_semantics(name):
    samples, again = _samples(), _samples()
    x, fields = samples[name]
    y = again[name][0]
    cls = type(x)
    for field in fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert x == y and x is not y and not x != y
    assert x != () and x.__eq__(()) is NotImplemented
    assert all(x != other for other, _ in samples.values() if type(other) is not cls)
    values = tuple(getattr(x, f) for f in fields)
    twin = type("Twin", (Frozen,), {"__init__": cls.__init__})(*values)
    assert x != twin and twin != x and not x == twin
    if name == "QpCohomology":
        with pytest.raises(TypeError):  # its table is a dict
            hash(x)
    else:
        assert hash(x) == hash(y) == hash(values)
    assert cls(**dict(zip(fields, values))) == x
    assert list(vars(x).items()) == list(zip(fields, values))  # the hash reads this order
    assert repr(x) == REPRS[name]


def test_equality_stays_within_one_class_and_defaults_hold():
    zero = CoherentSheaf()
    tilted_zero = TiltedObject(CoherentSheaf(), CoherentSheaf())
    assert zero != tilted_zero and tilted_zero != zero
    assert zero != () and zero != ((), ())
    assert zero == CoherentSheaf((), ()) == CoherentSheaf(torsion=()) == CoherentSheaf.zero()
    assert ShortExactSequence(tilted_zero, tilted_zero, tilted_zero).tag == "composite"
    seq = ShortExactSequence(left=tilted_zero, middle=tilted_zero, right=tilted_zero,
                             tag="presentation")
    # final and levels are derived, not stored
    P = PresentationCertificate(tilted_zero, 0, zero, ())
    assert P.final == seq and P.levels == () and P == PresentationCertificate(
        target=tilted_zero, a=0, middle=zero, steps=()
    )
