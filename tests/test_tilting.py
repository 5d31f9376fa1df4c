"""Tilted heart: torsion-pair split, slope functions, HN for mu-minus,
hom matrices in both hearts, and the double-tilt round trip.

The hom-matrix totals comparison across the double tilt uses the second-tilt
matrix (entries are plain sheaf homs of the mu-minus split), built with the
coherent-heart matrix by the oracles in gen.py; the first-tilt matrix total
is checked against the derived-category hom expansion instead.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffcurve.sheaves import (
    BCInvariant,
    CoherentSheaf,
    O,
    T,
    TiltedObject,
    direct_sum,
    ext1,
    hom,
    se1,
    se2,
    se3,
)
from ffcurve.tilting import (
    MU_MINUS_INFINITY,
    double_tilt,
    ext1_tilted,
    hn_minus,
    hom_tilted,
    split_torsion_pair,
    tilt,
    tilted_invariants,
)

from gen import cohx_hom_matrix, random_sheaf, random_tilted, second_tilt_hom_matrix


# ------------------------------------------------------------------- the split


def test_split_by_slope_sign():
    below, above = split_torsion_pair(direct_sum(O(1), O(-1)))
    assert (below, above) == (O(-1), O(1))


def test_split_torsion_goes_above():
    below, above = split_torsion_pair(T([2]))
    assert below.is_zero and above == T([2])


def test_split_all_below():
    F = O(-1, 2, mult=2)
    below, above = split_torsion_pair(F)
    assert below == F and above.is_zero


def test_split_no_maps_from_above_to_below():
    rng = random.Random(3)
    for _ in range(100):
        F = random_sheaf(rng)
        below, above = split_torsion_pair(F)
        assert direct_sum(below, above) == F
        assert hom(above, below) == BCInvariant(0, 0)


# ------------------------------------------------------------------------ tilt


def test_tilt_examples():
    A = tilt(O(-1))
    assert A.neg == O(-1) and A.pos.is_zero
    B = tilt(direct_sum(O(0), T([1])))
    assert B.neg.is_zero and B.pos == direct_sum(O(0), T([1]))
    C = tilt(direct_sum(O(-1, 2), O(1, 2)))
    assert C.neg == O(-1, 2) and C.pos == O(1, 2)


def test_double_tilt_round_trip():
    assert double_tilt(TiltedObject(O(-1), O(0))) == direct_sum(O(-1), O(0))
    assert double_tilt(tilt(O(2))) == O(2)
    rng = random.Random(5)
    for _ in range(200):
        F = random_sheaf(rng, allow_zero=True)
        assert double_tilt(tilt(F)) == F


# ------------------------------------------------------------------ invariants


def test_tilted_invariants_slope_zero_is_minus_infinity():
    degm, rgm, mum = tilted_invariants(tilt(O(0)))
    assert (degm, rgm) == (-1, 0)
    assert mum == MU_MINUS_INFINITY


def test_minus_infinity_is_exact_and_below_every_rational():
    inf = MU_MINUS_INFINITY
    for x in (Fraction(-10**30, 7), Fraction(0), -10**30, 5):
        assert inf < x and inf <= x and not inf > x and not inf >= x
        assert x > inf and x >= inf and not x < inf and not x <= inf
        assert inf != x and x != inf
    assert inf <= inf and inf >= inf and not inf < inf and not inf > inf
    assert str(inf) == repr(inf) == "-inf"
    assert pickle.loads(pickle.dumps(inf)) is inf
    assert copy.deepcopy(inf) is inf
    assert copy.deepcopy(tilted_invariants(tilt(O(0))))[2] is inf
    with pytest.raises(TypeError):
        inf < 0.5


def test_tilted_invariants_torsion():
    for k in (1, 4):
        degm, rgm, mum = tilted_invariants(tilt(T([k])))
        assert (degm, rgm, mum) == (0, k, Fraction(0))


def test_tilted_invariants_shifted_line():
    degm, rgm, mum = tilted_invariants(TiltedObject(O(-1), CoherentSheaf.zero()))
    assert (degm, rgm, mum) == (1, 1, Fraction(1))


def test_tilted_invariants_sign_convention():
    # deg- = -rank, rg- = degree on degree-0 objects
    rng = random.Random(7)
    for _ in range(100):
        F = random_sheaf(rng, sign="nonneg")
        degm, rgm, _ = tilted_invariants(tilt(F))
        assert degm == -F.rank and rgm == F.degree


def test_tilted_invariants_zero_rejected():
    with pytest.raises(ValueError):
        tilted_invariants(TiltedObject(CoherentSheaf.zero(), CoherentSheaf.zero()))


def test_tilted_additive_on_certificates():
    for s in [se1(2), se1(4), se2(1), se2(3), se3(1), se3(5)]:
        vals = []
        for entry in (s.left, s.middle, s.right):
            a, b = entry.k0_class()
            r, d = a + b, b
            vals.append((-r, d))
        assert vals[1] == (vals[0][0] + vals[2][0], vals[0][1] + vals[2][1])


# ------------------------------------------------------------------- HN minus


def test_hn_minus_shifted_negunits_order():
    A = TiltedObject(direct_sum(O(-1, 2), O(-2)), CoherentSheaf.zero())
    pieces = hn_minus(A)
    assert [mu for mu, _ in pieces] == [Fraction(2), Fraction(1, 2)]
    assert pieces[0][1] == TiltedObject(O(-1, 2), CoherentSheaf.zero())
    assert pieces[1][1] == TiltedObject(O(-2), CoherentSheaf.zero())


def test_hn_minus_torsion_then_positive():
    A = tilt(direct_sum(T([1]), O(2)))
    pieces = hn_minus(A)
    assert [mu for mu, _ in pieces] == [Fraction(0), Fraction(-1, 2)]


def test_hn_minus_single_atom():
    A = tilt(O(1, 3))
    assert hn_minus(A) == [(Fraction(-3, 1), A)]


def test_hn_minus_slope_zero_last():
    A = tilt(direct_sum(O(0), O(3), T([2])))
    mus = [mu for mu, _ in hn_minus(A)]
    assert mus == [Fraction(0), Fraction(-1, 3), MU_MINUS_INFINITY]


def test_hn_minus_strictly_decreasing_and_reassembles():
    rng = random.Random(11)
    for _ in range(200):
        A = random_tilted(rng)
        pieces = hn_minus(A)
        mus = [mu for mu, _ in pieces]
        assert all(mus[i] > mus[i + 1] for i in range(len(mus) - 1))
        negs = [p.neg for _, p in pieces]
        poss = [p.pos for _, p in pieces]
        assert TiltedObject(direct_sum(*negs), direct_sum(*poss)) == A


def test_hn_minus_zero_rejected():
    with pytest.raises(ValueError):
        hn_minus(TiltedObject(CoherentSheaf.zero(), CoherentSheaf.zero()))


# ---------------------------------------------------------------- hom matrices


def test_hom_tilted_example():
    A = TiltedObject(O(-1), O(0))
    M = hom_tilted(A, A)
    assert M.entries[0][0] == BCInvariant(0, 1)
    assert M.entries[0][1] == BCInvariant(1, -1)
    assert M.entries[1][0] == BCInvariant(0, 0)
    assert M.entries[1][1] == BCInvariant(0, 1)
    assert M.total == BCInvariant(1, 1)


def test_hom_matrix_str():
    # the rows, then the total; the total is a BCInvariant, a tuple, which
    # `%` would take for its argument list if it were not wrapped in one
    M = hom_tilted(TiltedObject(O(-1), O(0)), TiltedObject(O(-2), O(1, 2)))
    assert str(M) == "[(0, 0)  (2, -1)]\n[(0, 0)  (1, 2)]\ntotal (3, 1)"


def test_hom_tilted_torsion_vs_structure():
    A = TiltedObject(CoherentSheaf.zero(), T([1]))
    B = TiltedObject(CoherentSheaf.zero(), O(0))
    assert hom_tilted(A, B).total == BCInvariant(0, 0)
    assert hom_tilted(B, A).total == BCInvariant(1, 0)


def test_hom_tilted_total_is_derived_hom():
    rng = random.Random(13)
    for _ in range(200):
        A, B = random_tilted(rng), random_tilted(rng)
        # independent expansion of Hom_D(A, B) over the four shift pairings
        expect = (
            hom(A.neg, B.neg) + ext1(A.pos, B.neg) + hom(A.pos, B.pos)
        )
        assert hom_tilted(A, B).total == expect


def test_ext1_tilted_matches_derived_expansion():
    rng = random.Random(17)
    for _ in range(200):
        A, B = random_tilted(rng), random_tilted(rng)
        expect = ext1(A.neg, B.neg) + hom(A.neg, B.pos) + ext1(A.pos, B.pos)
        assert ext1_tilted(A, B) == expect


@settings(deadline=None)
@given(st.integers(0, 2**32))
def test_heart_is_hereditary(seed):
    # Hom_D(A, B[2]) reduces to Ext^1(A.neg, B.pos), which must vanish
    rng = random.Random(seed)
    A, B = random_tilted(rng), random_tilted(rng)
    assert ext1(A.neg, B.pos) == (0, 0)


@settings(deadline=None)
@given(st.integers(0, 2**32))
def test_tilted_euler_form(seed):
    # hom - ext1 in the heart is the Euler form of the K0 classes
    rng = random.Random(seed)
    A, B = random_tilted(rng), random_tilted(rng)
    assert hom_tilted(A, B).total - ext1_tilted(A, B) == (
        A.rank * B.degree - A.degree * B.rank,
        A.rank * B.rank,
    )


def test_hom_totals_agree_across_double_tilt():
    rng = random.Random(19)
    for _ in range(300):
        A, B = random_tilted(rng), random_tilted(rng)
        lhs = second_tilt_hom_matrix(A, B).total
        rhs = cohx_hom_matrix(double_tilt(A), double_tilt(B)).total
        assert lhs == rhs
        assert rhs == hom(double_tilt(A), double_tilt(B))


def test_matrix_totals_are_entry_sums():
    rng = random.Random(23)
    for _ in range(50):
        A, B = random_tilted(rng), random_tilted(rng)
        for M in (hom_tilted(A, B), second_tilt_hom_matrix(A, B)):
            s = BCInvariant(0, 0)
            for row in M.entries:
                for e in row:
                    s = s + e
            assert s == M.total
