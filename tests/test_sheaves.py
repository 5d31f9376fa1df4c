"""Coherent sheaf normal forms, cohomology rules, Hom/Ext, K0, sequences.

Derived expectations were computed by independent oracles before the module
was written and are frozen below:
  * h1(O(-1)) via the long exact sequence of 0 -> O(-1) -> O -> T(inf,[1]) -> 0,
  * K0 classes by solving the 2x2 integer system rank = a+b, degree = b,
  * hom - ext1 against the Euler pairing of K0 classes,
  * hn by brute-force sort over input permutations.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffcurve.bc import effective_presentation
from ffcurve.sheaves import (
    BCInvariant,
    CoherentSheaf,
    O,
    T,
    TiltedObject,
    chi,
    direct_sum,
    ext1,
    ext2,
    h0,
    h1,
    hn,
    hom,
    k0_class,
    normalize,
    numeric_invariants,
    se1,
    se2,
    se3,
)
from ffcurve.slopes import INFINITY, Slope, hom_slope_data, reduce

from gen import random_sheaf, record_samples


# ---------------------------------------------------------------- normal form


def test_normalize_merges_equal_slopes():
    F = direct_sum(O(1, 2), O(1, 2))
    assert F.bundle == ((reduce(1, 2), 2),)


def test_normalize_reduces_slope():
    assert O(2, 4) == O(1, 2)


def test_normalize_orders_torsion_factors():
    F = T([1, 2])
    assert F.torsion == (("inf", (2, 1)),)


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize([(reduce(1, 2), 0)], [])
    with pytest.raises(ValueError):
        normalize([], [("inf", (0,))])
    with pytest.raises(ValueError):
        normalize([], [("inf", ())])
    with pytest.raises(ValueError, match="finite slopes"):
        normalize([(INFINITY, 1)], [])


def test_bundle_sorted_descending_and_zero_form():
    F = direct_sum(O(-1), O(1), O(0))
    assert [s.value for s, _ in F.bundle] == [1, 0, -1]
    Z = CoherentSheaf.zero()
    assert Z.is_zero and Z.bundle == () and Z.torsion == ()
    assert str(Z) == "0"


def test_same_label_torsion_merges():
    F = direct_sum(T([2]), T([1]), T([5], label="x0"))
    assert F.torsion == (("inf", (2, 1)), ("x0", (5,)))


# ------------------------------------------------------------------ invariants


@pytest.mark.parametrize(
    "F,rank,degree",
    [
        (O(2, 3), 3, 2),
        (T([2]), 0, 2),
        (direct_sum(O(1), O(-1)), 2, 0),
        (direct_sum(O(1, 2, mult=2), T([3, 1])), 4, 6),
    ],
)
def test_rank_degree(F, rank, degree):
    r, d, _ = numeric_invariants(F)
    assert (r, d) == (rank, degree)


def test_slope_of_torsion_is_infinite():
    _, _, s = numeric_invariants(T([2]))
    assert s is INFINITY


def test_slope_values():
    assert numeric_invariants(O(2, 3))[2] == reduce(2, 3)
    assert numeric_invariants(direct_sum(O(1), O(-1)))[2] == reduce(0, 1)
    assert numeric_invariants(CoherentSheaf.zero())[2] is None


# -------------------------------------------------------------------------- hn


def test_hn_torsion_first():
    F = direct_sum(T([1]), O(-1))
    pieces = hn(F)
    assert [p[0] for p in pieces] == [INFINITY, reduce(-1, 1)]
    assert pieces[0][1] == T([1])
    assert pieces[1][1] == O(-1)


def test_hn_semistable_single_piece():
    assert hn(O(1, 2, mult=3)) == [(reduce(1, 2), O(1, 2, mult=3))]


def test_hn_sorted_over_all_permutations():
    atoms = [O(1), O(0), O(-1, 2)]
    import itertools

    for perm in itertools.permutations(atoms):
        pieces = hn(direct_sum(*perm))
        assert [p[0] for p in pieces] == [reduce(1, 1), reduce(0, 1), reduce(-1, 2)]


def test_hn_rejects_zero():
    with pytest.raises(ValueError):
        hn(CoherentSheaf.zero())


def test_hn_reassembles():
    rng = random.Random(7)
    for _ in range(50):
        F = random_sheaf(rng)
        assert direct_sum(*(piece for _, piece in hn(F))) == F


# ------------------------------------------------------------------ cohomology


def test_h0_examples():
    assert h0(O(0)) == BCInvariant(0, 1)
    assert h0(O(1)) == BCInvariant(1, 1)
    assert h0(T([3])) == BCInvariant(3, 0)
    assert h0(O(-1)) == BCInvariant(0, 0)
    assert h0(O(2, 3)) == BCInvariant(2, 3)


def test_h1_examples():
    # oracle: 0 -> O(-1) -> O -> T(inf,[1]) -> 0 gives
    # h1(O(-1)) = h0(T) - h0(O) = (1,0) - (0,1) since h0(O(-1)) = 0 = h1(O)
    les = h0(T([1])) - h0(O(0))
    assert les == BCInvariant(1, -1)
    assert h1(O(-1)) == les
    assert h1(O(0)) == BCInvariant(0, 0)
    assert h1(O(1, 2)) == BCInvariant(0, 0)
    assert h1(O(-1, 2)) == BCInvariant(1, -2)
    assert h1(T([4])) == BCInvariant(0, 0)


def test_chi_examples():
    assert chi(O(2, 3)) == BCInvariant(2, 3)
    assert chi(O(-1)) == BCInvariant(-1, 1)
    for k in (1, 2, 5):
        assert chi(T([k])) == BCInvariant(k, 0)


def test_chi_is_degree_rank_randomized():
    rng = random.Random(11)
    for _ in range(300):
        F = random_sheaf(rng, allow_zero=True)
        r, d, _ = numeric_invariants(F)
        assert chi(F) == BCInvariant(d, r)
        assert chi(F) == h0(F) - h1(F)


# --------------------------------------------------------------------- hom/ext


def test_hom_examples():
    assert hom(O(0), O(1)) == BCInvariant(1, 1)
    assert hom(T([1]), T([1])) == BCInvariant(1, 0)
    assert ext1(T([1]), T([1])) == BCInvariant(1, 0)
    assert ext1(T([1]), O(0)) == BCInvariant(1, 0)
    assert hom(O(0), T([1])) == BCInvariant(1, 0)
    assert hom(T([1]), O(0)) == BCInvariant(0, 0)
    assert ext1(O(0), T([1])) == BCInvariant(0, 0)
    # oracle: hom_slope_data(1, 0) = (-1, 1); ext1 = h1(O(-1)) = (1,-1)
    assert ext1(O(1), O(0)) == BCInvariant(1, -1)


def test_ext_vanishing_when_slopes_increase():
    slopes = [reduce(d, h) for d in range(-4, 5) for h in range(1, 5)]
    for lam in slopes:
        for mu in slopes:
            if lam <= mu:
                assert ext1(O(lam.d, lam.h), O(mu.d, mu.h)) == BCInvariant(0, 0)
            else:
                assert ext1(O(lam.d, lam.h), O(mu.d, mu.h)) != BCInvariant(0, 0)


def test_ext2_always_zero():
    rng = random.Random(13)
    for _ in range(100):
        F, G = random_sheaf(rng), random_sheaf(rng)
        assert ext2(F, G) == BCInvariant(0, 0)


def test_torsion_distinct_points_orthogonal():
    A, B = T([3]), T([2], label="x0")
    assert hom(A, B) == ext1(A, B) == BCInvariant(0, 0)


def test_torsion_same_point_min_rule():
    A, B = T([3, 1]), T([2])
    # pairwise min over factor lists: min(3,2) + min(1,2) = 3
    assert hom(A, B) == BCInvariant(3, 0)
    assert ext1(A, B) == BCInvariant(3, 0)


def _euler_pairing(cF, cG):
    # oracle: chi(RHom) is bilinear in K0 classes; on basis elements
    # chi(RHom(O,O)) = (0,1), chi(RHom(O,O(1))) = (1,1),
    # chi(RHom(O(1),O)) = (-1,1), chi(RHom(O(1),O(1))) = (0,1)
    a, b = cF
    ap, bp = cG
    return BCInvariant(a * bp - b * ap, a * ap + a * bp + b * ap + b * bp)


def test_euler_form_consistency_randomized():
    rng = random.Random(17)
    for _ in range(300):
        F, G = random_sheaf(rng), random_sheaf(rng)
        assert hom(F, G) - ext1(F, G) == _euler_pairing(k0_class(F), k0_class(G))


def test_hom_bilinear_over_direct_sum():
    rng = random.Random(19)
    for _ in range(100):
        F1, F2, G = random_sheaf(rng), random_sheaf(rng), random_sheaf(rng)
        assert hom(direct_sum(F1, F2), G) == hom(F1, G) + hom(F2, G)
        assert ext1(G, direct_sum(F1, F2)) == ext1(G, F1) + ext1(G, F2)


# The per-pair derivation hom and ext1 used before their closed form, kept
# unchanged as an oracle: the internal Hom O(nu)^m of each atom pair from
# hom_slope_data, then h0 or h1 of the stable O(nu), scaled by a*b*m.


def _stable_h0(s: Slope):
    # slope > 0: (d, h); slope 0: (0, 1); slope < 0: 0
    if s.d > 0:
        return (s.d, s.h)
    if s.d == 0:
        return (0, 1)
    return (0, 0)


def _stable_h1(s: Slope):
    # vanishes for slope >= 0; (-d, -h) below
    if s.d >= 0:
        return (0, 0)
    return (-s.d, -s.h)


def _oracle(stable, F, G, tors):
    dim, ht = tors, 0
    for lam, a in F.bundle:
        for mu, b in G.bundle:
            nu, m = hom_slope_data(lam, mu)
            sd, sh = stable(nu)
            dim, ht = dim + a * b * m * sd, ht + a * b * m * sh
    return BCInvariant(dim, ht)


def _oracle_hom(F, G):
    tors = sum(lam.h * a * G.torsion_length for lam, a in F.bundle)
    return _oracle(_stable_h0, F, G, tors + _torsion_min_pairing(F, G))


def _oracle_ext1(F, G):
    return _oracle(_stable_h1, F, G, F.torsion_length * G.rank + _torsion_min_pairing(F, G))


def _torsion_min_pairing(F, G):
    gt = dict(G.torsion)
    return sum(min(a, b) for label, fs in F.torsion for a in fs for b in gt.get(label, ()))


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_hom_ext1_h0_h1_agree_with_the_per_pair_oracle(seed, share_slope):
    rng = random.Random(seed)
    F = random_sheaf(rng, max_bundle_atoms=4, dmax=6, hmax=4)
    G = random_sheaf(rng, max_bundle_atoms=4, dmax=6, hmax=4)
    if share_slope:
        # an equal-slope pair (D = 0) with a multiplicity > 1 on one side
        s = (F.bundle or G.bundle or ((reduce(1, 3), 1),))[0][0]
        G = direct_sum(G, O(s.d, s.h, mult=rng.randint(2, 3)))
    assert hom(F, G) == _oracle_hom(F, G)
    assert ext1(F, G) == _oracle_ext1(F, G)
    unit = O(0)
    for X in (F, G):
        assert h0(X) == _oracle_hom(unit, X)
        assert h1(X) == _oracle_ext1(unit, X)


# -------------------------------------------------------------------------- K0


def test_k0_examples():
    assert k0_class(O(1)) == (0, 1)
    assert k0_class(O(0)) == (1, 0)
    for k in (1, 3):
        assert k0_class(T([k])) == (-k, k)


def test_k0_solves_rank_degree_system():
    rng = random.Random(23)
    for _ in range(200):
        F = random_sheaf(rng, allow_zero=True)
        r, d, _ = numeric_invariants(F)
        a, b = k0_class(F)
        # oracle: rank = a + b, degree = b
        assert a + b == r and b == d


def test_k0_additive():
    rng = random.Random(29)
    for _ in range(100):
        F, G = random_sheaf(rng), random_sheaf(rng)
        FG = direct_sum(F, G)
        assert k0_class(FG) == tuple(
            x + y for x, y in zip(k0_class(F), k0_class(G))
        )


# ------------------------------------------------------------------- sequences


def test_se1_shape():
    s = se1(3)
    assert s.middle.pos == direct_sum(O(1), O(2))
    assert s.left.pos == O(0) and s.right.pos == O(3)
    s.validate()
    assert se1(2).middle.pos == O(1, mult=2)
    with pytest.raises(ValueError):
        se1(1)


def test_se2_shape():
    s = se2(1)
    assert (s.left.pos, s.middle.pos, s.right.pos) == (O(0), O(1), T([1]))
    s.validate()
    with pytest.raises(ValueError):
        se2(0)


def test_se3_shape():
    s = se3(2)
    assert (s.left.pos, s.middle.pos) == (O(0), T([2]))
    # right term is the shifted negative line bundle
    assert s.right == TiltedObject(O(-2), CoherentSheaf.zero())
    s.validate()
    with pytest.raises(ValueError):
        se3(0)


def test_sequence_additivity_certificates():
    for s in [se1(2), se1(5), se2(1), se2(4), se3(1), se3(3)]:
        s.validate()
        lm = s.left.k0_class()
        rm = s.right.k0_class()
        mm = s.middle.k0_class()
        assert mm == (lm[0] + rm[0], lm[1] + rm[1])


# ---------------------------------------------------------------- text output


def test_str_forms():
    assert str(O(0)) == "O"
    assert str(O(-1)) == "O(-1)"
    assert str(O(1, 2, mult=2)) == "O(1/2)^2"
    assert str(direct_sum(O(1), T([3, 1]))) == "O(1) + T(inf,[3,1])"
    assert str(TiltedObject(O(-1), O(0))) == "tilted(O(-1); O)"
    assert str(se3(2).right) == "O(-2)[1]"


def test_pickle_and_deepcopy_round_trip():
    F = direct_sum(O(7, 3), O(1, 2), T([3, 2], "x0"))
    A = TiltedObject(O(-5, 2), F)
    objs = [F, A, effective_presentation(A), INFINITY]
    objs += [x for x, _ in record_samples()]  # every frozen record of the library
    for x in objs:
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x and repr(y) == repr(x)
    assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY
    assert copy.deepcopy(INFINITY) is INFINITY
