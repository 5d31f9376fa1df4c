"""Complexes, Koszul, décalage and quasi-isomorphism testing.

Frozen small examples first (hand-checked), then randomized complexes
whose cohomology is known by construction.
"""

import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ffcurve import complexes, exactalg
from ffcurve.complexes import (
    BoundedComplex,
    ChainMap,
    ShiftProfile,
    cohomology,
    complex_to_json,
    cone,
    decalage,
    decalage_map,
    identity_chain_map,
    is_acyclic,
    is_quasi_iso,
    koszul,
    koszul_cohomology,
    koszul_decalage,
)
from ffcurve.exactalg import (
    INTEGERS,
    POLY_OVER_RATIONALS as POLY,
    RATIONALS,
    Mat,
    identity,
    mat,
    zeros,
)
from ffcurve.polyring import Poly, T_VAR as t

from gen import (
    DOMAINS,
    complex_from_json,
    direct_sum_complexes,
    random_element,
    random_known_complex,
    random_qis,
)

rng_seed = 23


def two_term(dom, entry):
    return BoundedComplex(dom, 0, (1, 1), (mat(dom, [[entry]]),))


# ------------------------------------------------------------------ structure


def test_composition_must_vanish():
    d0 = mat(INTEGERS, [[1]])
    d1 = mat(INTEGERS, [[1]])
    with pytest.raises(ValueError):
        BoundedComplex(INTEGERS, 0, (1, 1, 1), (d0, d1))


def test_shape_validation():
    with pytest.raises(ValueError):
        BoundedComplex(INTEGERS, 0, (1, 2), (mat(INTEGERS, [[1]]),))
    with pytest.raises(ValueError):
        BoundedComplex(INTEGERS, 0, (), ())


def _json_round_trip(C):
    payload = json.loads(json.dumps(complex_to_json(C)))
    assert complex_from_json(payload) == C


def test_json_round_trip():
    _json_round_trip(koszul(POLY, (t, t + 1)))


@pytest.mark.parametrize(
    "dom,elements",
    [(INTEGERS, (2, -3, 5)), (RATIONALS, (Fraction(1, 3), Fraction(-2, 5), 7))],
    ids=["Z", "Q"],
)
def test_json_round_trip_scalars(dom, elements):
    # Z entries are JSON integers, Q entries Fraction strings
    _json_round_trip(koszul(dom, elements))


def test_pad_and_direct_sum():
    C = two_term(INTEGERS, 2)
    zero_in, zero_out = zeros(INTEGERS, 1, 0), zeros(INTEGERS, 0, 1)
    P = BoundedComplex(INTEGERS, -1, (0, 1, 1, 0), (zero_in,) + C.differentials + (zero_out,))
    assert cohomology(P)[1] == (0, (2,))
    D = direct_sum_complexes(C, two_term(INTEGERS, 0))
    assert D.ranks == (2, 2)
    h = cohomology(D)
    assert h[0] == (1, ()) and h[1] == (1, (2,))


# ------------------------------------------------------------------ cohomology


def test_multiplication_by_two():
    h = cohomology(two_term(INTEGERS, 2))
    assert h == {0: (0, ()), 1: (0, (2,))}


def test_identity_complex_acyclic():
    assert is_acyclic(two_term(INTEGERS, 1))
    assert is_acyclic(two_term(RATIONALS, 7))


def test_invariant_factor_normal_form():
    C = BoundedComplex(
        INTEGERS, 0, (2, 2), (mat(INTEGERS, [[2, 0], [0, 3]]),)
    )
    assert cohomology(C)[1] == (0, (6,))
    C = BoundedComplex(
        INTEGERS, 0, (2, 2), (mat(INTEGERS, [[2, 0], [0, 2]]),)
    )
    assert cohomology(C)[1] == (0, (2, 2))


def test_koszul_pair_over_integers():
    h = cohomology(koszul(INTEGERS, (2, 4)))
    assert h == {0: (0, ()), 1: (0, (2,)), 2: (0, (2,))}
    assert is_acyclic(koszul(INTEGERS, (2, 3)))


def test_known_random_complexes_all_domains():
    rng = random.Random(rng_seed)
    for dom in DOMAINS:
        rounds = 40 if dom is not POLY else 20
        for lo in (-2, 0, 3):
            for _ in range(rounds):
                C, expected = random_known_complex(dom, rng, lo)
                assert cohomology(C) == expected


def test_cohomology_one_smith_form_per_differential(monkeypatch):
    # n elements give n+1 terms and n differentials, plus the zero maps
    # into the lowest and out of the highest term
    calls = []
    real = complexes.smith_elimination

    def counting(dom, A):
        calls.append((A.rows, A.cols))
        return real(dom, A)

    monkeypatch.setattr(complexes, "smith_elimination", counting)
    K = koszul(POLY, (t, t + 1, t * t, t - 2))
    assert cohomology(K) == {j: (0, ()) for j in range(5)}
    assert 0 < len(calls) <= len(K.ranks) + 1


def _refuse(name):
    def replay(*args):
        raise AssertionError("%s was called" % name)

    return replay


def _refuse_transforms(monkeypatch):
    # smith_normal_form builds U, V and their inverses on identity matrices,
    # _q_transforms over Q; complexes binds identity for identity_chain_map
    for module, name in ((exactalg, "smith_normal_form"), (exactalg, "_q_transforms"),
                         (exactalg, "identity"), (complexes, "identity")):
        monkeypatch.setattr(module, name, _refuse(name))


def test_cohomology_builds_no_transform(monkeypatch):
    K = koszul(POLY, (t * (t + 1), t * (t - 2), t**2))
    phi = ChainMap(K, K, tuple(identity(POLY, r) for r in K.ranks))
    _refuse_transforms(monkeypatch)
    assert cohomology(K)[3] == (0, (t,))
    assert is_quasi_iso(phi)


def test_eta_terms_build_no_row_transform(monkeypatch):
    # decalage builds no transform at all: it replays each column log on the
    # complex's own differentials and components, never on an identity
    K = koszul(POLY, (t * (t + 1), t * (t - 2), t**2))
    phi = identity_chain_map(K)
    _refuse_transforms(monkeypatch)
    calls = []
    real = complexes._replayed

    def counting(M, log, op, inverse=False):
        calls.append(len(log))
        return real(M, log, op, inverse)

    monkeypatch.setattr(complexes, "_replayed", counting)
    delta = ShiftProfile.identity(0, K.highest)
    E = decalage(K, t, delta)
    assert E.ranks == K.ranks
    psi = decalage_map(phi, t, delta)
    assert all(c == identity(POLY, r) for c, r in zip(psi.components, K.ranks))
    assert any(calls)


def test_cohomology_makes_no_matrix_product(monkeypatch):
    # the constructor has checked d o d = 0; cohomology does not multiply again
    K = koszul(POLY, (t, t + 1, t * t, t - 2))
    calls = []
    real = complexes.mat_mul

    def counting(dom, A, B):
        calls.append((A.rows, A.cols, B.cols))
        return real(dom, A, B)

    monkeypatch.setattr(complexes, "mat_mul", counting)
    assert cohomology(K) == {j: (0, ()) for j in range(5)}
    assert calls == []


# ---------------------------------------------------------------------- Koszul


def test_koszul_shapes_and_signs():
    K1 = koszul(INTEGERS, (5,))
    assert K1.ranks == (1, 1) and K1.differentials[0] == mat(INTEGERS, [[5]])
    K2 = koszul(INTEGERS, (2, 3))
    assert K2.ranks == (1, 2, 1)
    assert K2.differentials[0] == mat(INTEGERS, [[2], [3]])
    assert K2.differentials[1] == mat(INTEGERS, [[-3, 2]])
    K3 = koszul(INTEGERS, (1, 2, 3))
    assert K3.ranks == (1, 3, 3, 1)


def test_koszul_needs_elements():
    with pytest.raises(ValueError):
        koszul(INTEGERS, ())


def test_koszul_single_t_cohomology():
    h = cohomology(koszul(POLY, (t,)))
    assert h == {0: (0, ()), 1: (0, (t,))}


@st.composite
def _koszul_inputs(draw):
    """(domain, f, elements): k = 1..4 elements from gen.random_element, some
    drawn as zero or as a unit; f nonzero, sometimes a multiple of the first
    element, or the first element a multiple of f^2."""
    dom = draw(st.sampled_from(DOMAINS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(("random", "random", "zero", "unit")),
                          min_size=1, max_size=4))
    pick = {"zero": lambda: dom.zero, "unit": lambda: dom.convert(rng.choice((1, -1, 2))),
            "random": lambda: dom.convert(random_element(dom, rng))}
    elements = [pick[kind]() for kind in kinds]
    f = dom.zero
    while dom.is_zero(f):
        f = dom.convert(random_element(dom, rng))
    mode = draw(st.sampled_from(("plain", "f_times_first", "first_times_f2")))
    if mode == "f_times_first" and not dom.is_zero(elements[0]):
        f = f * elements[0]
    elif mode == "first_times_f2":
        elements[0] = elements[0] * f * f
    return dom, f, elements


@settings(max_examples=120, deadline=None)
@given(_koszul_inputs())
def test_koszul_closed_forms_match_the_smith_path(case):
    dom, f, elements = case
    K = koszul(dom, elements)
    k = len(elements)
    assert koszul_cohomology(dom, elements) == cohomology(K)
    E = koszul_decalage(dom, f, elements)
    assert cohomology(E) == cohomology(decalage(K, f, ShiftProfile.identity(0, k)))
    assert E.ranks == tuple(comb(k, m) for m in range(k + 1))
    g = dom.zero
    for x in elements:
        g = dom.gcd(g, x)
    h = dom.zero if dom.is_zero(g) else dom.divmod(g, dom.gcd(f, g))[0]
    h = h * dom.canonical_unit(h)
    assert {x for d in E.differentials for row in d.data for x in row} <= {dom.zero, -h}


# Two basis-free checks of decalage against closed forms of its cohomology.
# They compare invariant factors, not bases, so they hold under any choice of
# Smith bases, where the pinned digests below name one.


def _quo(dom, a, b):
    q, r = dom.divmod(a, b)
    assert dom.is_zero(r)
    return q * dom.canonical_unit(q)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 2), st.integers(0, 2**32))
def test_identity_profile_decalage_kills_the_f_torsion(dom, lo, seed):
    # H^j(eta_f C) = H^j(C) / H^j(C)[f] (Bhatt-Morrow-Scholze, Integral p-adic
    # Hodge theory, §6): each factor d becomes d / gcd(d, f), ranks stay
    rng = random.Random(seed)
    C, expected = random_known_complex(dom, rng, lo)
    # the Z and Q[t] torsion factors are 2..6 and t, t + 1, t^2 + 1
    scales = {INTEGERS: (2, 4, -6), POLY: (t, t + 1, t**2 + t)}.get(dom, ())
    f = dom.zero
    while dom.is_zero(f):
        f = dom.convert(rng.choice(scales + (random_element(dom, rng),)))
    want = {}
    for j, (rank, factors) in expected.items():
        kept = (_quo(dom, d, dom.gcd(d, f)) for d in factors)
        want[j] = (rank, tuple(e for e in kept if e != dom.one))
    assert cohomology(decalage(C, f, ShiftProfile.identity(lo, C.highest))) == want


@settings(max_examples=100, deadline=None)
@given(_koszul_inputs(), st.lists(st.integers(0, 3), min_size=1, max_size=6))
@example((INTEGERS, 2, [8]), [0, 2])  # c = 2 on a factor 8 = f^3: gcd(8, f^c) is not gcd(8, f)
def test_koszul_decalage_under_any_profile_has_its_closed_form(case, values):
    # K = sum of the K(g)[-j], C(k-1, j) times, and eta is additive: H^{j+1}
    # is C(k-1, j) copies of g lcm(f^d(j), f^d(j+1) / gcd(g, f^d(j+1))) / f^d(j+1)
    dom, f, elements = case
    g = dom.zero
    for x in elements:
        g = dom.gcd(g, x)
    assume(not dom.is_zero(g))
    delta, k = ShiftProfile(0, tuple(values)), len(elements)
    want = {0: (0, ())}
    for j in range(k):
        fa, fb = f ** delta(j), f ** delta(j + 1)
        x = _quo(dom, fb, dom.gcd(g, fb))
        e = _quo(dom, g * _quo(dom, fa * x, dom.gcd(fa, x)), fb)
        want[j + 1] = (0, (e,) * comb(k - 1, j) if e != dom.one else ())
    assert cohomology(decalage(koszul(dom, elements), f, delta)) == want


# -------------------------------------------------------------------- decalage


def test_profile_validation():
    with pytest.raises(ValueError):
        ShiftProfile(0, (0, -1))
    with pytest.raises(ValueError):
        ShiftProfile(0, ())
    with pytest.raises(ValueError, match="lo >= 0"):
        ShiftProfile.identity(-1, 2)
    p = ShiftProfile.identity(0, 3)
    assert [p(j) for j in (-2, 0, 1, 3, 9)] == [0, 0, 1, 3, 3]
    assert ShiftProfile.constant(0)(5) == 0


def test_decalage_zero_profile_is_identity():
    C = koszul(POLY, (t + 1, t * t - 2))
    assert decalage(C, t, ShiftProfile.constant(0)) == C


def test_decalage_rejects_zero():
    with pytest.raises(ValueError):
        decalage(koszul(POLY, (t,)), Poly(), ShiftProfile.constant(0))
    with pytest.raises(ValueError, match="non-zero-divisor"):
        koszul_decalage(POLY, 0, (t,))
    with pytest.raises(ValueError, match="non-zero-divisor"):
        decalage_map(identity_chain_map(koszul(POLY, (t,))), 0, ShiftProfile.constant(0))


def test_decalage_divides_single():
    # eta_t Koszul(t*g) is Koszul(g) on the nose for one element
    delta = ShiftProfile.identity(0, 1)
    for g in (t + 1, 3 * t**2 - 1, Poly.const(2)):
        assert decalage(koszul(POLY, (t * g,)), t, delta) == koszul(POLY, (g,))


def test_decalage_divides_pair_and_triple():
    rng = random.Random(29)
    delta2 = ShiftProfile.identity(0, 2)
    delta3 = ShiftProfile.identity(0, 3)
    for _ in range(10):
        gs = [
            Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) + 1
            for _ in range(3)
        ]
        lhs = cohomology(decalage(koszul(POLY, [t * g for g in gs[:2]]), t, delta2))
        rhs = cohomology(koszul(POLY, gs[:2]))
        assert lhs == rhs
        lhs = cohomology(decalage(koszul(POLY, [t * g for g in gs]), t, delta3))
        rhs = cohomology(koszul(POLY, gs))
        assert lhs == rhs


def test_decalage_acyclic_when_element_divides_f():
    delta = ShiftProfile.identity(0, 2)
    for g in (t + 1, 2 * t, t**2 + 1):
        assert is_acyclic(decalage(koszul(POLY, (t, g)), t, delta))
    # over the integers with f = 2
    assert is_acyclic(decalage(koszul(INTEGERS, (2, 5)), 2, delta))


def test_decalage_integer_single():
    delta = ShiftProfile.identity(0, 1)
    assert decalage(koszul(INTEGERS, (6,)), 2, delta) == koszul(INTEGERS, (3,))


def test_decalage_over_rationals_is_pinned():
    # over a field f is a unit, so eta_f K is K again in the bases of the
    # Smith forms of its differentials; decalage and decalage_map call
    # RATIONALS.gcd on an invariant factor and f^c. koszul_cohomology and
    # koszul_decalage, not called here, also call it: on the Koszul elements
    # (and on f), then divide each element by that gcd
    K = koszul(RATIONALS, (Fraction(2), Fraction(-3, 2), Fraction(5)))
    delta = ShiftProfile.identity(0, K.highest)
    E = decalage(K, Fraction(3), delta)
    want = (
        ((0,), (0,), (5,)),
        ((0, 0, 0), (-5, Fraction(20, 3), 0), (0, -5, 0)),
        ((5, 0, 0),),
    )
    assert E == BoundedComplex(RATIONALS, 0, K.ranks, tuple(mat(RATIONALS, d) for d in want))
    assert all(type(x) is Fraction for d in E.differentials for row in d.data for x in row)
    assert cohomology(E) == cohomology(K)
    for c in (Fraction(1), Fraction(-2, 7)):
        comps = tuple(mat(RATIONALS, [[c if i == j else 0 for j in range(r)] for i in range(r)])
                      for r in K.ranks)
        psi = decalage_map(ChainMap(K, K, comps), 3, delta)
        assert psi.source == psi.target == E
        assert psi.components == comps


def _pin_koszul(dom, rng, k, deg):
    """(f, K): k seeded elements sharing the factor f, of degree deg over Q[t]
    and of about deg digits over Z and Q."""
    if dom is POLY:
        unit = (-3, -2, -1, 1, 2, 3)
        f = Poly([rng.randint(-5, 5), rng.choice(unit)])
        gs = [f * Poly([rng.randint(-5, 5) for _ in range(deg - 1)] + [rng.choice(unit)])
              for _ in range(k)]
    else:
        f = rng.choice((2, 3, 6))
        gs = [f * rng.choice((-1, 1)) * rng.randint(1, 10**deg) for _ in range(k)]
        if dom is RATIONALS:
            f, gs = Fraction(f, rng.randint(1, 5)), [Fraction(g, rng.randint(1, 9)) for g in gs]
    return f, koszul(dom, gs)


def _homotopic_to_identity(K, rng):
    """I + d h + h d for a sparse seeded h of degree -1: a chain map K -> K."""
    dom, r = K.domain, K.ranks

    def add(A, B):
        return Mat(A.rows, A.cols, tuple(tuple(a + b for a, b in zip(x, y))
                                          for x, y in zip(A.data, B.data)))

    h = [mat(dom, [[rng.choice((-1, 0, 0, 1)) for _ in range(r[j])] for _ in range(r[j - 1])],
             r[j]) if j else zeros(dom, 0, r[0]) for j in range(len(r))]
    comps = []
    for j, n in enumerate(r):
        phi = identity(dom, n)
        if j:
            phi = add(phi, exactalg.mat_mul(dom, K.differentials[j - 1], h[j]))
        if j + 1 < len(r):
            phi = add(phi, exactalg.mat_mul(dom, h[j + 1], K.differentials[j]))
        comps.append(phi)
    return ChainMap(K, K, tuple(comps))


def _entries_digest(mats) -> str:
    import hashlib
    text = "\n".join("%dx%d %s" % (M.rows, M.cols, [(type(x).__name__, str(x)) for row in M.data
                                                      for x in row]) for M in mats)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of the (type name, str) of every entry of decalage and of
# decalage_map (of the identity and of a map homotopic to it), under the
# identity profile and a non-identity one with c = 0, c = 2 and e > 0 steps
_DECALAGE_PINS = {
    (INTEGERS, (2, 4)): "4555f9dc9b67bea6",
    (INTEGERS, (3, 4)): "d3582a0776e6bdfc",
    (INTEGERS, (4, 3)): "9cae6fea1ad59157",
    (INTEGERS, (5, 2)): "3b0983c63ce3d709",
    (RATIONALS, (2, 4)): "25ff5b2671fc0c74",
    (RATIONALS, (3, 4)): "35478a08e4bb3cc7",
    (RATIONALS, (4, 3)): "6cf22937b3b42ecf",
    (RATIONALS, (5, 2)): "c6cafea1cfe34814",
    (POLY, (2, 4)): "97c6140af66a283e",
    (POLY, (3, 4)): "d6df0440aa505bbe",
    (POLY, (4, 3)): "65f7119c87fc26ee",
    (POLY, (5, 2)): "80c740bd567a9dd9",
}


@pytest.mark.parametrize("dom, shape", list(_DECALAGE_PINS), ids=lambda x: str(x))
def test_decalage_values_are_pinned(dom, shape):
    k, deg = shape
    rng = random.Random(1000 * k + deg)
    f, K = _pin_koszul(dom, rng, k, deg)
    phi = _homotopic_to_identity(K, rng)
    mats = []
    for delta in (ShiftProfile.identity(0, k), ShiftProfile(0, (1, 2, 2, 0, 1, 3))):
        mats += decalage(K, f, delta).differentials
        for psi in (decalage_map(identity_chain_map(K), f, delta), decalage_map(phi, f, delta)):
            mats += psi.source.differentials + psi.target.differentials + psi.components
    assert _entries_digest(mats) == _DECALAGE_PINS[dom, shape]


# ------------------------------------------------------------------ chain maps


def test_chain_map_validation():
    C = two_term(INTEGERS, 2)
    with pytest.raises(ValueError):
        ChainMap(C, two_term(RATIONALS, 2), (identity(INTEGERS, 1),) * 2)
    with pytest.raises(ValueError):
        wider = BoundedComplex(
            INTEGERS, 0, (1, 1, 0), C.differentials + (zeros(INTEGERS, 0, 1),)
        )
        ChainMap(C, wider, (identity(INTEGERS, 1),) * 2)
    with pytest.raises(ValueError, match="one component per degree"):
        ChainMap(C, C, (identity(INTEGERS, 1),))
    # non-commuting square
    with pytest.raises(ValueError):
        ChainMap(
            C,
            two_term(INTEGERS, 4),
            (identity(INTEGERS, 1), identity(INTEGERS, 1)),
        )


def test_identity_is_quasi_iso():
    C = koszul(INTEGERS, (2, 4))
    assert is_quasi_iso(identity_chain_map(C))


def test_acyclic_to_zero_is_quasi_iso():
    C = two_term(INTEGERS, 1)
    Z = BoundedComplex(INTEGERS, 0, (0, 0), (zeros(INTEGERS, 0, 0),))
    phi = ChainMap(C, Z, (zeros(INTEGERS, 0, 1), zeros(INTEGERS, 0, 1)))
    assert is_quasi_iso(phi)


def test_doubling_is_not_quasi_iso():
    C = BoundedComplex(INTEGERS, 0, (1,), ())
    double = ChainMap(C, C, (mat(INTEGERS, [[2]]),))
    assert not is_quasi_iso(double)
    D = BoundedComplex(RATIONALS, 0, (1,), ())
    assert is_quasi_iso(ChainMap(D, D, (mat(RATIONALS, [[2]]),)))


def test_cone_shape():
    C = two_term(INTEGERS, 2)
    K = cone(identity_chain_map(C))
    assert K.lowest == -1 and K.ranks == (1, 2, 1)


def test_random_quasi_isos_detected():
    rng = random.Random(31)
    for dom in DOMAINS:
        rounds = 20 if dom is not POLY else 8
        for _ in range(rounds):
            assert is_quasi_iso(random_qis(dom, rng))


def test_inclusion_with_leftover_homology_is_not_qis():
    free = BoundedComplex(INTEGERS, 0, (1, 0), (zeros(INTEGERS, 0, 1),))
    C = two_term(INTEGERS, 1)
    D = direct_sum_complexes(C, free)
    comps = (
        mat(INTEGERS, [[1], [0]]),
        mat(INTEGERS, [[1]], cols=1),
    )
    phi = ChainMap(C, D, comps)
    assert not is_quasi_iso(phi)


def test_decalage_map_preserves_quasi_iso_smoke():
    rng = random.Random(37)
    delta = ShiftProfile.identity(0, 3)
    for _ in range(6):
        phi = random_qis(POLY, rng, n_terms=3, max_atoms=2)
        assert is_quasi_iso(decalage_map(phi, t, delta))
    for _ in range(6):
        phi = random_qis(INTEGERS, rng, n_terms=3, max_atoms=3)
        assert is_quasi_iso(decalage_map(phi, 2, delta))


def test_decalage_map_ends_are_the_decalages():
    # decalage_map builds its ends from the eta terms it already has; they
    # must be the complexes decalage builds on its own
    rng = random.Random(71)
    delta = ShiftProfile.identity(0, 3)
    C = koszul(POLY, (t * (t + 1), t * (t - 2), t**2))
    maps = [identity_chain_map(C)]
    maps += [random_qis(POLY, rng, n_terms=3, max_atoms=2) for _ in range(3)]
    maps += [random_qis(INTEGERS, rng, n_terms=3, max_atoms=3) for _ in range(3)]
    for phi in maps:
        f = t if phi.source.domain is POLY else 2
        psi = decalage_map(phi, f, delta)
        assert psi.source == decalage(phi.source, f, delta)
        assert psi.target == decalage(phi.target, f, delta)
    psi = decalage_map(maps[0], t, delta)
    assert all(comp == identity(POLY, comp.rows) for comp in psi.components)


# ------------------------------------------------------------ sympy oracle


def test_qt_invariant_factors_against_sympy():
    # the invariant factors cohomology reads off each differential's
    # elimination are the nonzero ones sympy computes over QQ[t], made monic
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    x = sympy.Symbol("t")
    ring = sympy.QQ[x]

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**e
                   for e, c in enumerate(p.coeffs))

    def monic_poly(e):
        cs = sympy.Poly(ring.to_sympy(e), x).all_coeffs()[::-1]
        return Poly([Fraction(int(c.p), int(c.q)) for c in cs]).monic()

    rng = random.Random(61)
    torsion = 0
    for _ in range(12):
        g = Poly([rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])])
        elems = [g * Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1])
                 for _ in range(rng.randint(2, 4))]
        K = koszul(POLY, elems)
        H = cohomology(K)
        for j, d in enumerate(K.differentials):
            M = sympy.Matrix([[to_sympy(p) for p in row] for row in d.data])
            want = tuple(monic_poly(e) for e in invariant_factors(M, domain=ring) if e)
            assert complexes.smith_elimination(POLY, d).invariant_factors == want
            assert H[j + 1][1] == tuple(s for s in want if s != POLY.one)
        torsion += len(H[len(elems)][1])
    assert torsion > 0
