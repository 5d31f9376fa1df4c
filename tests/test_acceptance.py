"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line when its criterion holds; budgets
are wall-clock and generous enough for CI boxes.
"""

import json
import random
import time
from fractions import Fraction

import jsonschema
import pytest

from ffcurve import bc, cli, cocycles, derham, sheaves, tilting
from ffcurve.complexes import (
    ShiftProfile,
    cohomology,
    decalage,
    decalage_map,
    is_acyclic,
    is_quasi_iso,
    koszul,
)
from ffcurve.exactalg import INTEGERS, POLY_OVER_RATIONALS as POLY
from ffcurve.parser import parse_object
from ffcurve.polyring import Poly, T_VAR as t
from ffcurve.sheaves import BCInvariant, O, TiltedObject, se1, se2, se3
from ffcurve.slopes import Slope

from gen import (
    cohx_hom_matrix,
    random_qis,
    random_sheaf,
    random_slope,
    random_tilted,
    second_tilt_hom_matrix,
)


def test_criterion_01_breen_oracle():
    start = time.perf_counter()
    tables = bc.breen_tables()
    elapsed = time.perf_counter() - start
    C = BCInvariant(1, 0)
    QP = BCInvariant(0, 1)
    Z = BCInvariant(0, 0)
    assert tables["labels"] == ("GA", "QP")
    assert tables["hom"] == ((C, Z), (C, QP))
    assert tables["ext1"] == ((C, C), (Z, Z))
    assert tables["ext2"] == ((Z, Z), (Z, Z))
    assert elapsed < 1.0
    print("ACCEPTANCE 1: PASS (breen tables, %.3fs)" % elapsed)


def test_criterion_02_euler_characteristic():
    rng = random.Random(102)
    start = time.perf_counter()
    for _ in range(1000):
        F = random_sheaf(rng, dmax=12, hmax=12, lenmax=8)
        assert sheaves.chi(F) == BCInvariant(F.degree, F.rank)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print("ACCEPTANCE 2: PASS (chi on 1000 sheaves, %.3fs)" % elapsed)


def test_criterion_03_ext_vanishing():
    rng = random.Random(103)
    zero = BCInvariant(0, 0)
    for _ in range(400):
        a = random_slope(rng, dmax=12, hmax=12)
        b = random_slope(rng, dmax=12, hmax=12)
        lam, mu = min(a, b), max(a, b)
        assert sheaves.ext1(O(lam.d, lam.h), O(mu.d, mu.h)) == zero
    for _ in range(400):
        F = random_sheaf(rng)
        G = random_sheaf(rng)
        assert sheaves.ext2(F, G) == zero
        assert sheaves.ext2(G, F) == zero
    print("ACCEPTANCE 3: PASS (ext1 vanishing for lam <= mu, ext2 == 0)")


def test_criterion_04_double_tilt_round_trip():
    rng = random.Random(104)
    for _ in range(250):
        F = random_sheaf(rng)
        assert tilting.double_tilt(tilting.tilt(F)) == F
    for _ in range(250):
        A = random_tilted(rng)
        assert tilting.tilt(tilting.double_tilt(A)) == A
    for _ in range(500):
        F = random_sheaf(rng)
        G = random_sheaf(rng)
        lhs = cohx_hom_matrix(F, G).total
        rhs = second_tilt_hom_matrix(tilting.tilt(F), tilting.tilt(G)).total
        assert lhs == rhs
    print("ACCEPTANCE 4: PASS (500 round trips, 500 hom-matrix totals)")


def test_criterion_05_bc_functor_consistency():
    rng = random.Random(105)
    for _ in range(400):
        T_obj = random_tilted(rng)
        dm, rm, _ = tilting.tilted_invariants(T_obj)
        want = BCInvariant(rm, -dm)
        assert bc.dim_ht(T_obj) == want
        assert bc.r0tau(T_obj).invariant == want
    certificates = (
        [se1(d) for d in range(2, 13)]
        + [se2(k) for k in range(1, 13)]
        + [se3(k) for k in range(1, 13)]
    )
    for seq in certificates:
        seq.validate()
        left = bc.r0tau(seq.left).invariant
        right = bc.r0tau(seq.right).invariant
        assert bc.r0tau(seq.middle).invariant == left + right
        assert bc.dim_ht(seq.middle) == bc.dim_ht(seq.left) + bc.dim_ht(seq.right)
    print("ACCEPTANCE 5: PASS (dim_ht = (rg-, -deg-) on 400 objects, se additivity)")


def test_criterion_06_effective_presentations():
    rng = random.Random(106)
    for _ in range(200):
        A = random_tilted(rng)
        cert = bc.effective_presentation(A)
        cert.validate()
        assert cert.a >= 0
        assert not cert.middle.torsion
        for s, _ in cert.middle.bundle:
            assert Fraction(0) <= Fraction(s.d, s.h) <= Fraction(1)
        for step in cert.steps:
            step.validate()
        cert.final.validate()
    print("ACCEPTANCE 6: PASS (200 certificates: O^a kernel, slopes in [0,1])")


def _random_nonzero_poly(rng, max_deg=2, span=3):
    while True:
        p = Poly([rng.randint(-span, span) for _ in range(rng.randint(1, max_deg + 1))])
        if not p.is_zero:
            return p


def test_criterion_07_koszul_decalage():
    rng = random.Random(107)
    for _ in range(12):
        n = rng.randint(1, 3)
        gs = [_random_nonzero_poly(rng) for _ in range(n)]
        delta = ShiftProfile.identity(0, n)
        lhs = cohomology(decalage(koszul(POLY, [t * g for g in gs]), t, delta))
        assert lhs == cohomology(koszul(POLY, gs))
    for _ in range(8):
        n = rng.randint(2, 3)
        gs = [t] + [_random_nonzero_poly(rng) for _ in range(n - 1)]
        rng.shuffle(gs)
        delta = ShiftProfile.identity(0, n)
        assert is_acyclic(decalage(koszul(POLY, gs), t, delta))
    for _ in range(6):
        n = rng.randint(1, 3)
        K = koszul(POLY, [_random_nonzero_poly(rng) for _ in range(n)])
        assert decalage(K, t, ShiftProfile.constant(0)) == K
    delta = ShiftProfile.identity(0, 3)
    checked = 0
    for _ in range(80):
        phi = random_qis(INTEGERS, rng, n_terms=3, max_atoms=3)
        assert is_quasi_iso(decalage_map(phi, 2, delta))
        checked += 1
    for _ in range(20):
        phi = random_qis(POLY, rng, n_terms=3, max_atoms=2)
        assert is_quasi_iso(decalage_map(phi, t, delta))
        checked += 1
    assert checked >= 100
    print("ACCEPTANCE 7: PASS (eta_t identities, %d decalage_map instances)" % checked)


def test_criterion_08_derham_tables():
    start = time.perf_counter()
    for n in (1, 2, 3):
        # raises unless d o d = 0 and every strand is certified exact
        qp = derham.qp_cohomology(n, 8)
        assert qp.table[0] == {0: 1}
        assert all(w == 8 for _, w in qp.boundary)
    ga = derham.ga_cohomology(1, 8)
    assert sorted(ga[1]) == list(range(0, 8))
    assert all(v == 1 for v in ga[1].values())
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print("ACCEPTANCE 8: PASS (derham n <= 3, D = 8, %.2fs)" % elapsed)


def test_criterion_09_cocycles():
    for q in range(2, 9):
        report = cocycles.symmetric_2cocycle_report(q)
        assert report["cocycle_dim"] == 1
        assert report["quotient_dim"] == 0
    checks = cocycles.hom_column_checks(degree_poly=6, degree_mahler=4)
    assert checks["poly_kernel"]["dim"] == 1
    assert checks["poly_kernel"]["is_span_of_identity"]
    assert checks["mahler_middle"]["homology_dims"] == (0, 0)
    assert checks["ok"]
    print("ACCEPTANCE 9: PASS (cocycle dims q=2..8, kernel, Mahler exactness)")


# ------------------------------------------------------------- CLI: schema map

_INT = {"type": "integer"}
_STR = {"type": "string"}
_BOOL = {"type": "boolean"}
_PAIR = {"type": "array", "items": _INT, "minItems": 2, "maxItems": 2}
_STR_LIST = {"type": "array", "items": _STR}


def _payload(required, props):
    props = dict(props)
    props["schema"] = {"const": cli.SCHEMA}
    props["command"] = _STR
    return {
        "type": "object",
        "required": ["schema", "command"] + required,
        "properties": props,
        "additionalProperties": False,
    }


_INVARIANT = _payload(["dim", "ht"], {"dim": _INT, "ht": _INT})

_COMPLEX = {
    "type": "object",
    "required": ["domain", "lowest", "ranks", "differentials"],
    "properties": {
        "domain": _STR,
        "lowest": _INT,
        "ranks": {"type": "array", "items": _INT},
        "differentials": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rows", "cols", "data"],
            },
        },
    },
    "additionalProperties": False,
}

_H_TABLE = {
    "type": "object",
    "patternProperties": {
        "^-?\\d+$": {
            "type": "object",
            "required": ["rank", "torsion"],
            "properties": {"rank": _INT, "torsion": _STR_LIST},
            "additionalProperties": False,
        }
    },
    "additionalProperties": False,
}

_DIM_TABLE = {
    "type": "object",
    "patternProperties": {"^\\d+$": {"type": "object"}},
    "additionalProperties": False,
}

_MATRIX2 = {
    "type": "array",
    "items": {"type": "array", "items": _PAIR, "minItems": 2, "maxItems": 2},
    "minItems": 2,
    "maxItems": 2,
}

CLI_SCHEMAS = {
    "info": _payload(
        ["object", "kind", "invariants", "k0", "bc", "pieces"],
        {
            "object": _STR,
            "kind": {"enum": ["sheaf", "tilted"]},
            "invariants": {
                "type": "object",
                "required": ["rank", "degree", "slope"],
                "properties": {
                    "rank": _INT,
                    "degree": _INT,
                    "slope": {"type": ["string", "null"]},
                },
                "additionalProperties": False,
            },
            "chi": _PAIR,
            "h0": _PAIR,
            "h1": _PAIR,
            "tilted": {"type": ["object", "null"]},
            "k0": {
                "type": "object",
                "required": ["a", "b"],
                "properties": {"a": _INT, "b": _INT},
                "additionalProperties": False,
            },
            "bc": {
                "type": "object",
                "required": ["dim", "ht"],
                "properties": {"dim": _INT, "ht": _INT},
                "additionalProperties": False,
            },
            "pieces": {
                "type": "array",
                "items": {"type": "object", "required": ["object"]},
            },
        },
    ),
    "hn": _payload(
        ["object", "pieces", "vertices"],
        {
            "object": _STR,
            "pieces": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["slope", "object", "vector"],
                    "properties": {
                        "slope": _STR,
                        "object": _STR,
                        "vector": _PAIR,
                    },
                    "additionalProperties": False,
                },
            },
            "vertices": {"type": "array", "items": _PAIR, "minItems": 1},
            "svg": _STR,
        },
    ),
    "hom": _INVARIANT,
    "ext1": _INVARIANT,
    "ext2": _INVARIANT,
    "chi": _INVARIANT,
    "k0": _payload(["a", "b"], {"a": _INT, "b": _INT}),
    "tilt": _payload(["object", "tilted"], {"object": _STR, "tilted": _STR}),
    "untilt": _payload(["object", "sheaf"], {"object": _STR, "sheaf": _STR}),
    "hnminus": _payload(
        ["object", "pieces"],
        {
            "object": _STR,
            "pieces": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["mu", "object"],
                    "properties": {"mu": _STR, "object": _STR},
                    "additionalProperties": False,
                },
            },
        },
    ),
    "bc": _payload(
        ["object", "descriptor"],
        {
            "object": _STR,
            "descriptor": {
                "type": "object",
                "required": ["atoms", "dim", "ht"],
                "properties": {
                    "atoms": {"type": "array", "items": {"type": "object"}},
                    "dim": _INT,
                    "ht": _INT,
                },
                "additionalProperties": False,
            },
        },
    ),
    "present": _payload(
        ["target", "kernel_rank", "middle", "presentation", "steps", "levels", "valid"],
        {
            "target": _STR,
            "kernel_rank": _INT,
            "middle": _STR,
            "presentation": _STR,
            "steps": _INT,
            "levels": {"type": "array"},
            "valid": _BOOL,
        },
    ),
    "breen": _payload(
        ["labels", "hom", "ext1", "ext2"],
        {
            "labels": {"type": "array", "items": _STR, "minItems": 2, "maxItems": 2},
            "hom": _MATRIX2,
            "ext1": _MATRIX2,
            "ext2": _MATRIX2,
        },
    ),
    "koszul": _payload(
        ["elements", "complex"], {"elements": _STR_LIST, "complex": _COMPLEX}
    ),
    "cohom": _payload(["elements", "H"], {"elements": _STR_LIST, "H": _H_TABLE}),
    "eta": _payload(
        ["f", "elements", "complex", "cohomology"],
        {
            "f": _STR,
            "elements": _STR_LIST,
            "complex": _COMPLEX,
            "cohomology": _H_TABLE,
        },
    ),
    "derham": _payload(
        ["n", "trunc", "ga", "qp"],
        {
            "n": _INT,
            "trunc": _INT,
            "ga": _DIM_TABLE,
            "qp": {
                "type": "object",
                "required": ["table", "boundary"],
                "properties": {
                    "table": _DIM_TABLE,
                    "boundary": {"type": "array", "items": _PAIR},
                },
                "additionalProperties": False,
            },
        },
    ),
    "cocycle": {
        "oneOf": [
            _payload(
                ["q", "cocycle_dim", "coboundary_dim", "quotient_dim", "basis"],
                {
                    "q": _INT,
                    "cocycle_dim": _INT,
                    "coboundary_dim": _INT,
                    "quotient_dim": _INT,
                    "basis": _STR_LIST,
                },
            ),
            _payload(
                ["poly_kernel", "constants", "mahler_middle", "ok"],
                {
                    "poly_kernel": {"type": "object"},
                    "constants": {"type": "object"},
                    "mahler_middle": {"type": "object"},
                    "ok": _BOOL,
                },
            ),
        ]
    },
}


def test_criterion_10_cli_roundtrip_and_schema(capsys, tmp_path):
    rng = random.Random(110)
    for _ in range(500):
        F = random_sheaf(rng, allow_zero=True)
        assert parse_object(str(F)) == F
    for _ in range(500):
        A = random_tilted(rng)
        assert parse_object(str(A)) == A

    svg_path = str(tmp_path / "hn.svg")
    invocations = [
        ["info", "O(1/2) + T(inf,[2])"],
        ["info", "tilted(O(-1); O)"],
        ["hn", "O(1)+O(-1)", "--svg", svg_path],
        ["hom", "O", "O(1)"],
        ["ext1", "O(1)", "O"],
        ["ext2", "O(2)", "T(inf,[3])"],
        ["chi", "O(2/3)"],
        ["k0", "O(2/3)"],
        ["tilt", "O(-1) + O(2)"],
        ["untilt", "tilted(O(-1); O(2))"],
        ["hnminus", "tilted(O(-1); O(1))"],
        ["bc", "O(1/2)"],
        ["present", "O(3)"],
        ["breen"],
        ["koszul", "t", "t + 1"],
        ["cohom", "t", "t^2"],
        ["eta", "t", "t", "t + 1"],
        ["derham", "1", "--trunc", "4"],
        ["cocycle", "3"],
        ["cocycle", "--report"],
    ]
    seen = set()
    for argv in invocations:
        code = cli.main(argv + ["--json"])
        out = capsys.readouterr().out
        assert code == 0, (argv, out)
        payload = json.loads(out)
        verb = payload["command"]
        assert verb == argv[0]
        jsonschema.validate(payload, CLI_SCHEMAS[verb])
        seen.add(verb)
    assert seen == set(CLI_SCHEMAS)
    print("ACCEPTANCE 10: PASS (1000 round trips, schema-valid output per verb)")
