"""The four benchmark workloads: seeded inputs, timed operations, oracles.

Each workload turns a ``random.Random`` into a fixed list of ``Op``.  An op's
``run`` is the timed part: it calls the library through module attributes
looked up at call time, so the tracer's wrappers see every call.  Its
``check`` runs outside the timed region and raises ``Mismatch`` when the
output disagrees with an oracle that does not share the code under test
(closed forms, identities re-checked with the benchmark's own arithmetic,
or a second library routine tied to the first by a theorem).

Every op kind has a fixed count per seed, and the few largest inputs, which
set op_tail_ms, come from fixed ladders rather than random draws, so each
seed gives different inputs with the same mix; that keeps run-to-run spread
small.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd
from time import perf_counter


class Mismatch(Exception):
    """An output disagrees with its oracle."""


class Op:
    __slots__ = ("kind", "run", "check", "count")

    def __init__(self, kind, run, check, count=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.count = count  # optional count(result, tracer) for traced passes


def expect(cond, message, *args) -> None:
    if not cond:
        raise Mismatch(message % args if args else message)


# =============================================================================
# sheaf_queries: parser, slopes/sheaves, tilting and bc on text expressions
# =============================================================================

LABELS = ("inf", "x0", "x1", "y")


class Spec:
    """Generated object: bundle atoms (d, h, m), torsion (label, factors)."""

    __slots__ = ("atoms", "torsion", "text", "tilted")

    def __init__(self, atoms, torsion, text, tilted):
        self.atoms = atoms
        self.torsion = torsion
        self.text = text
        self.tilted = tilted  # the text parses to a TiltedObject

    def _parts(self):
        # reduced (rank, degree) of the negative and non-negative bundle parts
        neg = [0, 0]
        pos = [0, sum(sum(fs) for _, fs in self.torsion)]
        for d, h, m in self.atoms:
            g = gcd(abs(d), h) if d else h
            part = neg if d < 0 else pos
            part[0] += (h // g) * m
            part[1] += (d // g) * m
        return neg, pos

    def sheaf_class(self):
        """(rank, degree) of the sheaf that forgets the shift."""
        neg, pos = self._parts()
        return neg[0] + pos[0], neg[1] + pos[1]

    def heart_class(self):
        """(rank, degree) in the tilted heart: [non-negative] - [negative]."""
        neg, pos = self._parts()
        return pos[0] - neg[0], pos[1] - neg[1]


def _atom_text(rng, d, h, m):
    if h == 1:
        body = "O" if d == 0 and rng.random() < 0.5 else "O(%d)" % d
    else:
        body = "O(%d/%d)" % (d, h)
    return body if m == 1 else "%s^%d" % (body, m)


def _torsion_text(label, fs):
    return "T(%s,[%s])" % (label, ",".join(str(k) for k in fs))


def _draw_atoms(rng, sign, count):
    atoms = []
    while len(atoms) < count:
        d, h = rng.randint(-30, 30), rng.randint(1, 12)
        if (sign == "neg" and d >= 0) or (sign == "nonneg" and d < 0):
            continue
        atoms.append((d, h, rng.randint(1, 3)))
    return atoms


def _draw_torsion(rng, count):
    return [
        (label, sorted((rng.randint(1, 8) for _ in range(rng.randint(1, 3))), reverse=True))
        for label in rng.sample(LABELS, count)
    ]


def _join(rng, parts):
    rng.shuffle(parts)
    return (" + " if rng.random() < 0.7 else "+").join(parts)


def sheaf_spec(rng) -> Spec:
    """A non-zero plain sheaf: up to 4 bundle atoms, up to 2 torsion points."""
    nb, nt = rng.randint(0, 4), rng.randint(0, 2)
    if nb + nt == 0:
        nb = 1
    atoms, torsion = _draw_atoms(rng, "any", nb), _draw_torsion(rng, nt)
    parts = [_atom_text(rng, *a) for a in atoms] + [_torsion_text(*t) for t in torsion]
    return Spec(atoms, torsion, _join(rng, parts), False)


def tilted_spec(rng) -> Spec:
    """A non-zero tilted object, written as tilted(neg; pos) or with [1] shifts."""
    nn, np_, nt = rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 2)
    if nn + np_ + nt == 0:
        nn = 1
    neg, pos = _draw_atoms(rng, "neg", nn), _draw_atoms(rng, "nonneg", np_)
    torsion = _draw_torsion(rng, nt)
    pos_parts = [_atom_text(rng, *a) for a in pos] + [_torsion_text(*t) for t in torsion]
    neg_parts = [_atom_text(rng, *a) for a in neg]
    if neg and rng.random() < 0.5:
        text = _join(rng, [p + "[1]" for p in neg_parts] + pos_parts)
    else:
        text = "tilted(%s; %s)" % (
            _join(rng, neg_parts) if neg_parts else "0",
            _join(rng, pos_parts) if pos_parts else "0",
        )
    return Spec(neg + pos, torsion, text, True)


def build_sheaf_queries(rng, root):
    from ffcurve import bc, parser, sheaves, tilting

    parse = lambda text: parser.parse_object(text)

    def check_parsed(x, spec):
        expect(parse(str(x)) == x, "parse(str(x)) != x for %r", spec.text)
        expect(isinstance(x, sheaves.TiltedObject) == spec.tilted, "wrong kind for %r", spec.text)
        if spec.tilted:
            expect((x.rank, x.degree) == spec.heart_class(), "class of %r", spec.text)
        else:
            expect((x.rank, x.degree) == spec.sheaf_class(), "class of %r", spec.text)

    def euler(a, b):
        # Euler form on K_0: chi(A, B) = (rA dB - dA rB, rA rB)
        (ra, da), (rb, db) = a, b
        return (ra * db - da * rb, ra * rb)

    def binary(kind):
        sa, sb = sheaf_spec(rng), sheaf_spec(rng)

        def run():
            F, G = parse(sa.text), parse(sb.text)
            return F, G, getattr(sheaves, kind)(F, G)

        def check(res):
            F, G, v = res
            check_parsed(F, sa)
            check_parsed(G, sb)
            if kind == "ext2":
                expect(tuple(v) == (0, 0), "ext2 != 0")
                return
            h, e = (v, sheaves.ext1(F, G)) if kind == "hom" else (sheaves.hom(F, G), v)
            got = (h.dim - e.dim, h.ht - e.ht)
            want = euler(sa.sheaf_class(), sb.sheaf_class())
            expect(got == want, "hom - ext1 = %s, Euler form %s", got, want)

        return Op(kind, run, check)

    def tilted_binary(kind):
        sa, sb = tilted_spec(rng), tilted_spec(rng)

        def run():
            A, B = parse(sa.text), parse(sb.text)
            return A, B, getattr(tilting, kind)(A, B)

        def check(res):
            A, B, v = res
            check_parsed(A, sa)
            check_parsed(B, sb)
            if kind == "hom_tilted":
                h, e = v.total, tilting.ext1_tilted(A, B)
            else:
                h, e = tilting.hom_tilted(A, B).total, v
            got = (h.dim - e.dim, h.ht - e.ht)
            want = euler(sa.heart_class(), sb.heart_class())
            expect(got == want, "tilted hom - ext1 = %s, Euler form %s", got, want)

        return Op(kind, run, check)

    def unary(kind, spec, module, name, verify):
        def run():
            x = parse(spec.text)
            return x, getattr(module, name)(x)

        def check(res):
            x, v = res
            check_parsed(x, spec)
            verify(spec, x, v)

        return Op(kind, run, check)

    def v_chi(spec, F, v):
        r, d = spec.sheaf_class()
        expect(tuple(v) == (d, r), "Riemann-Roch: chi %s, (deg, rank) (%d, %d)", v, d, r)

    def v_k0(spec, F, v):
        r, d = spec.sheaf_class()
        expect(v == (r - d, d), "k0 %s for rank %d degree %d", v, r, d)

    def v_hn(spec, F, pieces):
        slopes = [s for s, _ in pieces]
        expect(all(a > b for a, b in zip(slopes, slopes[1:])), "HN slopes not decreasing")
        total = (sum(p.rank for _, p in pieces), sum(p.degree for _, p in pieces))
        expect(total == spec.sheaf_class(), "HN pieces do not add up")
        for s, p in pieces:
            if s.is_finite:
                expect(p.degree * s.h == s.d * p.rank, "piece off its slope %s", s)
            else:
                expect(p.rank == 0, "torsion piece has rank")

    def v_tilt(spec, F, A):
        expect(tilting.double_tilt(A) == F, "double tilt does not undo tilt")
        expect((A.rank, A.degree) == spec.heart_class(), "tilted class")

    def v_double_tilt(spec, A, F):
        expect(tilting.tilt(F) == A, "tilt does not undo double tilt")
        expect((F.rank, F.degree) == spec.sheaf_class(), "double tilt class")

    def v_hn_minus(spec, A, pieces):
        mus = [m for m, _ in pieces]
        expect(all(a > b for a, b in zip(mus, mus[1:])), "mu- not decreasing")
        a = sum(p.k0_class()[0] for _, p in pieces)
        b = sum(p.k0_class()[1] for _, p in pieces)
        expect((a, b) == A.k0_class(), "HN- pieces do not add up")

    def v_tilted_invariants(spec, A, v):
        r, d = spec.heart_class()
        mu = tilting.MU_MINUS_INFINITY if d == 0 else Fraction(-r, d)
        expect(v == (-r, d, mu), "tilted invariants %s for class (%d, %d)", v, r, d)

    def v_r0tau(spec, x, desc):
        r, d = spec.heart_class()
        expect(tuple(desc.invariant) == (d, r), "descriptor invariant %s", desc.invariant)

    def v_dim_ht(spec, x, v):
        r, d = spec.heart_class()
        expect(tuple(v) == (d, r), "dim/ht %s for class (%d, %d)", v, r, d)

    def v_present(spec, x, cert):
        cert.validate()
        r, d = spec.heart_class()
        expect((cert.target.rank, cert.target.degree) == (r, d), "presentation target")
        expect(cert.middle.rank - cert.a == r and cert.middle.degree == d,
               "0 -> O^a -> middle -> target -> 0 is not additive")

    sheaf = lambda: sheaf_spec(rng)
    tilted = lambda: tilted_spec(rng)
    either = lambda: tilted_spec(rng) if rng.random() < 0.5 else sheaf_spec(rng)
    unary_kinds = (  # (library function, its module, input drawer, oracle)
        ("chi", sheaves, sheaf, v_chi),
        ("k0_class", sheaves, sheaf, v_k0),
        ("hn", sheaves, sheaf, v_hn),
        ("tilt", tilting, sheaf, v_tilt),
        ("double_tilt", tilting, tilted, v_double_tilt),
        ("hn_minus", tilting, tilted, v_hn_minus),
        ("tilted_invariants", tilting, tilted, v_tilted_invariants),
        ("r0tau", bc, either, v_r0tau),
        ("dim_ht", bc, either, v_dim_ht),
        ("effective_presentation", bc, either, v_present),
    )
    ops = []
    for _ in range(SHEAF_OPS_PER_KIND):
        ops.extend(binary(kind) for kind in ("hom", "ext1", "ext2"))
        ops.extend(tilted_binary(kind) for kind in ("hom_tilted", "ext1_tilted"))
        ops.extend(unary(name, draw(), mod, name, verify)
                   for name, mod, draw, verify in unary_kinds)
    # integer twists with large d: the O(sum d) splice ladder shows in the tail
    for d in TWIST_DS:
        spec = Spec([(d, 1, 1)], [], "O(%d)" % d, False)
        ops.append(unary("present_twist", spec, bc, "effective_presentation", v_present))
    rng.shuffle(ops)
    return ops


SHEAF_OPS_PER_KIND = 200  # 15 kinds
TWIST_DS = range(150, 2001, 100)  # 19 twists, about 0.6% of the ops


# =============================================================================
# exact_linalg: Smith forms over Z and Q, Koszul/decalage over Q[t]
# =============================================================================

# independent modular check of the Smith-form identities
PRIMES = (2**61 - 1, 2**127 - 1)


def _mod(x, p):
    if isinstance(x, int):
        return x % p
    return x.numerator * pow(x.denominator, -1, p) % p


def _mat_mod(M, p):
    return [[_mod(x, p) for x in row] for row in M.data]


def _mul_mod(A, B, p):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in A]


def _is_identity(M):
    return all(x == (1 if i == j else 0) for i, row in enumerate(M) for j, x in enumerate(row))


def check_smith(dom_name, A, f):
    m, n = A.rows, A.cols
    S = f.S.data
    expect(all(S[i][j] == 0 for i in range(m) for j in range(n) if i != j), "S not diagonal")
    diag = [S[i][i] for i in range(min(m, n))]
    r = f.rank
    expect(all(x != 0 for x in diag[:r]) and all(x == 0 for x in diag[r:]),
           "rank %d does not match the diagonal", r)
    if dom_name == "Z":
        expect(all(x > 0 for x in diag[:r]), "invariant factors not positive")
        expect(all(diag[i + 1] % diag[i] == 0 for i in range(r - 1)), "divisibility chain")
    else:
        expect(all(x == 1 for x in diag[:r]), "invariant factors over Q are not 1")
    for p in PRIMES:
        U, Ui, V, Vi = (_mat_mod(M, p) for M in (f.U, f.Uinv, f.V, f.Vinv))
        UAV = _mul_mod(_mul_mod(U, _mat_mod(A, p), p), V, p)
        expect(UAV == _mat_mod(f.S, p), "S != U A V (mod %d)", p)
        expect(_is_identity(_mul_mod(U, Ui, p)), "U Uinv != I (mod %d)", p)
        expect(_is_identity(_mul_mod(V, Vi, p)), "V Vinv != I (mod %d)", p)


# plain coefficient lists over Q, low degree first: the oracle's own arithmetic
def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod(a, b):
    a = _trim(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, bc in enumerate(b):
            a[k + i] -= q * bc
        a = _trim(a)
    return a


def _pgcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pmod(a, b)
    return [c / a[-1] for c in a]


def _peval(coeffs, x):
    v = Fraction(0)
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _rand_poly(rng, deg):
    cs = [Fraction(rng.randint(-5, 5)) for _ in range(deg)]
    cs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
    return cs


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def build_exact_linalg(rng, root):
    from ffcurve import complexes, exactalg
    from ffcurve.exactalg import INTEGERS, POLY_OVER_RATIONALS, RATIONALS
    from ffcurve.polyring import Poly

    ops = []

    def snf_op(tag, dom, n):
        A = exactalg.mat(dom, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        return Op("snf_" + tag, lambda: exactalg.smith_normal_form(dom, A),
                  lambda f: check_smith(tag, A, f))

    for _ in range(SNF_PER_SIZE):
        for n in range(SNF_Z_MIN, SNF_Z_MAX + 1):
            ops.append(snf_op("Z", INTEGERS, n))
        for n in range(SNF_Q_MIN, SNF_Q_MAX + 1):
            ops.append(snf_op("Q", RATIONALS, n))

    def koszul_op(kind, k, deg):
        # k elements of degree deg sharing a linear factor g, so that the top
        # cohomology has torsion and the decalage along g is not trivial
        g = _rand_poly(rng, 1)
        raw = [_pmul(g, _rand_poly(rng, deg - 1)) for _ in range(k)]
        elems = [Poly(c) for c in raw]
        f = Poly(g)
        K = lambda: complexes.koszul(POLY_OVER_RATIONALS, elems)
        delta = complexes.ShiftProfile.identity(0, k)
        top = _pgcd(raw[0], raw[0])
        for c in raw[1:]:
            top = _pgcd(top, c)

        if kind == "cohomology":
            def run():
                return complexes.cohomology(K())

            def check(H):
                expect(sorted(H) == list(range(k + 1)), "cohomology degrees")
                expect(all(r == 0 for r, _ in H.values()), "Koszul cohomology has free part")
                want = () if len(top) == 1 else (tuple(top),)
                got = tuple(tuple(t.coeffs) for t in H[k][1])
                expect(got == want, "top cohomology %s, Q[t]/gcd wants %s", got, want)
        elif kind == "decalage":
            def run():
                return complexes.decalage(K(), f, delta)

            def check(E):
                expect(E.ranks == tuple(comb(k, j) for j in range(k + 1)), "decalage ranks")
                # d o d = 0 at sample points, with the oracle's own evaluation
                for x in (Fraction(2), Fraction(-3, 2), Fraction(7)):
                    ev = [[[_peval(e.coeffs, x) for e in row] for row in d.data]
                          for d in E.differentials]
                    for d1, d0 in zip(ev[1:], ev):
                        for row in d1:
                            for col in zip(*d0):
                                expect(sum(a * b for a, b in zip(row, col)) == 0,
                                       "decalage d o d != 0 at t=%s", x)
        elif kind == "decalage_map":
            def run():
                C = K()
                return complexes.decalage_map(complexes.identity_chain_map(C), f, delta)

            def check(phi):
                expect(all(_is_identity(comp.data) for comp in phi.components),
                       "decalage of the identity is not the identity")
        else:
            c = Fraction(rng.choice([2, 3, -1])) / rng.choice([1, 2])

            def run():
                C = K()
                comps = tuple(
                    exactalg.Mat(r, r, tuple(
                        tuple(Poly.const(c) if i == j else POLY_OVER_RATIONALS.zero
                              for j in range(r)) for i in range(r)))
                    for r in C.ranks)
                return complexes.is_quasi_iso(complexes.ChainMap(C, C, comps))

            def check(v):
                expect(v is True, "a unit multiple of the identity is not a quasi-iso")
        return Op("qt_" + kind, run, check)

    for _ in range(KOSZUL_PER_SHAPE):
        for k, deg in KOSZUL_SHAPES:
            for kind in ("cohomology", "decalage", "decalage_map", "is_quasi_iso"):
                ops.append(koszul_op(kind, k, deg))
    rng.shuffle(ops)
    return ops


# Over Z, blow-up starts near n = 16 (transform entries of ~400 bits at 16,
# ~5k at 20).  Beyond 20 single matrices swing from 0.01 s to 0.3 s and more,
# so one unlucky draw moves wall_s by half; the range stops at 20 to keep
# runs comparable, and exactalg.max_transform_bits still shows the growth.
SNF_Z_MIN, SNF_Z_MAX = 8, 20
SNF_Q_MIN, SNF_Q_MAX = 8, 20
SNF_PER_SIZE = 2
# (number of elements, their degree): 6 quadratics already run for minutes
KOSZUL_SHAPES = ((2, 4), (3, 4), (4, 3), (5, 2))
# the slowest ops of a pass are (5, 2) Koszul ops and set op_tail_ms; two
# draws of each shape keep one draw's coefficients from setting it alone
# (more draws of (5, 2) steadied op_tail_ms but moved the median op onto a
# gap between Smith form sizes, and op_p50_ms then varied with the seed)
KOSZUL_PER_SHAPE = 2


# =============================================================================
# derham_tables: graded de Rham (Bareiss, dense d o d) and cocycles (RREF)
# =============================================================================

# n -> largest truncation D.  Every seed runs the whole grid; the seed orders
# it and pairs the degrees of the column checks.  (3, 10) and (4, 6),
# at ~0.5 s and ~1 s per qp table, are left out: ops that long get too few
# repeats in one run to find a quiet moment on a shared machine, and wall_s
# then swung by 20% between runs.
DERHAM_GRID = {1: 12, 2: 12, 3: 9, 4: 5}


def _piece_dim(n, i, e):
    return comb(n, i) * comb(n + e - 1, e) if e >= 0 else 0


def build_derham_tables(rng, root):
    from ffcurve import cocycles, derham

    ops = []

    def qp_op(n, D):
        def check(res):
            expect(res.table[0] == {0: 1}, "H^0 is not the constants")
            for i in range(1, n + 1):
                expect(sorted(res.table[i]) == list(range(i, D + 1)), "weights at i=%d", i)
                for w, ker in res.table[i].items():
                    # exact strands: ker d_i = alternating sum of lower piece dims
                    want = sum((-1) ** (i - 1 - j) * _piece_dim(n, j, w - j) for j in range(i))
                    expect(ker == want, "qp (%d,%d) i=%d w=%d: %d != %d", n, D, i, w, ker, want)
            expect(res.boundary == frozenset((i, D) for i in range(1, min(n, D) + 1)),
                   "frontier")

        return Op("qp_cohomology", lambda: derham.qp_cohomology(n, D), check)

    def ga_op(n, D):
        def check(res):
            want = {i: {e: _piece_dim(n, i, e) for e in range(0, D - i + 1)}
                    for i in range(n + 1)}
            expect(res == want, "ga pieces (%d,%d)", n, D)

        return Op("ga_cohomology", lambda: derham.ga_cohomology(n, D), check)

    for n, top in DERHAM_GRID.items():
        for D in range(1, top + 1):
            ops.append(qp_op(n, D))
            ops.append(ga_op(n, D))

    def cocycle_op(q):
        def check(rep):
            expect(rep["q"] == q and rep["cocycle_dim"] == 1 and rep["quotient_dim"] == 0
                   and rep["coboundary_dim"] == 1, "cocycle dims for q=%d", q)
            (f,) = rep["cocycle_basis"]
            # the cocycle is a multiple of the coboundary (x+y)^q - x^q - y^q
            c = f.coeffs.get((1, q - 1))
            expect(c is not None, "cocycle basis for q=%d misses x*y^%d", q, q - 1)
            want = {(a, q - a): c * comb(q, a) / q for a in range(1, q)}
            expect(f.coeffs == want, "cocycle basis for q=%d", q)

        return Op("symmetric_2cocycle", lambda: cocycles.symmetric_2cocycle_report(q), check)

    for q in COCYCLE_QS:
        ops.append(cocycle_op(q))

    def column_op(a, b):
        def check(rep):
            expect(rep["ok"] is True, "hom column checks fail at (%d, %d)", a, b)
            expect(rep["poly_kernel"]["dim"] == 1, "poly kernel dim")
            expect(tuple(rep["mahler_middle"]["homology_dims"]) == (0, 0), "Mahler homology")

        return Op("hom_column_checks", lambda: cocycles.hom_column_checks(a, b), check)

    # every Mahler degree equally often, paired with the polynomial degrees in
    # a seeded order: the Mahler degree sets the cost, ~30x from 1 to 6
    mahler = list(range(1, COLUMN_MAHLER_MAX + 1)) * (COLUMN_POLY_MAX // COLUMN_MAHLER_MAX)
    rng.shuffle(mahler)
    for a, b in zip(range(1, COLUMN_POLY_MAX + 1), mahler):
        ops.append(column_op(a, b))
    rng.shuffle(ops)
    return ops


# a fixed grid: the slowest ops set op_tail_ms, so they must not vary by seed
COCYCLE_QS = range(2, 25, 2)
COLUMN_POLY_MAX, COLUMN_MAHLER_MAX = 12, 6


# =============================================================================
# cli_cold: one cold `python -m ffcurve.cli <verb> --json` process per op
# =============================================================================

def _small_poly_text(rng):
    """A non-zero polynomial of degree 1 or 2 written as a user would."""
    deg = rng.randint(1, 2)
    # a positive leading coefficient: argparse reads a leading "-" as an option
    coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [rng.randint(1, 3)]
    text = ""
    for e in range(deg, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mono = "" if e == 0 else "t" if e == 1 else "t^%d" % e
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text


def build_cli_cold(rng, root):
    from ffcurve import bc, cli, cocycles, derham, parser, sheaves, tilting
    from ffcurve.complexes import cohomology, complex_to_json, decalage, koszul, ShiftProfile
    from ffcurve.exactalg import POLY_OVER_RATIONALS

    def as_json(v):
        return json.loads(json.dumps(v))

    def small_sheaf():
        return sheaf_spec(rng).text

    def small_tilted():
        return tilted_spec(rng).text

    def small_any():
        return small_tilted() if rng.random() < 0.5 else small_sheaf()

    def pair(v):
        return {"dim": v.dim, "ht": v.ht}

    def cohom_payload(H):
        return {str(j): {"rank": r, "torsion": [str(t) for t in fs]}
                for j, (r, fs) in sorted(H.items())}

    def heart(x):
        return x if isinstance(x, sheaves.TiltedObject) else tilting.tilt(x)

    P = parser.parse_object
    calls = []  # (argv, expected exit code, expected payload subset or None)

    def ok(argv, expected):
        calls.append((argv, 0, expected))

    for _ in range(CLI_ROUNDS):
        t = small_any()
        ok(["info", t], lambda t=t: {"object": str(P(t)), "k0": dict(zip("ab", (
            P(t).k0_class() if isinstance(P(t), sheaves.TiltedObject)
            else sheaves.k0_class(P(t)))))})
        t = small_sheaf()

        def hn_vertices(t=t):
            v = [[0, 0]]
            for _, p in sheaves.hn(P(t)):
                v.append([v[-1][0] + p.rank, v[-1][1] + p.degree])
            return {"vertices": v}

        ok(["hn", t], hn_vertices)
        for verb in ("hom", "ext1", "ext2"):
            a, b = small_sheaf(), small_sheaf()
            ok([verb, a, b], lambda verb=verb, a=a, b=b: pair(getattr(sheaves, verb)(P(a), P(b))))
        t = small_sheaf()
        ok(["chi", t], lambda t=t: pair(sheaves.chi(P(t))))
        t = small_sheaf()
        ok(["k0", t], lambda t=t: dict(zip("ab", sheaves.k0_class(P(t)))))
        t = small_sheaf()
        ok(["tilt", t], lambda t=t: {"tilted": str(tilting.tilt(P(t)))})
        t = small_tilted()
        ok(["untilt", t], lambda t=t: {"sheaf": str(tilting.double_tilt(P(t)))})
        t = small_any()
        ok(["hnminus", t], lambda t=t: {"pieces": [
            {"mu": cli._mu_str(m), "object": str(p)} for m, p in tilting.hn_minus(heart(P(t)))]})
        t = small_any()
        ok(["bc", t], lambda t=t: {"descriptor": as_json(bc.r0tau(P(t)).to_json())})
        t = small_any()

        def present(t=t):
            cert = bc.effective_presentation(P(t))
            return {"kernel_rank": cert.a, "middle": str(cert.middle),
                    "steps": len(cert.steps), "valid": True}

        ok(["present", t], present)
        ok(["breen"], lambda: {k: [[[v.dim, v.ht] for v in row] for row in tab]
                               for k, tab in bc.breen_tables().items() if k != "labels"})
        elems = [_small_poly_text(rng) for _ in range(rng.randint(1, 3))]
        polys = lambda elems=elems: [parser.parse_poly(e) for e in elems]
        ok(["koszul"] + elems, lambda polys=polys: {
            "complex": as_json(complex_to_json(koszul(POLY_OVER_RATIONALS, polys())))})
        ok(["cohom"] + elems, lambda polys=polys: {
            "H": cohom_payload(cohomology(koszul(POLY_OVER_RATIONALS, polys())))})
        f = "t" if rng.random() < 0.5 else "t + %d" % rng.randint(1, 3)

        def eta(f=f, polys=polys):
            K = koszul(POLY_OVER_RATIONALS, polys())
            E = decalage(K, parser.parse_poly(f), ShiftProfile.identity(0, K.highest))
            return {"cohomology": cohom_payload(cohomology(E))}

        ok(["eta", f] + elems, eta)
        n, D = rng.randint(1, 2), rng.randint(2, 5)
        ok(["derham", str(n), "--trunc", str(D)], lambda n=n, D=D: {"qp": {
            "table": {str(i): {str(w): v for w, v in row.items()}
                      for i, row in derham.qp_cohomology(n, D).table.items()},
            "boundary": sorted([i, w] for i, w in derham.qp_cohomology(n, D).boundary)}})
        if rng.random() < 0.5:
            q = rng.randint(2, 8)
            ok(["cocycle", str(q)], lambda q=q: {
                "cocycle_dim": cocycles.symmetric_2cocycle_report(q)["cocycle_dim"],
                "basis": [str(b) for b in cocycles.symmetric_2cocycle_report(q)["cocycle_basis"]]})
        else:
            b = rng.randint(1, 4)
            ok(["cocycle", "--report", "--trunc", str(b)],
               lambda b=b: {"ok": cocycles.hom_column_checks(b, b)["ok"]})

    # malformed input exits 2, well-formed input the verb rejects exits 1;
    # a quarter of the calls, drawn from this pool
    d = rng.randint(1, 30)
    calls += rng.sample([
        (["chi", "O(%d" % d], 2, None),
        (["chi", "O(%d/0)" % d], 2, None),
        (["tilt", "T(x0,[0])"], 2, None),
        (["koszul", "t^"], 2, None),
        (["hom", "O(%d)" % d], 2, None),
        (["cocycle"], 2, None),
        (["present", "tilted(O(%d); 0)" % d], 2, None),
        (["chi", "tilted(O(-%d); O(%d))" % (d, d)], 1, None),
        (["hn", "0"], 1, None),
        (["untilt", "O(%d)" % d], 1, None),
        (["derham", "0"], 1, None),
        (["eta", "0", "t"], 1, None),
    ], CLI_REJECTED)

    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def cli_op(argv, code, expected):
        cmd = [sys.executable, "-m", "ffcurve.cli"] + argv
        if code == 0:
            cmd.append("--json")

        def run():
            # the benchmark's per-op alarm kills and reaps a hung child
            t0 = perf_counter()
            p = subprocess.run(cmd, capture_output=True, env=env, cwd=root)
            return p.returncode, p.stdout, p.stderr, perf_counter() - t0

        def check(res):
            rc, out, err, _ = res
            expect(rc == code, "%s exited %d, want %d: %s", argv, rc, code, err[-200:])
            expect(b"Traceback" not in err, "%s printed a traceback", argv)
            if code:
                expect(out == b"" and err.startswith((b"error:", b"usage:")),
                       "%s: rejected input must print only an error", argv)
                return
            payload = json.loads(out)
            expect(payload["schema"] == cli.SCHEMA and payload["command"] == argv[0],
                   "%s: envelope %s", argv, {k: payload.get(k) for k in ("schema", "command")})
            for key, want in expected().items():
                expect(payload.get(key) == want, "%s: %s is %r, in-process %r",
                       argv, key, payload.get(key), want)

        def count(res, tracer):
            tracer.counts["cli.invocations"] += 1
            tracer.counts["cli.stdout_bytes"] += len(res[1])
            tracer.counts["cli.exit_nonzero"] += res[0] != 0
            tracer.external("cli", res[3])

        return Op("cli_" + argv[0], run, check, count)

    ops = [cli_op(*c) for c in calls]
    rng.shuffle(ops)
    return ops


CLI_ROUNDS = 1  # every verb once per pass; short passes give more repeats
CLI_REJECTED = 6


CLI_PROBE_TIMEOUT_S = 60


def cli_probe_times(root, reps):
    """Median start time of a bare interpreter and of `import ffcurve.cli`."""
    from statistics import median

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    bare, imp = [], []
    for _ in range(reps):
        for cmd, out in ((["-c", "pass"], bare), (["-c", "import ffcurve.cli"], imp)):
            t0 = perf_counter()
            subprocess.run([sys.executable] + cmd, check=True, env=env, cwd=root,
                           timeout=CLI_PROBE_TIMEOUT_S)
            out.append(perf_counter() - t0)
    interp = median(bare)
    return interp, median(imp) - interp


# =============================================================================
# registry
# =============================================================================


class Workload:
    def __init__(self, name, build, layers):
        self.name = name
        self.build = build
        self.layers = layers  # per-layer metric group -> end-to-end metrics it moves


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sheaf_queries", build_sheaf_queries, (
            ("parser.calls, parser.self_s, parser.chars_per_s",
             "ops_per_s (and cli_cold op_p50_ms, slightly)"),
            ("sheaves.calls, sheaves.self_s (slopes folded in)", "op_p50_ms"),
            ("tilting.calls, tilting.self_s", "op_p50_ms"),
            ("bc.calls, bc.self_s, bc.present_s, bc.present_steps",
             "op_tail_ms, peak_rss_mb"),
            ("exactalg.*, derham.*, cocycles.*", "none: predicted unchanged"),
        )),
        Workload("exact_linalg", build_exact_linalg, (
            ("exactalg.snf_calls, exactalg.self_s, exactalg.snf_s.{Z,Q,Qt} (polyring in Qt)",
             "op_tail_ms, wall_s"),
            ("exactalg.snf_entries, exactalg.max_transform_bits, exactalg.max_invariant_bits",
             "op_tail_ms, wall_s"),
            ("complexes.calls, complexes.self_s (exactalg children excluded)", "ops_per_s"),
        )),
        Workload("derham_tables", build_derham_tables, (
            ("derham.calls, derham.self_s, derham.build_s, derham.rank_s, "
             "derham.piece_dim_total, derham.dense_entries, derham.nnz",
             "wall_s, op_tail_ms"),
            ("cocycles.calls, cocycles.self_s, cocycles.pullback_s, cocycles.matrix_cells, "
             "cocycles.kernel_dim_total", "op_p50_ms"),
        )),
        Workload("cli_cold", build_cli_cold, (
            ("cli.invocations, cli.self_s (child wall time), cli.interp_s, cli.import_s, "
             "cli.stdout_bytes, cli.exit_nonzero", "op_p50_ms"),
        )),
    )
}
