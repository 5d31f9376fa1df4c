"""Random object generators shared by the test suite.

Plain random.Random with caller-supplied seeds so every randomized suite is
reproducible from the test source alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ffcurve.complexes import BoundedComplex, ChainMap
from ffcurve.exactalg import INTEGERS, POLY_OVER_RATIONALS, RATIONALS, Mat, mat_mul
from ffcurve.polyring import Poly, T_VAR
from ffcurve.sheaves import BCInvariant, CoherentSheaf, O, T, direct_sum, hom
from ffcurve.slopes import Slope, reduce
from ffcurve.tilting import HomMatrix, split_torsion_pair

DOMAINS = (INTEGERS, RATIONALS, POLY_OVER_RATIONALS)


def random_slope(rng: random.Random, dmax: int = 12, hmax: int = 12, sign: str = "any") -> Slope:
    """A random reduced finite slope with |d| <= dmax, h <= hmax."""
    while True:
        d = rng.randint(-dmax, dmax)
        h = rng.randint(1, hmax)
        s = reduce(d, h)
        if sign == "neg" and not s.d < 0:
            continue
        if sign == "pos" and not s.d > 0:
            continue
        if sign == "nonneg" and s.d < 0:
            continue
        return s


def random_sheaf(
    rng: random.Random,
    max_bundle_atoms: int = 3,
    max_torsion_points: int = 2,
    dmax: int = 12,
    hmax: int = 12,
    lenmax: int = 8,
    allow_zero: bool = False,
    sign: str = "any",
) -> CoherentSheaf:
    parts = []
    n_bundle = rng.randint(0, max_bundle_atoms)
    n_tors = rng.randint(0, max_torsion_points)
    if not allow_zero and n_bundle == 0 and n_tors == 0:
        n_bundle = 1
    for _ in range(n_bundle):
        s = random_slope(rng, dmax, hmax, sign)
        parts.append(O(s.d, s.h, mult=rng.randint(1, 3)))
    labels = rng.sample(["inf", "x0", "x1", "y"], k=n_tors)
    for lbl in labels:
        factors = sorted(
            (rng.randint(1, lenmax) for _ in range(rng.randint(1, 3))), reverse=True
        )
        parts.append(T(factors, label=lbl))
    return direct_sum(*parts) if parts else CoherentSheaf.zero()


def random_bundle(rng: random.Random, sign: str = "any", **kw) -> CoherentSheaf:
    return random_sheaf(rng, max_torsion_points=0, sign=sign, **kw)


def random_tilted(rng: random.Random, dmax: int = 12, hmax: int = 12, lenmax: int = 8):
    from ffcurve.sheaves import TiltedObject

    neg = (
        random_bundle(rng, sign="neg", dmax=dmax, hmax=hmax)
        if rng.random() < 0.6
        else CoherentSheaf.zero()
    )
    pos = (
        random_sheaf(rng, sign="nonneg", dmax=dmax, hmax=hmax, lenmax=lenmax, allow_zero=True)
        if rng.random() < 0.8
        else CoherentSheaf.zero()
    )
    if neg.is_zero and pos.is_zero:
        pos = O(1)
    return TiltedObject(neg, pos)


# ------------------------------------------------------ hom matrices, oracles


def cohx_hom_matrix(F: CoherentSheaf, G: CoherentSheaf) -> HomMatrix:
    """Hom matrix in the coherent heart for the slope-sign splits of F, G."""
    Fn, Fp = split_torsion_pair(F)
    Gn, Gp = split_torsion_pair(G)
    return HomMatrix(
        (
            (hom(Fn, Gn), BCInvariant(0, 0)),
            (hom(Fn, Gp), hom(Fp, Gp)),
        )
    )


def second_tilt_hom_matrix(A, B) -> HomMatrix:
    """Hom matrix after tilting the tilted heart again at mu- = 0.

    The mu- <= 0 part of a tilted object is its degree-0 part, the mu- > 0
    part is the shifted negative bundle; all entries reduce to plain sheaf
    homs, and the total agrees with the coherent-heart total across the
    double tilt.
    """
    return HomMatrix(
        (
            (hom(A.pos, B.pos), hom(A.neg, B.pos)),
            (BCInvariant(0, 0), hom(A.neg, B.neg)),
        )
    )


# ------------------------------------------------------------ linear algebra


def random_element(dom, rng: random.Random):
    if dom is INTEGERS:
        return rng.randint(-9, 9)
    if dom is RATIONALS:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Poly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))])


def random_poly_text(rng: random.Random, depth: int = 2) -> str:
    """A Q[t] expression text over the whole grammar: sums, products, powers,
    unary minus, fractions and nested parentheses."""

    def factor(level):
        r = rng.random()
        if level and r < 0.3:
            base = "(%s)" % expr(level - 1)
        elif r < 0.6:
            base = "t"
        elif r < 0.8:
            base = str(rng.randint(0, 12))
        else:
            base = "%d/%d" % (rng.randint(0, 12), rng.randint(1, 9))
        if rng.random() < 0.25:
            base += "^%d" % rng.randint(0, 4)
        return ("-" if rng.random() < 0.15 else "") + base

    def expr(level):
        text = "*".join(factor(level) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            text += rng.choice((" + ", " - ", "+", "-")) + "*".join(
                factor(level) for _ in range(rng.randint(1, 2)))
        return text

    return expr(depth)


def random_mat(dom, rng: random.Random, m: int, n: int) -> Mat:
    data = tuple(
        tuple(dom.convert(random_element(dom, rng)) for _ in range(n))
        for _ in range(m)
    )
    return Mat(m, n, data)


def random_unimodular(dom, rng: random.Random, n: int):
    """(P, Pinv) as a product of elementary operations, inverse tracked."""
    P = [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]
    Q = [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        # small multipliers: Smith-form transform entries compound fast
        if dom is POLY_OVER_RATIONALS:
            q = Poly([rng.randint(-1, 1), rng.choice([0, 0, 0, 1, -1])])
        else:
            q = dom.convert(rng.randint(-2, 2))
        for k in range(n):
            P[i][k] = P[i][k] + q * P[j][k]
        for r in Q:
            r[j] = r[j] - q * r[i]
    return (
        Mat(n, n, tuple(tuple(r) for r in P)),
        Mat(n, n, tuple(tuple(r) for r in Q)),
    )


#: readers for the element encodings of mat_to_json: int, Fraction string,
#: list of Fraction strings (Poly itself takes ints and Fractions only)
_READ_ELEMENT = {INTEGERS: int, RATIONALS: Fraction,
                 POLY_OVER_RATIONALS: lambda cs: Poly(map(Fraction, cs))}


def mat_from_json(dom, payload: dict) -> Mat:
    read = _READ_ELEMENT[dom]
    data = tuple(tuple(read(x) for x in row) for row in payload["data"])
    return Mat(payload["rows"], payload["cols"], data)


# -------------------------------------------------------------------- complexes


def complex_from_json(payload: dict) -> BoundedComplex:
    (dom,) = [d for d in DOMAINS if d.name == payload["domain"]]
    return BoundedComplex(
        dom,
        payload["lowest"],
        tuple(payload["ranks"]),
        tuple(mat_from_json(dom, m) for m in payload["differentials"]),
    )


def direct_sum_complexes(C: BoundedComplex, D: BoundedComplex) -> BoundedComplex:
    """Block sum of two complexes over one domain on the same support."""
    if (C.domain, C.lowest, len(C.ranks)) != (D.domain, D.lowest, len(D.ranks)):
        raise ValueError("block sum needs one domain and one support")
    zero = C.domain.zero
    diffs = tuple(
        Mat(a.rows + b.rows, a.cols + b.cols,
            tuple(r + (zero,) * b.cols for r in a.data)
            + tuple((zero,) * a.cols + r for r in b.data))
        for a, b in zip(C.differentials, D.differentials)
    )
    ranks = tuple(a + b for a, b in zip(C.ranks, D.ranks))
    return BoundedComplex(C.domain, C.lowest, ranks, diffs)


def _torsion_scalar(dom, rng: random.Random):
    if dom is INTEGERS:
        return rng.choice([2, 3, 4, 5, 6])
    return rng.choice([T_VAR, T_VAR + 1, T_VAR**2 + 1])


def random_known_complex(dom, rng: random.Random, lo: int = 0, n_terms: int = 4,
                         max_atoms: int = 5, torsion: bool = True):
    """(complex, expected cohomology), answer known by construction.

    Built from shifted atoms (a lone free generator, a unimodular acyclic
    pair, a single torsion pair) and then conjugated degreewise by random
    unimodular basis changes. At most one torsion atom lands on any
    adjacent pair so the expected invariant factors read off directly.
    """
    ranks = [0] * n_terms
    blocks = [[] for _ in range(n_terms - 1)]
    free = [0] * n_terms
    factors = [[] for _ in range(n_terms)]
    pair_slots = list(range(n_terms - 1))
    rng.shuffle(pair_slots)
    for _ in range(rng.randint(1, max_atoms)):
        kind = rng.choice(["free", "acyclic", "torsion"])
        if kind == "torsion" and (dom is RATIONALS or not torsion or not pair_slots):
            kind = "acyclic"
        if kind == "free":
            j = rng.randrange(n_terms)
            ranks[j] += 1
            free[j] += 1
        elif kind == "torsion":
            j = pair_slots.pop()
            s = dom.convert(_torsion_scalar(dom, rng))
            blocks[j].append((ranks[j + 1], ranks[j], Mat(1, 1, ((s,),))))
            ranks[j] += 1
            ranks[j + 1] += 1
            factors[j + 1].append(s)
        else:
            j = rng.randrange(n_terms - 1)
            k = rng.randint(1, 2)
            P, _ = random_unimodular(dom, rng, k)
            blocks[j].append((ranks[j + 1], ranks[j], P))
            ranks[j] += k
            ranks[j + 1] += k
    diffs = []
    for j in range(n_terms - 1):
        rows = [[dom.zero] * ranks[j] for _ in range(ranks[j + 1])]
        for r0, c0, M in blocks[j]:
            for i in range(M.rows):
                for k in range(M.cols):
                    rows[r0 + i][c0 + k] = M.data[i][k]
        diffs.append(Mat(ranks[j + 1], ranks[j], tuple(tuple(r) for r in rows)))
    basis = [random_unimodular(dom, rng, r) for r in ranks]
    conj = tuple(
        mat_mul(dom, mat_mul(dom, basis[j + 1][0], diffs[j]), basis[j][1])
        for j in range(n_terms - 1)
    )
    C = BoundedComplex(dom, lo, tuple(ranks), conj)
    expected = {
        lo + j: (free[j], tuple(factors[j])) for j in range(n_terms)
    }
    return C, expected


def random_acyclic_complex(dom, rng: random.Random, lo: int = 0, n_terms: int = 4,
                           max_atoms: int = 5):
    while True:
        C, expected = random_known_complex(
            dom, rng, lo, n_terms, max_atoms=max_atoms, torsion=False
        )
        if all(v == (0, ()) for v in expected.values()):
            return C


def random_qis(dom, rng: random.Random, lo: int = 0, n_terms: int = 4,
               max_atoms: int = 5) -> ChainMap:
    """A quasi-isomorphism: inclusion into (or projection off) an acyclic
    direct summand, hidden behind a basis change."""
    C, _ = random_known_complex(dom, rng, lo, n_terms, max_atoms=max_atoms)
    A = random_acyclic_complex(dom, rng, lo, n_terms, max_atoms=max_atoms)
    D = direct_sum_complexes(C, A)
    include = rng.random() < 0.5
    comps = []
    for i, r in enumerate(C.ranks):
        extra = A.ranks[i]
        if include:
            data = tuple(
                tuple(dom.one if (k < r and k == j) else dom.zero for j in range(r))
                for k in range(r + extra)
            )
            comps.append(Mat(r + extra, r, data))
        else:
            data = tuple(
                tuple(dom.one if k == j else dom.zero for j in range(r + extra))
                for k in range(r)
            )
            comps.append(Mat(r, r + extra, data))
    basis = [random_unimodular(dom, rng, r) for r in D.ranks]
    D_conj = BoundedComplex(
        dom,
        lo,
        D.ranks,
        tuple(
            mat_mul(dom, mat_mul(dom, basis[j + 1][0], D.differentials[j]), basis[j][1])
            for j in range(len(D.ranks) - 1)
        ),
    )
    if include:
        twisted = tuple(
            mat_mul(dom, basis[i][0], comps[i]) for i in range(len(comps))
        )
        return ChainMap(C, D_conj, twisted)
    twisted = tuple(
        mat_mul(dom, comps[i], basis[i][1]) for i in range(len(comps))
    )
    return ChainMap(D_conj, C, twisted)


# ---------------------------------------------------------------- records


def record_samples():
    """One fresh instance of each of the library's 13 frozen records, with its
    field names in order."""
    from ffcurve.bc import PresentationCertificate, r0tau
    from ffcurve.complexes import ShiftProfile, identity_chain_map, koszul
    from ffcurve.derham import qp_cohomology
    from ffcurve.exactalg import smith_elimination, smith_normal_form
    from ffcurve.sheaves import TiltedObject, se2
    from ffcurve.tilting import hom_tilted

    A = Mat(2, 2, ((2, 4), (6, 8)))
    F = direct_sum(O(1, 2), T([2], "x"))
    zero = TiltedObject(CoherentSheaf(), CoherentSheaf())
    return [
        (A, ("rows", "cols", "data")),
        (smith_normal_form(INTEGERS, A), ("S", "U", "Uinv", "V", "Vinv", "rank")),
        (smith_elimination(INTEGERS, A), ("S", "rank", "rows", "cols")),
        (koszul(INTEGERS, [2, 3]), ("domain", "lowest", "ranks", "differentials")),
        (ShiftProfile(1, (0, 2)), ("lo", "values")),
        (identity_chain_map(koszul(INTEGERS, [2])), ("source", "target", "components")),
        (F, ("bundle", "torsion")),
        (TiltedObject(O(-1), O(2)), ("neg", "pos")),
        (se2(2), ("left", "middle", "right", "tag")),
        (r0tau(F), ("atoms",)),
        (
            PresentationCertificate(zero, 0, CoherentSheaf(), ()),
            ("target", "a", "middle", "steps"),
        ),
        (hom_tilted(TiltedObject(O(-1), O(0)), TiltedObject(O(-2), O(1, 2))), ("entries",)),
        (qp_cohomology(1, 2), ("n", "D", "table", "boundary")),
    ]
