"""Graded de Rham pieces: dimensions, the derivative, exactness."""

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from ffcurve import derham
from ffcurve.derham import ga_cohomology, qp_cohomology
from ffcurve.errors import BudgetError, CertificateError


def frac_rank(rows, ncols):
    """Rank over Q by plain Fraction elimination, independent of the library."""
    A = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(A)) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(rank + 1, len(A)):
            if A[i][col]:
                f = A[i][col] / A[rank][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


def dense_d(n, i, e):
    """Dense matrix of d from the (i, e) piece into (i+1, e-1), one column per
    basis form, filled from the sparse per-form derivative."""
    cols = derham._forms(n, i, e)
    row_of = {f: r for r, f in enumerate(derham._forms(n, i + 1, e - 1) if e else ())}
    M = [[0] * len(cols) for _ in row_of]
    for c, form in enumerate(cols):
        for g, a in derham._d(form).items():
            M[row_of[g]][c] = a
    return M


def piece_rank(n, i, e):
    return frac_rank(dense_d(n, i, e), len(derham._forms(n, i, e)))


def test_dimension_tables_line():
    assert {e: len(derham._forms(1, 0, e)) for e in range(4)} == {0: 1, 1: 1, 2: 1, 3: 1}
    assert {e: len(derham._forms(1, 1, e)) for e in range(3)} == {0: 1, 1: 1, 2: 1}


def test_dimension_plane_linear_one_forms():
    assert len(derham._forms(2, 1, 1)) == 4


def test_dimension_formula():
    for i, e in derham._pieces(3, 5):
        assert len(derham._forms(3, i, e)) == comb(3, i) * comb(3 - 1 + e, 3 - 1)


def test_derivative_of_x_squared():
    assert dense_d(1, 0, 2) == [[2]]


def test_derivative_mixed_entry():
    # d(xy) = y dx + x dy with unit coefficients
    cols = [derham._decode(f, 2) for f in derham._forms(2, 0, 2)]
    col = cols.index(((), (1, 1)))
    M = dense_d(2, 0, 2)
    tgt = [derham._decode(f, 2) for f in derham._forms(2, 1, 1)]
    rx = tgt.index(((0,), (0, 1)))
    ry = tgt.index(((1,), (1, 0)))
    assert M[rx][col] == 1 and M[ry][col] == 1
    assert sum(1 for row in M if row[col]) == 2


def test_form_count_matches_enumeration():
    for n in range(1, 5):
        for D in range(1, 9):
            forms = sum(len(derham._forms(n, i, e)) for i, e in derham._pieces(n, D))
            assert derham._form_count(n, D) == forms - 1  # weight 0 is not certified


def test_form_budget_refuses_before_any_form(monkeypatch):
    # D = 10 is the largest truncation admitted at n = 4
    assert derham._form_count(4, 10) == 8360 <= derham.MAX_DERHAM_FORMS < derham._form_count(4, 11)
    assert qp_cohomology(4, 10).table[4][10] == comb(9, 6)  # all of piece (4, 6)

    def no_work(*args):
        raise AssertionError("a form was enumerated for an over-budget call")

    monkeypatch.setattr(derham, "_forms", no_work)
    monkeypatch.setattr(derham, "_piece_dim", no_work)
    for n, D in ((4, 11), (10**9, 6), (1, 10**9), (10**9, 10**9), (10**6, 6), (1, 10**6)):
        for table in (qp_cohomology, ga_cohomology):
            with pytest.raises(ValueError, match="MAX_DERHAM_FORMS") as refused:
                table(n, D)
            assert type(refused.value) is BudgetError


def test_qp_rejects_bad_sizes():
    with pytest.raises(ValueError):
        qp_cohomology(0, 3)
    with pytest.raises(ValueError):
        qp_cohomology(2, 0)


def test_ga_tables():
    assert ga_cohomology(1, 3)[1] == {0: 1, 1: 1, 2: 1}
    table = ga_cohomology(2, 2)
    assert set(table) == {0, 1, 2}
    assert table[2] == {0: 1}


def test_qp_line_is_all_ones():
    rep = qp_cohomology(1, 4)
    assert rep.table[0] == {0: 1}
    assert rep.table[1] == {1: 1, 2: 1, 3: 1, 4: 1}
    assert rep.boundary == {(1, 4)}


def test_qp_plane_weight_one():
    rep = qp_cohomology(2, 4)
    assert rep.table[1][1] == 2


def test_ga_tables_match_build():
    for n in (1, 2, 3):
        for D in (1, 2, 5):
            assert ga_cohomology(n, D) == {
                i: {e: len(derham._forms(n, i, e)) for e in range(D - i + 1)}
                for i in range(n + 1)
            }
    with pytest.raises(ValueError):
        ga_cohomology(0, 3)
    with pytest.raises(ValueError):
        ga_cohomology(2, 0)


def test_qp_higher_strands_vanish():
    # full strands are exact, so H^i = 0 away from the constants
    rep = qp_cohomology(2, 5)
    for i in range(1, 3):
        for w, ker in rep.table[i].items():
            assert ker == piece_rank(2, i - 1, w - i + 1)  # holds on the frontier too


def test_rank_nullity_per_piece():
    for i, e in derham._pieces(2, 4):
        dim = len(derham._forms(2, i, e))
        assert 0 <= dim - piece_rank(2, i, e) <= dim


def test_qp_tables_match_ranks():
    # kernel dims from exact ranks of the dense differentials, frontier included
    ranks = {}
    for n in (1, 2, 3):
        for D in range(1, 7):
            rep = qp_cohomology(n, D)
            assert rep.table[0] == {0: 1}
            assert rep.boundary == {(i, D) for i in range(1, min(n, D) + 1)}
            for i in range(1, n + 1):
                want = {}
                for w in range(i, D + 1):
                    for key in ((n, i, w - i), (n, i - 1, w - i + 1)):
                        if key not in ranks:
                            ranks[key] = piece_rank(*key)
                    ker = len(derham._forms(n, i, w - i)) - ranks[(n, i, w - i)]
                    assert ker == ranks[(n, i - 1, w - i + 1)]  # exact
                    want[w] = ker
                assert rep.table[i] == want


def test_corrupt_differential_fails_certificate(monkeypatch):
    real_d = derham._d
    for n in (2, 3, 4):
        def weight(f, n=n):
            S, expo = derham._decode(f, n)
            return len(S) + sum(expo)

        # twice d on one weight strand still squares to zero, but d.iota + iota.d
        # becomes 2w there: every strand is certified, the frontier w = D included
        for w in range(1, 4):
            monkeypatch.setattr(derham, "_d", lambda f, w=w, weight=weight: {
                g: 2 * c if weight(f) == w else c for g, c in real_d(f).items()
            })
            with pytest.raises(CertificateError, match="iota"):
                qp_cohomology(n, 3)
        # flipping d on the dx forms breaks d(d(xy)) = 0
        monkeypatch.setattr(
            derham, "_d",
            lambda f, n=n: {
                g: -c if derham._decode(f, n)[0] == (0,) else c for g, c in real_d(f).items()
            },
        )
        with pytest.raises(CertificateError, match="d o d"):
            qp_cohomology(n, 2)


def test_d_outside_the_basis_fails_certificate(monkeypatch):
    real_d = derham._d
    # a term on a variable past n, then one with x^50 more: neither form is
    # in the call's basis
    for extra in (2 << derham._F * 2, 2 * 50):
        monkeypatch.setattr(derham, "_d", lambda f, extra=extra: {**real_d(f), f + extra: 1})
        with pytest.raises(CertificateError, match="leaves the basis"):
            qp_cohomology(2, 3)


def test_qp_computes_each_d_once_per_call(monkeypatch):
    real_d = derham._d
    calls = Counter()

    def counted(form):
        calls[form] += 1
        return real_d(form)

    monkeypatch.setattr(derham, "_d", counted)
    certified = {f for i, e in derham._pieces(3, 4) if i + e for f in derham._forms(3, i, e)}
    for _ in range(2):  # the second call computes every d again
        calls.clear()
        qp_cohomology(3, 4)
        assert certified <= set(calls)
        assert max(calls.values()) == 1


def test_no_differential_outlives_a_call(monkeypatch):
    real_d = derham._d
    qp_cohomology(2, 3)
    monkeypatch.setattr(derham, "_d", lambda f: {g: 2 * c for g, c in real_d(f).items()})
    with pytest.raises(CertificateError, match="iota"):
        qp_cohomology(2, 3)


# the tuple formulas of the forms, d and iota, as they were before forms
# were coded as ints: the oracles the codes must decode to


def tuple_forms(n, i, e):
    monomials = []
    for pick in combinations_with_replacement(range(n), e):
        expo = [0] * n
        for v in pick:
            expo[v] += 1
        monomials.append(tuple(expo))
    return [(S, expo) for S in combinations(range(n), i) for expo in monomials]


def tuple_d(form):
    S, expo = form
    out = {}
    for v, k in enumerate(expo):
        if k == 0 or v in S:
            continue
        pos = sum(1 for s in S if s < v)
        out[(S[:pos] + (v,) + S[pos:], expo[:v] + (k - 1,) + expo[v + 1:])] = (
            -k if pos % 2 else k
        )
    return out


def tuple_iota(form):
    S, expo = form
    return {
        (S[:j] + S[j + 1:], expo[:v] + (expo[v] + 1,) + expo[v + 1:]): -1 if j % 2 else 1
        for j, v in enumerate(S)
    }


def decoded(vec, n):
    return {derham._decode(g, n): c for g, c in vec.items()}


def test_coded_forms_decode_to_the_tuple_formulas():
    for n in range(1, 5):
        for i, e in derham._pieces(n, 6):
            forms = derham._forms(n, i, e)
            assert [derham._decode(f, n) for f in forms] == tuple_forms(n, i, e)
            for f in forms:
                assert decoded(derham._d(f), n) == tuple_d(derham._decode(f, n))
                assert decoded(derham._iota(f), n) == tuple_iota(derham._decode(f, n))


def forms_by_sums(n, i, e):
    """The enumeration _forms replaced: each monomial summed from its e units."""
    F = derham._F
    xs = [sum(p) for p in combinations_with_replacement([2 << F * v for v in range(n)], e)]
    return tuple(sum(S) + x for S in combinations([1 << F * v for v in range(n)], i) for x in xs)


def test_forms_keep_the_codes_and_order_of_the_unit_sums():
    for n in range(1, 5):
        for i, e in derham._pieces(n, 12):
            assert derham._forms(n, i, e) == forms_by_sums(n, i, e)
    for n, D in ((1, 5000), (5000, 1)):
        for i, e in derham._pieces(n, D):
            assert derham._forms(n, i, e) == forms_by_sums(n, i, e)


def test_coded_forms_hold_the_largest_exponents():
    # no exponent of a call exceeds D <= MAX_DERHAM_FORMS; decoding one
    # variable more shows that nothing spills into the next field
    for e in (9999, derham.MAX_DERHAM_FORMS):
        (f,) = derham._forms(1, 0, e)
        (g,) = derham._forms(1, 1, e - 1)
        assert derham._decode(f, 2) == ((), (e, 0))
        assert derham._decode(g, 2) == ((0,), (e - 1, 0))
        assert decoded(derham._d(f), 2) == tuple_d(((), (e, 0))) == {((0,), (e - 1, 0)): e}
        assert decoded(derham._iota(g), 2) == tuple_iota(((0,), (e - 1, 0))) == {((), (e, 0)): 1}
        assert derham._d(g) == {} and derham._iota(f) == {}


def test_qp_reprs_match_recorded_digest():
    # written before qp_cohomology memoised d within a call
    h = hashlib.sha256()
    for n in range(1, 5):
        for D in range(1, 6):
            h.update(repr(qp_cohomology(n, D)).encode() + b"\n")
    assert h.hexdigest() == "cc995770062b0b58e18ff2cfa4d2cf84383a4bc0d16aba6527b1dd15203c09cf"
