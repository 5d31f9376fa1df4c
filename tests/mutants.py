"""Hand mutants of the library, each re-run against the tests that must kill it.

    python tests/mutants.py [--only NAME]

copies src/, tests/ and pyproject.toml into a temporary directory, checks that
every named test passes there unmutated, then applies one row at a time and
runs its tests. A mutant is killed when its tests fail. A pytest run that
takes over TIMEOUT_S seconds is stopped and its row reported as TIMEOUT,
which counts as surviving. Each run passes --hypothesis-seed, so a row that
only a property kills gets the same verdict on every run; a property that
misses its row under that seed carries an @example that does not. Exits 1 if
any mutant survives, or if the unmutated tree fails. Uses only the standard
library and pytest.

A row is (name, file, old text, new text, node ids). The old text must occur
exactly once in its file; tests/test_mutants.py checks that on every tier-1
run, so a row cannot go stale unnoticed. A change that rewrites guarded code
updates the row's text, and a new mutant is a new row.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: seconds one pytest run may take; a mutant can turn a loop endless
TIMEOUT_S = 120

#: every pytest run draws the same hypothesis examples, so each verdict repeats
HYPOTHESIS_SEED = 0

MUTANTS = [
    # ---- Hom and Ext^1 in one walk over the sorted atoms
    ("pairing_equal_slopes_to_ext1", "src/ffcurve/sheaves.py",
     "and mu < src[i][0]:", "and mu <= src[i][0]:",
     ["tests/test_sheaves.py::test_hom_ext1_h0_h1_agree_with_the_per_pair_oracle"]),
    ("pairing_running_sum_without_multiplicity", "src/ffcurve/sheaves.py",
     "ph + a * lam.h,", "ph + lam.h,",
     ["tests/test_sheaves.py::test_hom_ext1_h0_h1_agree_with_the_per_pair_oracle"]),
    ("pairing_hom_reads_the_prefix", "src/ffcurve/sheaves.py",
     "        hd += b * (mu.d * (H - ph) - mu.h * (Dg - pd))\n"
     "        hh += b * mu.h * (H - ph)\n",
     "        hd += b * (mu.d * ph - mu.h * pd)\n"
     "        hh += b * mu.h * ph\n",
     ["tests/test_sheaves.py::test_hom_ext1_h0_h1_agree_with_the_per_pair_oracle"]),
    ("pairing_ext1_height_sign", "src/ffcurve/sheaves.py",
     "eh -= b * mu.h * ph", "eh += b * mu.h * ph",
     ["tests/test_sheaves.py::test_hom_ext1_h0_h1_agree_with_the_per_pair_oracle"]),
    ("torsion_merge_count_off_by_one", "src/ffcurve/sheaves.py",
     "total += fs.pop() * len(gs)", "total += fs.pop() * (len(gs) - 1)",
     ["tests/test_sheaves.py::test_torsion_same_point_min_rule",
      "tests/test_sheaves.py::test_hom_ext1_h0_h1_agree_with_the_per_pair_oracle"]),
    ("torsion_merge_from_the_large_ends", "src/ffcurve/sheaves.py",
     "            if fs[-1] > gs[-1]:\n"
     "                fs, gs = gs, fs\n"
     "            total += fs.pop() * len(gs)\n",
     "            if fs[0] < gs[0]:\n"
     "                fs, gs = gs, fs\n"
     "            total += fs.pop(0) * len(gs)\n",
     ["tests/test_sheaves.py::test_torsion_same_point_min_rule",
      "tests/test_sheaves.py::test_hom_ext1_h0_h1_agree_with_the_per_pair_oracle"]),
    ("hn_minus_torsion_first", "src/ffcurve/tilting.py",
     "    for s, m in A.neg.bundle:\n"
     "        mu = Fraction(s.h, -s.d)\n"
     "        pieces.append((mu, TiltedObject(CoherentSheaf(((s, m),), ()), zero)))\n"
     "    if A.pos.torsion:\n"
     "        pieces.append((Fraction(0), TiltedObject(zero, CoherentSheaf((), A.pos.torsion))))\n",
     "    if A.pos.torsion:\n"
     "        pieces.append((Fraction(0), TiltedObject(zero, CoherentSheaf((), A.pos.torsion))))\n"
     "    for s, m in A.neg.bundle:\n"
     "        mu = Fraction(s.h, -s.d)\n"
     "        pieces.append((mu, TiltedObject(CoherentSheaf(((s, m),), ()), zero)))\n",
     ["tests/test_cli.py::test_hnminus",
      "tests/test_tilting.py::test_hn_minus_strictly_decreasing_and_reassembles"]),
    # ---- one home per admission rule
    ("slope_numerator_unchecked", "src/ffcurve/slopes.py",
     '        _check_int(d, "slope numerator")\n', "",
     ["tests/test_admission.py::test_refused"]),
    ("label_without_isalnum", "src/ffcurve/sheaves.py",
     '(text[:1].isalpha() or text[:1] == "_") and text.replace("_", "a").isalnum())',
     '(text[:1].isalpha() or text[:1] == "_"))',
     ["tests/test_admission.py::test_refused"]),
    ("check_int_admits_bool", "src/ffcurve/errors.py",
     "if type(x) is not int and (type(x) is bool or not isinstance(x, (int, *also))):",
     "if type(x) is not int and not isinstance(x, (int, *also)):",
     ["tests/test_admission.py::test_the_rules"]),
    ("poly_takes_any_fraction", "src/ffcurve/polyring.py",
     'cs = [Fraction(_check_int(c, "a Q[t] coefficient", also=(Fraction,))) for c in coeffs]',
     "cs = [Fraction(c) for c in coeffs]",
     ["tests/test_admission.py::test_refused"]),
    ("budget_error_is_a_plain_value_error", "src/ffcurve/errors.py",
     'raise BudgetError("%s over the budget', 'raise ValueError("%s over the budget',
     ["tests/test_cli.py::test_over_budget_calls_exit_1_at_once"]),
    ("multiplicity_unchecked", "src/ffcurve/sheaves.py",
     'by_slope.get(s, 0) + _check_int(mult, "multiplicity", 1)', "by_slope.get(s, 0) + mult",
     ["tests/test_sheaves.py::test_normalize_rejects_bad_input"]),
    ("label_without_str_test", "src/ffcurve/sheaves.py",
     'return text == "∞" or isinstance(text, str) and (', 'return text == "∞" or (',
     ["tests/test_admission.py::test_refused"]),
    ("gcd_division_unchecked", "src/ffcurve/complexes.py",
     "        if not dom.divides(g, x):\n", "        if False:\n",
     ["tests/test_cli.py::test_a_gcd_that_divides_no_element_is_a_certificate_failure"]),
    ("coerced_lets_type_error_through", "src/ffcurve/polyring.py",
     "        except TypeError:  # not an exact number",
     "        except ArithmeticError:  # not an exact number",
     ["tests/test_admission.py::test_equality_with_a_refused_number_is_false_not_an_error"]),
    # ---- bc says each fact once
    ("atom_coker_sign", "src/ffcurve/bc.py",
     '("Coker", -1)', '("Coker", 1)',
     ["tests/test_bc.py::test_r0tau_shifted_negative"]),
    ("levels_keep_slopes_in_0_1", "src/ffcurve/bc.py",
     "for *_, s in _walk(self.target)[0] if s.h > 1)",
     "for s, _ in self.target.pos.bundle + self.target.neg.bundle if s.h > 1)",
     ["tests/test_bc.py::test_presentation_small_slopes_left_alone"]),
    ("levels_drop_shifted_atoms", "src/ffcurve/bc.py",
     "for *_, s in _walk(self.target)[0] if s.h > 1)",
     "for *_, s in _walk(self.target)[0] if s.h > 1 and s.d > 0)",
     ["tests/test_bc.py::test_presentation_fractional_levels"]),
    ("kernel_without_a", "src/ffcurve/bc.py",
     "return _plain(O(0, mult=a)) if a", "return _plain(O(0)) if a",
     ["tests/test_bc.py::test_presentation_torsion_uses_se2"]),
    ("budget_counts_no_composite", "src/ffcurve/bc.py",
     "sum(len(pre) + d for pre, d, *_ in resolved)",
     "sum(len(pre) + d - 1 for pre, d, *_ in resolved)",
     ["tests/test_bc.py::test_present_budget_admits_its_bound_and_refuses_one_more"]),
    ("budget_refuses_its_bound", "src/ffcurve/errors.py",
     "if value > cap:", "if value >= cap:",
     ["tests/test_bc.py::test_present_budget_admits_its_bound_and_refuses_one_more"]),
    # ---- one walk per presented object
    ("composition_unchecked", "src/ffcurve/bc.py",
     'raise ValueError("the composite steps do not compose to the presentation")', "pass",
     ["tests/test_bc.py::test_presentation_refuses_steps_that_do_not_resolve_its_target"]),
    ("torsion_without_se2", "src/ffcurve/bc.py",
     "pre, right = ((se2, d),),", "pre, right = (),",
     ["tests/test_bc.py::test_presentation_torsion_uses_se2"]),
    ("kernel_rank_without_multiplicity", "src/ffcurve/bc.py",
     "m * h * (len(pre) + d - 1)", "h * (len(pre) + d - 1)",
     ["tests/test_bc.py::test_present_budget_admits_its_bound_and_refuses_one_more"]),
    ("slope_one_resolved", "src/ffcurve/bc.py",
     "if s.d <= s.h:", "if s.d < s.h:",
     ["tests/test_bc.py::test_presentation_small_slopes_left_alone"]),
    # ---- exact linear algebra over Q and Q[t]
    ("q_inverse_add_at_dst", "src/ffcurve/exactalg.py",
     "Pinv[src][pos[dst]] = qinv", "Pinv[src][dst] = qinv",
     ["tests/test_exactalg.py::test_q_inverse_transforms_match_the_replayed_ones"]),
    ("q_inverse_scale_dropped", "src/ffcurve/exactalg.py",
     "            Pinv[i] = [x * qinv if x else x for x in Pinv[i]]\n", "",
     ["tests/test_exactalg.py::test_q_inverse_transforms_match_the_replayed_ones"]),
    ("mul_add_sum_not_rescaled", "src/ffcurve/polyring.py",
     "out = [x * m for x in out]", "out = out",
     ["tests/test_exactalg.py::test_mul_add_matches_operator_sums"]),
    # ---- Koszul decalage in closed form
    ("decalage_h_is_g", "src/ffcurve/complexes.py",
     "h = -_exact_div(dom, g, dom.gcd(f, g))", "h = -g",
     ["tests/test_cli.py::test_inexact_division_is_a_certificate_failure",
      "tests/test_complexes.py::test_koszul_closed_forms_match_the_smith_path",
      "tests/test_cli.py::test_output_matches_golden[eta_t2-.txt]"]),
    ("scale_zero_admitted", "src/ffcurve/complexes.py",
     "    if dom.is_zero(f):\n        raise ValueError(\"decalage needs", "    if False:\n        raise ValueError(\"decalage needs",
     ["tests/test_complexes.py::test_decalage_rejects_zero",
      "tests/test_cli.py::test_eta_zero_scale_is_refused_by_the_library_rule_first"]),
    # ---- decalage replays the Smith log on its own matrices
    ("coordinates_replay_q_not_qinv", "src/ffcurve/complexes.py",
     "X = _replayed(W, self.cols, _row_op, inverse=True)", "X = _replayed(W, self.cols, _row_op)",
     ["tests/test_complexes.py::test_decalage_values_are_pinned"]),
    ("basis_without_tvec", "src/ffcurve/complexes.py",
     "tuple(tuple(x * s for x, s in zip(row, self.tvec))",
     "tuple(tuple(x for x, s in zip(row, self.tvec))",
     ["tests/test_complexes.py::test_decalage_values_are_pinned"]),
    ("replay_log_reversed", "src/ffcurve/exactalg.py",
     "    for kind, i, j, q, qinv in log:\n        op(rows,",
     "    for kind, i, j, q, qinv in reversed(log):\n        op(rows,",
     ["tests/test_complexes.py::test_decalage_values_are_pinned",
      "tests/test_exactalg.py::test_smith_form_matches_dense_loops"]),
    # ---- decalage against the closed forms of its cohomology
    ("eta_profile_read_at_j", "src/ffcurve/complexes.py",
     "        c = max(0, delta(j + 1) - delta(j))\n        if c == 0:",
     "        c = max(0, delta(j) - delta(j))\n        if c == 0:",
     ["tests/test_complexes.py::test_koszul_decalage_under_any_profile_has_its_closed_form",
      "tests/test_complexes.py::test_identity_profile_decalage_kills_the_f_torsion"]),
    # the pinned digests are all of Koszul complexes in degrees from 0
    ("eta_terms_counted_from_degree_0", "src/ffcurve/complexes.py",
     "    for j in C.degrees():\n        n = C.rank_at(j)",
     "    for j in range(len(C.ranks)):\n        n = C.rank_at(j)",
     ["tests/test_complexes.py::test_identity_profile_decalage_kills_the_f_torsion"]),
    ("decalage_steps_counted_from_degree_0", "src/ffcurve/complexes.py",
     "for i, j in enumerate(range(C.lowest, C.highest)):",
     "for i, j in enumerate(range(len(C.differentials))):",
     ["tests/test_complexes.py::test_identity_profile_decalage_kills_the_f_torsion"]),
    ("eta_gcd_with_f_not_its_power", "src/ffcurve/complexes.py",
     "dom.gcd(s, fpow)", "dom.gcd(s, f)",
     ["tests/test_complexes.py::test_koszul_decalage_under_any_profile_has_its_closed_form"]),
    # ---- Q[t] arithmetic on one path per operation
    ("pseudo_divide_quotient_not_rescaled", "src/ffcurve/polyring.py",
     "            q = [x * m for x in q]\n", "",
     ["tests/test_exactalg.py::test_poly_divmod_matches_fraction_schoolbook"]),
    ("mod_reads_the_quotient", "src/ffcurve/polyring.py",
     "return divmod(self, other)[1]", "return divmod(self, other)[0]",
     ["tests/test_exactalg.py::test_poly_divmod_matches_fraction_schoolbook"]),
    # ---- hand mutants of exactalg, polyring and complexes recorded before the table existed
    ("row_add_skip_keyed_on_target", "src/ffcurve/exactalg.py",
     "            if x:\n                ri[k] = _mul_add",
     "            if ri[k]:\n                ri[k] = _mul_add",
     ["tests/test_exactalg.py::test_smith_form_matches_dense_loops"]),
    ("col_add_skip_keyed_on_target", "src/ffcurve/exactalg.py",
     "            if r[i]:\n                r[j] = _mul_add",
     "            if r[j]:\n                r[j] = _mul_add",
     ["tests/test_exactalg.py::test_smith_form_matches_dense_loops"]),
    ("mat_mul_skip_keyed_on_first_entry", "src/ffcurve/exactalg.py",
     "            if a:\n                for j, b in brow:",
     "            if arow[0]:\n                for j, b in brow:",
     ["tests/test_exactalg.py::test_mat_mul_matches_dense_loops"]),
    ("pivot_early_exit_at_norm_2", "src/ffcurve/exactalg.py",
     "if w == 1:", "if w == 2:",
     ["tests/test_exactalg.py::test_elimination_logs_match_recorded_digest"]),
    ("pivot_column_off_by_t", "src/ffcurve/exactalg.py",
     "enumerate(S[i][t:], t)", "enumerate(S[i][t:])",
     ["tests/test_exactalg.py::test_smith_form_matches_dense_loops"]),
    ("divides_ignores_the_remainder", "src/ffcurve/exactalg.py",
     "return not self.divmod(b, a)[1]", "return True",
     ["tests/test_exactalg.py::test_divides_matches_remainder"]),
    ("stray_scan_skips_a_column", "src/ffcurve/exactalg.py",
     "for x in S[i][t + 1 :]", "for x in S[i][t + 2 :]",
     ["tests/test_exactalg.py::test_smith_form_matches_dense_loops"]),
    ("inverse_add_sign", "src/ffcurve/exactalg.py",
     'row("add", i, t, -q, q)', 'row("add", i, t, -q, -q)',
     ["tests/test_exactalg.py::test_snf_randomized_all_domains"]),
    ("unit_inverse_not_taken", "src/ffcurve/exactalg.py",
     'row("scale", t, None, u, dom.unit_inverse(u))', 'row("scale", t, None, u, u)',
     ["tests/test_exactalg.py::test_snf_randomized_all_domains"]),
    ("q_inverse_swap_dropped", "src/ffcurve/exactalg.py",
     "            Pinv[i], Pinv[j] = Pinv[j], Pinv[i]\n", "",
     ["tests/test_exactalg.py::test_q_inverse_transforms_match_the_replayed_ones"]),
    ("rationals_gcd_deleted", "src/ffcurve/exactalg.py",
     "    def gcd(self, a, b):\n        return Fraction(0) if a == b == 0 else Fraction(1)\n", "",
     ["tests/test_complexes.py::test_decalage_over_rationals_is_pinned"]),
    ("product_over_one_denominator", "src/ffcurve/polyring.py",
     "an, bn, e = a._n, b._n, a._d * b._d", "an, bn, e = a._n, b._n, a._d",
     ["tests/test_exactalg.py::test_poly_mul_matches_fraction_schoolbook"]),
    ("canon_keeps_trailing_zeros", "src/ffcurve/polyring.py",
     "    while n and not n[-1]:\n        n.pop()\n", "",
     ["tests/test_exactalg.py::test_poly_results_are_canonical"]),
    ("poly_bool_always_true", "src/ffcurve/polyring.py",
     "return bool(self._n)", "return True",
     ["tests/test_exactalg.py::test_poly_truthiness"]),
    ("d_d_unchecked", "src/ffcurve/complexes.py",
     "if any(not dom.is_zero(x) for row in prod.data for x in row):", "if False:",
     ["tests/test_complexes.py::test_composition_must_vanish"]),
    ("cohomology_through_smith_normal_form", "src/ffcurve/complexes.py",
     "        f_out = smith_elimination(dom, C.differential_at(j))\n",
     "        from . import exactalg\n"
     "        f_out = exactalg.smith_normal_form(dom, C.differential_at(j))\n",
     ["tests/test_complexes.py::test_cohomology_builds_no_transform"]),
    ("eta_terms_build_the_transforms", "src/ffcurve/complexes.py",
     "        smith = smith_elimination(dom, C.differential_at(j))\n",
     "        smith = smith_elimination(dom, C.differential_at(j))\n"
     "        from . import exactalg\n"
     "        exactalg.smith_normal_form(dom, C.differential_at(j))\n",
     ["tests/test_complexes.py::test_eta_terms_build_no_row_transform"]),
    ("decalage_map_target_terms_of_the_source", "src/ffcurve/complexes.py",
     "tgt_terms = _eta_terms(phi.target, f, delta)", "tgt_terms = _eta_terms(phi.source, f, delta)",
     ["tests/test_complexes.py::test_decalage_map_ends_are_the_decalages"]),
    # ---- hand mutants recorded before the table existed
    ("levels_keep_h_1", "src/ffcurve/bc.py",
     "for *_, s in _walk(self.target)[0] if s.h > 1)",
     "for *_, s in _walk(self.target)[0] if s.h >= 1)",
     ["tests/test_bc.py::test_presentation_integer_twist"]),
    ("composite_level_tag_dropped", "src/ffcurve/bc.py",
     'tag = "composite" if s.h == 1 else "composite@level%d" % s.h', 'tag = "composite"',
     ["tests/test_bc.py::test_presentation_fractional_levels"]),
    ("kernel_rank_without_h", "src/ffcurve/bc.py",
     "m * h * (len(pre) + d - 1)", "m * (len(pre) + d - 1)",
     ["tests/test_bc.py::test_presentation_fractional_levels"]),
    ("reduce_loses_infinity", "src/ffcurve/slopes.py",
     'return "INFINITY" if self.h == 0 else (Slope, (self.d, self.h))',
     "return (Slope, (self.d, self.h))",
     ["tests/test_sheaves.py::test_pickle_and_deepcopy_round_trip"]),
    ("ext1_tilted_without_hom", "src/ffcurve/tilting.py",
     "return ext1(A.neg, B.neg) + hom(A.neg, B.pos) + ext1(A.pos, B.pos)",
     "return ext1(A.neg, B.neg) + ext1(A.pos, B.pos)",
     ["tests/test_tilting.py::test_tilted_euler_form"]),
    ("minus_infinity_a_float", "src/ffcurve/tilting.py",
     "MU_MINUS_INFINITY = _MinusInfinity()", 'MU_MINUS_INFINITY = float("-inf")',
     ["tests/test_tilting.py::test_minus_infinity_is_exact_and_below_every_rational"]),
    # total_ordering derives __le__ from __lt__, and keeps one the class defines
    ("minus_infinity_le_strict", "src/ffcurve/tilting.py",
     '    def __repr__(self):\n        return "-inf"',
     '    __le__ = __lt__\n\n    def __repr__(self):\n        return "-inf"',
     ["tests/test_tilting.py::test_minus_infinity_is_exact_and_below_every_rational"]),
    # ---- cli says each fact once
    ("k0_a_b_swapped", "src/ffcurve/cli.py",
     "    a, b = x.k0_class() if", "    b, a = x.k0_class() if",
     ["tests/test_cli.py::test_output_matches_golden[k0_sheaf-.txt]"]),
    ("info_heart_without_middle", "src/ffcurve/cli.py",
     '            middle = ["deg-: %d   rg-: %d   mu-: %s" % (dm, rm, block["mu_minus"])]\n', "",
     ["tests/test_cli.py::test_output_matches_golden[info_rank0_heart-.txt]"]),
    ("envelope_sorted", "src/ffcurve/cli.py",
     "**payload}, indent=2)", "**payload}, indent=2, sort_keys=True)",
     ["tests/test_cli.py::test_output_matches_golden[info_sheaf-.json]"]),
    ("object_kind_unchecked", "src/ffcurve/cli.py",
     "if tilted is not None and isinstance(x, TiltedObject) != tilted:",
     "if tilted and isinstance(x, TiltedObject) != tilted:",
     ["tests/test_cli.py::test_tilt_rejects_tilted_input"]),
    ("pieces_column_narrowed", "src/ffcurve/cli.py",
     '"  %-6s %s" % (r[key]', '"  %-5s %s" % (r[key]',
     ["tests/test_cli.py::test_output_matches_golden[hn_sheaf-.txt]"]),
    # ---- the parser at scan speed
    ("poly_sum_sign_flipped", "src/ffcurve/parser.py",
     'node = total + node if sign == "+" else total - node',
     'node = total - node if sign == "+" else total + node',
     ["tests/test_parser.py::test_parsers_agree_with_the_character_loop_oracle"]),
    ("misfit_position_off_by_one", "src/ffcurve/parser.py",
     'raise ParseError("unexpected character %r" % c, starts[k])',
     'raise ParseError("unexpected character %r" % c, starts[k] + 1)',
     ["tests/test_parser.py::test_parsers_agree_with_the_character_loop_oracle"]),
    ("negative_exponent_unchecked", "src/ffcurve/parser.py",
     'if toks[i + 1] == "-":', "if False:",
     ["tests/test_parser.py::test_corpus_agrees_with_the_character_loop_oracle",
      "tests/test_parser.py::test_parsers_agree_with_the_character_loop_oracle"]),
    ("label_takes_any_token", "src/ffcurve/parser.py",
     "if not sheaves._is_label(label):", "if not label:",
     ["tests/test_parser.py::test_parsers_agree_with_the_character_loop_oracle"]),
]


def _pytest(tree: Path, nodes):
    """pytest's exit code on nodes, or None if it ran over TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=%d" % HYPOTHESIS_SEED, *nodes]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", metavar="NAME", help="run only the mutant of this name")
    args = ap.parse_args(argv)
    rows = [r for r in MUTANTS if args.only in (None, r[0])]
    if not rows:
        ap.error("no mutant named %r" % args.only)
    with tempfile.TemporaryDirectory(prefix="ffcurve-mutants-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        nodes = sorted({n for row in rows for n in row[4]})
        if _pytest(tree, nodes) != 0:
            print("the unmutated tree fails its mutants' tests")
            return 1
        survivors = []
        for name, rel, old, new, row_nodes in rows:
            path = tree / rel
            text = path.read_text()
            if text.count(old) != 1:
                print("%-40s STALE (old text found %d times)" % (name, text.count(old)))
                survivors.append(name)
                continue
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            code = _pytest(tree, row_nodes)
            path.write_text(text)
            verdict = {1: "killed", 0: "SURVIVED", None: "TIMEOUT"}.get(code, "ERROR %s" % code)
            print("%-40s %-9s %5.1f s" % (name, verdict, time.perf_counter() - start))
            if code != 1:
                survivors.append(name)
    print("%d of %d mutants killed" % (len(rows) - len(survivors), len(rows)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
