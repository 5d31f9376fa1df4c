"""Command-line interface: dispatch, output modes, exit codes."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ffcurve import bc, cli, cocycles, complexes, derham, exactalg, sheaves, tilting
from ffcurve.errors import BudgetError
from ffcurve.parser import parse_poly, parse_sheaf
from ffcurve.polyring import Poly
from ffcurve.sheaves import BCInvariant


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == cli.SCHEMA
    return payload


def test_chi_text(capsys):
    code, out, err = run(capsys, "chi", "O(2/3)")
    assert code == 0
    assert out.strip() == "(2, 3)"


def test_chi_json(capsys):
    payload = run_json(capsys, "chi", "O(2/3)", "--json")
    assert payload["command"] == "chi"
    assert payload["dim"] == 2 and payload["ht"] == 3


def test_hom_ext_values(capsys):
    code, out, _ = run(capsys, "hom", "O", "O(1)")
    assert code == 0 and out.strip() == "(1, 1)"
    code, out, _ = run(capsys, "ext1", "O(1)", "O")
    assert code == 0 and out.strip() == "(1, -1)"
    payload = run_json(capsys, "ext2", "O(5)", "T(inf,[2])", "--json")
    assert (payload["dim"], payload["ht"]) == (0, 0)


def test_k0(capsys):
    code, out, _ = run(capsys, "k0", "O(2/3)")
    assert code == 0
    assert out.strip() == "1*[O] + 2*[O(1)]"
    payload = run_json(capsys, "k0", "tilted(O(-1); 0)", "--json")
    assert (payload["a"], payload["b"]) == (-2, 1)


def test_breen_json_matches_library(capsys):
    payload = run_json(capsys, "breen", "--json")
    tables = bc.breen_tables()
    assert payload["labels"] == list(tables["labels"])
    for key in ("hom", "ext1", "ext2"):
        want = [[[v.dim, v.ht] for v in row] for row in tables[key]]
        assert payload[key] == want


def test_hn_json_vertices(capsys):
    payload = run_json(capsys, "hn", "O(1)+O(-1)", "--json")
    assert payload["vertices"] == [[0, 0], [1, 1], [2, 0]]
    assert [p["slope"] for p in payload["pieces"]] == ["1", "-1"]


def test_hn_torsion_first(capsys):
    payload = run_json(capsys, "hn", "T(inf,[2]) + O(1)", "--json")
    assert payload["vertices"] == [[0, 0], [0, 2], [1, 3]]
    assert payload["pieces"][0]["slope"] == "inf"


def test_hn_svg(tmp_path, capsys):
    target = tmp_path / "polygon.svg"
    code, out, _ = run(capsys, "hn", "O(1)+O(-1)", "--svg", str(target))
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_hn_svg_unwritable_path(tmp_path, capsys):
    for target in (tmp_path / "missing" / "polygon.svg", tmp_path, ""):
        code, out, err = run(capsys, "hn", "O(1)", "--svg", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "chi", "O(1")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("depth", [400, 10000])
def test_deeply_nested_polynomials_exit_cleanly(capsys, depth):
    # the Q[t] grammar keeps its nesting on a list, not on Python frames
    assert run(capsys, "koszul", "(" * depth + "t" + ")" * depth) == run(capsys, "koszul", "t")
    code, out, err = run(capsys, "koszul", "(" * depth + "t")
    assert (code, out) == (2, "")
    assert err == "error: parse error at position %d: expected ')'\n" % (depth + 1)


def test_slope_sign_violation_is_input_error(capsys):
    code, _, err = run(capsys, "info", "tilted(O(1); O)")
    assert code == 2 and err


def test_unknown_verb(capsys):
    code, _, err = run(capsys, "frobnicate", "O")
    assert code == 2


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "hn", "0")
    assert code == 1
    assert "error" in err


def test_untilt_requires_tilted(capsys):
    code, _, err = run(capsys, "untilt", "O(1)")
    assert code == 1
    assert err == "error: untilt expects a tilted object, got a coherent sheaf\n"


def test_tilt_rejects_tilted_input(capsys):
    code, _, err = run(capsys, "tilt", "tilted(0; O)")
    assert code == 1


def test_tilt_untilt_roundtrip(capsys):
    code, out, _ = run(capsys, "tilt", "O(-1) + O(2)")
    assert code == 0
    assert out.strip() == "tilted(O(-1); O(2))"
    code, out, _ = run(capsys, "untilt", out.strip())
    assert code == 0
    assert out.strip() == "O(2) + O(-1)"


def test_hnminus(capsys):
    payload = run_json(capsys, "hnminus", "tilted(O(-1); O(1) + T(inf,[2]))", "--json")
    assert [p["mu"] for p in payload["pieces"]] == ["1", "0", "-1"]
    assert payload["pieces"][0]["object"] == "O(-1)[1]"
    payload = run_json(capsys, "hnminus", "O", "--json")
    assert [p["mu"] for p in payload["pieces"]] == ["-inf"]


def test_bc_json(capsys):
    payload = run_json(capsys, "bc", "O(1/2)", "--json")
    assert payload["descriptor"]["dim"] == 1 and payload["descriptor"]["ht"] == 2
    want = bc.dim_ht(tilting.tilt(parse_sheaf("O(-2)")))
    payload = run_json(capsys, "bc", "O(-2)", "--json")
    assert (payload["descriptor"]["dim"], payload["descriptor"]["ht"]) == tuple(want)
    # the paper's two basic spaces: Qp from O, Ga from torsion
    text = "O^2 + T(inf,[3]) + T(x,[2,1])"
    code, out, err = run(capsys, "bc", text)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["descriptor: Ga[3] + Ga[2,1]@x + Qp^2", "dim/ht: (6, 2)"]
    payload = run_json(capsys, "bc", text, "--json")
    assert payload["descriptor"]["atoms"] == [
        {"kind": "Ga", "label": "inf", "lengths": [3]},
        {"kind": "Ga", "label": "x", "lengths": [2, 1]},
        {"kind": "Qp", "mult": 2},
    ]
    assert (payload["descriptor"]["dim"], payload["descriptor"]["ht"]) == (6, 2)
    code, out, _ = run(capsys, "bc", "O")
    assert code == 0 and out.splitlines()[1] == "descriptor: Qp"


def test_present(capsys):
    payload = run_json(capsys, "present", "O(3)", "--json")
    assert payload["valid"] is True
    assert payload["kernel_rank"] >= 0 and "O" in payload["middle"]
    code, out, _ = run(capsys, "present", "tilted(O(-1); 0)")
    assert code == 0 and "-> O(-1)[1] -> 0" in out


def test_koszul_json(capsys):
    payload = run_json(capsys, "koszul", "t", "t^2", "--json")
    assert payload["elements"] == ["t", "t^2"]
    assert payload["complex"]["ranks"] == [1, 2, 1]


def test_cohom(capsys):
    payload = run_json(capsys, "cohom", "t", "--json")
    assert payload["H"]["0"] == {"rank": 0, "torsion": []}
    assert payload["H"]["1"] == {"rank": 0, "torsion": ["t"]}
    code, out, _ = run(capsys, "cohom", "t")
    assert code == 0 and "H^1" in out


def test_eta(capsys):
    payload = run_json(capsys, "eta", "t", "t", "t + 1", "--json")
    assert payload["f"] == "t"
    assert payload["complex"]["ranks"] == [1, 2, 1]
    assert "cohomology" in payload


def test_eta_zero_scale(capsys):
    code, _, err = run(capsys, "eta", "0", "t")
    assert code == 1


def test_eta_zero_scale_is_refused_by_the_library_rule_first(capsys):
    # complexes._scale refuses f = 0 before the elements are parsed, so a
    # malformed element after it does not turn exit 1 into exit 2
    for argv in (["eta", "0", "t"], ["eta", "0", "t^"], ["eta", "0", "t", "--json"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: decalage needs a non-zero-divisor f\n")


def test_derham_json(capsys):
    payload = run_json(capsys, "derham", "1", "--trunc", "4", "--json")
    assert payload["n"] == 1 and payload["trunc"] == 4
    assert payload["ga"]["0"]["0"] == 1
    assert all(v == 1 for v in payload["ga"]["1"].values())
    assert payload["qp"]["table"]["0"] == {"0": 1}
    assert [1, 4] in payload["qp"]["boundary"]


def test_cocycle_q(capsys):
    payload = run_json(capsys, "cocycle", "3", "--json")
    assert payload["q"] == 3
    assert payload["cocycle_dim"] == 1 and payload["quotient_dim"] == 0
    assert len(payload["basis"]) == 1


def test_cocycle_report(capsys):
    payload = run_json(capsys, "cocycle", "--report", "--trunc", "4", "--json")
    assert payload["ok"] is True
    assert payload["poly_kernel"]["is_span_of_identity"] is True
    assert payload["poly_kernel"]["degree_bound"] == 4


def test_cocycle_report_defaults_are_the_library_defaults(capsys):
    payload = run_json(capsys, "cocycle", "--report", "--json")
    report = json.loads(json.dumps(cocycles.hom_column_checks()))
    assert payload == {"schema": cli.SCHEMA, "command": "cocycle", **report}
    assert payload["poly_kernel"]["degree_bound"] == 6
    assert payload["mahler_middle"]["degree_bound"] == 4


def test_cocycle_argument_errors(capsys):
    code, _, err = run(capsys, "cocycle")
    assert code == 2
    code, _, err = run(capsys, "cocycle", "2", "--report")
    assert code == 2
    code, _, err = run(capsys, "cocycle", "0")
    assert code == 1
    code, out, err = run(capsys, "cocycle", "3", "--trunc", "1")
    assert code == 2 and out == "" and err.startswith("error:")
    for bound in ("0", "-1"):
        code, out, err = run(capsys, "cocycle", "--report", "--trunc", bound)
        assert code == 1 and out == "" and err.startswith("error:")


def test_over_budget_calls_exit_1_at_once(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("an over-budget call started its work")

    def assert_refused(argv, budget):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and out == ""
        assert err.startswith("error:") and budget in err
        # the refusal is the library's BudgetError, which main maps to exit 1
        args = cli._build_parser(cli._VERBS).parse_args([*argv, "--json"])
        with pytest.raises(BudgetError, match=budget):
            args.func(args)

    monkeypatch.setattr(cocycles, "_pullback_rows", no_work)
    monkeypatch.setattr(derham, "_forms", no_work)
    monkeypatch.setattr(complexes, "combinations", no_work)
    monkeypatch.setattr(complexes, "reduce", no_work)
    monkeypatch.setattr(bc, "se1", no_work)
    # four admitted elements of degree 16: parsing them raises powers, and
    # the Koszul functions refuse them before any gcd or basis
    four = ["(4294967295*t + 7)^8*(1/3*t - 7)^8", "(65535*t - 3)^8*(t + 7/5)^8",
            "(1/3*t - 7)^16", "(t + 1)^16"]
    assert_refused(["cohom"] + four, "MAX_KOSZUL_COEFFS")
    assert_refused(["eta", "t - 3"] + four, "MAX_KOSZUL_COEFFS")
    monkeypatch.setattr(Poly, "__pow__", no_work)
    for argv, budget in (
        (["koszul", "t", "t^1000000000000"], "MAX_POLY_DEGREE"),
        (["cohom", "2^999999999999"], "MAX_POLY_BITS"),
        (["cocycle", "64"], "MAX_COCYCLE_DEGREE"),
        (["cocycle", "--report", "--trunc", "13"], "MAX_COLUMN_DEGREE"),
        (["derham", "4", "--trunc", "11"], "MAX_DERHAM_FORMS"),
        (["derham", "1000000000"], "MAX_DERHAM_FORMS"),
        (["present", "O(1000000000)"], "MAX_PRESENT_STEPS"),
        (["present", "T(x,[3000000000])"], "MAX_PRESENT_STEPS"),
        (["present", "O(-1000000000)[1]"], "MAX_PRESENT_STEPS"),
    ):
        assert_refused(argv, budget)


# the full stdout of the Q[t] verbs, written by the CLI before Q[t] moved to
# integer numerators; eta prints its decalage as the sum of the K(-h)[-j], h
# read off the gcd (eta_t-3.json was rewritten for it, from the Smith bases'
# -2*t - 2 to -t - 1).
# The cocycle and derham files were written before the pullback matrices were
# built on integers and before qp_cohomology memoised d within a call;
# derham_3_9, the largest qp table of the benchmark, before forms and keys
# were coded as ints.
# The bc, present, info and breen files were written before each descriptor
# atom and the presentation's final sequence got one home in bc; _HEART has
# every atom kind, both torsion labels and cover levels for 5/2 and -3/2.
_GOLDEN = Path(__file__).resolve().parent / "golden"
_HEART = "tilted(O(-3/2)^2 + O(-1); O(5/2) + O^2 + T(x,[2,1]) + T(inf,[3]))"
_GOLDEN_ARGV = {
    "eta_t": ["eta", "t", "t", "t + 1"],
    "eta_t-3": ["eta", "t - 3", "t^2 - 1", "t^2 + 2*t + 1"],
    "cohom_three": ["cohom", "t^2 - 1", "t^2 + 2*t + 1", "t^3 - t"],
    "koszul_two": ["koszul", "1/3*t - 7", "2*t + 3"],
    "cocycle_24": ["cocycle", "24"],
    "cocycle_32": ["cocycle", "32"],
    "cocycle_report": ["cocycle", "--report", "--trunc", "12"],
    "derham_4": ["derham", "4", "--trunc", "5"],
    "derham_3_9": ["derham", "3", "--trunc", "9"],
    "bc_heart": ["bc", _HEART],
    "present_heart": ["present", _HEART],
    "bc_0": ["bc", "0"],
    "present_O7": ["present", "O(7)"],
    "info_heart": ["info", _HEART],
    "info_sheaf": ["info", "O(5/2) + O(-1)^2 + T(x,[2])"],
    "breen": ["breen"],
    "info_0": ["info", "0"],
    "info_rank0_heart": ["info", "tilted(O(-1); O(1))"],
    "hn_sheaf": ["hn", "O(5/2) + O(-1)^2 + T(x,[2])"],
    "hnminus_heart": ["hnminus", _HEART],
    "chi_sheaf": ["chi", "O(5/2) + O(-1)^2 + T(x,[2])"],
    "hom_bundles": ["hom", "O(1/2) + T(x,[1])", "O(5/3) + O(-1)"],
    "ext1_bundles": ["ext1", "O(1) + T(inf,[2])", "O(-1/2) + O^2"],
    "ext2_bundles": ["ext2", "O(1)", "O(-1/2)"],
    "tilt_sheaf": ["tilt", "O(5/2) + O(-1)^2 + T(x,[2])"],
    "untilt_heart": ["untilt", _HEART],
    "k0_sheaf": ["k0", "O(5/2) + O(-1)^2 + T(x,[2])"],
    "k0_heart": ["k0", _HEART],
    # gcd(f, g) = t^2 is not 1: h = g / gcd(f, g) = t
    "eta_t2": ["eta", "t^2", "t^3", "t^4"],
}


def test_every_verb_has_a_golden():
    assert {verb[0] for verb in cli._VERBS} == {argv[0] for argv in _GOLDEN_ARGV.values()}


@pytest.mark.parametrize("suffix", [".txt", ".json"])
@pytest.mark.parametrize("stem", sorted(_GOLDEN_ARGV))
def test_output_matches_golden(capsys, stem, suffix):
    argv = _GOLDEN_ARGV[stem] + ["--json"] * (suffix == ".json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (_GOLDEN / (stem + suffix)).read_bytes()


def test_cohom_and_eta_run_no_smith_elimination(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a Smith elimination or library decalage was called")

    for module in (complexes, exactalg):
        monkeypatch.setattr(module, "smith_elimination", refuse)
        monkeypatch.setattr(module, "_replayed", refuse)
    monkeypatch.setattr(complexes, "decalage", refuse)
    for stem in ("eta_t", "eta_t-3", "cohom_three"):
        for suffix in (".txt", ".json"):
            code, out, err = run(capsys, *_GOLDEN_ARGV[stem], *["--json"] * (suffix == ".json"))
            assert (code, err) == (0, "")
            assert out.encode() == (_GOLDEN / (stem + suffix)).read_bytes()


_B = "(4294967295*t + 7)^8*(1/3*t - 7)^8"


@pytest.mark.parametrize("argv", [
    # the Smith bases of these two decalages have 23,332- and 292-bit
    # coefficients; the closed form prints only 0 and -h
    ["eta", "t - 3", "(16777215*t + 7)^8*(1/3*t - 7)^8", "t^16 + 1"],
    ["eta", "t", _B, _B],
    ["cohom", _B, "(t + 1)^16"],
])
def test_large_cohom_and_eta_answer_the_smith_path_cohomology(capsys, argv):
    polys = [parse_poly(x) for x in argv[1:]]
    if argv[0] == "eta":
        f, polys = polys[0], polys[1:]
    K = complexes.koszul(exactalg.POLY_OVER_RATIONALS, polys)
    if argv[0] == "eta":
        K = complexes.decalage(K, f, complexes.ShiftProfile.identity(0, K.highest))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-len(K.ranks):] == cli._cohomology(complexes.cohomology(K))[1]


def test_certificate_failure_exit_code(capsys, monkeypatch):
    real_d = derham._d
    monkeypatch.setattr(derham, "_d", lambda f: {g: 2 * c for g, c in real_d(f).items()})
    code, out, err = run(capsys, "derham", "2", "--trunc", "3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_inexact_division_is_a_certificate_failure(capsys, monkeypatch):
    # t + 1 divides neither t nor the gcd it claims to be, so eta's exact
    # division by gcd(f, g) fails
    real_gcd = exactalg.POLY_OVER_RATIONALS.gcd
    wrong = parse_poly("t + 1")
    monkeypatch.setattr(exactalg.POLY_OVER_RATIONALS, "gcd",
                        lambda a, b: wrong if a and b else real_gcd(a, b))
    code, out, err = run(capsys, "eta", "t", "t")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_a_gcd_that_divides_no_element_is_a_certificate_failure(capsys, monkeypatch):
    # t + 5 divides none of the elements: cohom printed it as torsion, and eta
    # printed no torsion, each with exit 0, before the gcd was checked
    real_gcd = exactalg.POLY_OVER_RATIONALS.gcd
    wrong = parse_poly("t + 5")
    monkeypatch.setattr(exactalg.POLY_OVER_RATIONALS, "gcd",
                        lambda a, b: wrong if a and b else real_gcd(a, b))
    for argv in (["cohom", "t^2", "t^3"], ["eta", "t", "t^2", "t^3"]):
        for mode in ([], ["--json"]):
            code, out, err = run(capsys, *argv, *mode)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "Traceback" not in err


def test_cocycle_certificate_failure_exit_code(capsys, monkeypatch):
    real_rows = cocycles._pullback_rows

    def perturbed(*args):
        rows = real_rows(*args)
        rows[-1] = [v + 1 for v in rows[-1]]
        return rows

    monkeypatch.setattr(cocycles, "_pullback_rows", perturbed)
    for argv in (["--report"], ["--report", "--json"], ["5"], ["5", "--json"]):
        code, out, err = run(capsys, "cocycle", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_present_refuses_a_non_additive_step(capsys, monkeypatch):
    # bc reads se1 from its own namespace; 0 -> O -> O(1) -> O(j) -> 0 is not additive
    plain = sheaves._plain
    monkeypatch.setattr(bc, "se1", lambda j: sheaves.ShortExactSequence(
        plain(sheaves.O(0)), plain(sheaves.O(1)), plain(sheaves.O(j)), "se1"))
    for argv in (["O(3)"], ["O(3)", "--json"]):
        code, out, err = run(capsys, "present", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: additivity fails for se1") and "Traceback" not in err


def _readme_cli_lines():
    # the ffcurve lines of the first sh block under "## CLI"
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_cli_examples(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # hn --svg writes hn.svg here
    lines = _readme_cli_lines()
    assert len(lines) == 16 and all(argv[0] == "ffcurve" for argv in lines)
    outs = {}
    for argv in lines:
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
        outs[argv[1]] = out
    assert outs["chi"] == "(2, 3)\n"
    assert "vertices: (0,0) (1,1) (2,0)\n" in outs["hn"]
    assert (tmp_path / "hn.svg").read_text().startswith("<svg")
    assert outs["tilt"] == "tilted(O(-1); O(2))\n"


def test_info_sheaf_json(capsys):
    payload = run_json(capsys, "info", "O(1/2) + T(x0,[3])", "--json")
    assert payload["kind"] == "sheaf"
    assert payload["object"] == "O(1/2) + T(x0,[3])"
    assert payload["invariants"] == {"rank": 2, "degree": 4, "slope": "2"}
    assert payload["chi"] == [4, 2]
    assert len(payload["pieces"]) == 2
    F = parse_sheaf("O(1/2) + T(x0,[3])")
    want = bc.dim_ht(tilting.tilt(F))
    assert payload["bc"] == {"dim": want.dim, "ht": want.ht}


def test_info_tilted_json(capsys):
    payload = run_json(capsys, "info", "tilted(O(-1); O(1))", "--json")
    assert payload["kind"] == "tilted"
    assert payload["invariants"] == {"rank": 0, "degree": 2, "slope": "inf"}
    assert payload["tilted"] == {"deg_minus": 0, "rg_minus": 2, "mu_minus": "0"}
    assert [p["mu"] for p in payload["pieces"]] == ["1", "-1"]
    assert payload["bc"] == {"dim": 2, "ht": 0}


def test_info_zero_objects(capsys):
    payload = run_json(capsys, "info", "0", "--json")
    assert payload["invariants"]["slope"] is None and payload["pieces"] == []
    payload = run_json(capsys, "info", "tilted(0; 0)", "--json")
    assert payload["tilted"] is None and payload["pieces"] == []


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "O(2)")
    assert code == 0
    assert "rank: 1" in out and "slope: 2" in out


def test_svg_rejected_elsewhere(capsys):
    code, _, err = run(capsys, "chi", "O", "--svg", "x.svg")
    assert code == 2


def test_seed_rejected(capsys):
    # no command is randomized, so there is no --seed option
    code, _, err = run(capsys, "breen", "--seed", "7")
    assert code == 2
    assert "--seed" in err


def test_missing_argument(capsys):
    code, _, err = run(capsys, "chi")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["chi", "O(²)"], ["chi", "T(x,[¹])"], ["chi", "O(3)^²"], ["koszul", "²"],
])
def test_digits_int_cannot_read_are_parse_errors(capsys, argv):
    # str.isdigit accepts superscripts, which int() refuses
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unexpected character" in err and "Traceback" not in err


def test_decimal_digits_of_other_scripts_still_read(capsys):
    assert run(capsys, "chi", "O(٣)") == run(capsys, "chi", "O(3)")
    assert run(capsys, "chi", "T(x²,[1])")[0] == 0


# the sheaf grammar's tokens and characters, and near-well-formed objects
# with large integers, for the guard below
_TOKENS = ["O", "T", "tilted", "inf", "x0", "(", ")", "[", "]", "[1]", "^", "+",
           ";", ",", "/", "-", "*", " ", "0", "1", "2", "7", "12", "999999999999"]
_CHARS = "".join(sorted(set("".join(_TOKENS) + "∞_t²")))
_INT = st.integers(-10**12, 10**12)
_POS = st.one_of(st.integers(1, 10**12), _INT)
_SUM = st.lists(
    st.one_of(
        st.builds("O({}/{})^{}".format, _INT, _POS, _POS),
        st.builds("T(x0,[{},{}])".format, _POS, _POS),
        st.builds("O({})[1]".format, _INT),
    ),
    min_size=1,
    max_size=3,
).map(" + ".join)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["info", "hn", "chi", "k0", "tilt", "untilt", "hnminus", "bc"]),
    st.one_of(
        st.text(alphabet=_CHARS, max_size=30),
        st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
        _SUM,
        st.builds("tilted({}; {})".format, _SUM, _SUM),
    ),
)
def test_closed_form_verbs_exit_cleanly(verb, text):
    # capsys is function-scoped, so each example redirects its own streams
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([verb, text])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_POLY_TOKENS = ["t", "(", ")", "^", "+", "-", "*", "/", " ", "0", "1", "2", "7", "12",
                "16", "17", "999999999999"]
_POWER = st.builds(
    "({})^{}".format,
    st.sampled_from(["t", "t + 1", "-1", "0", "2", "1/3*t - 7", "65535*t"]),
    st.one_of(st.integers(0, 20), st.integers(0, 10**12)),
)
_POLY_TEXT = st.one_of(
    st.text(alphabet="t()^+-*/ 0123456789", max_size=20),
    st.lists(st.sampled_from(_POLY_TOKENS), max_size=10).map("".join),
    _POWER,
    st.builds("{}*{}".format, _POWER, _POWER),
)
_INT_TEXT = st.integers(-10**12, 10**12).map(str)


def _polys_after(head, texts, dashes):
    # a text with a leading minus must follow "--"; without it argparse exits 2
    return head + ["--"] * dashes + texts


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.builds(_polys_after, st.just(["koszul"]),
                  st.lists(_POLY_TEXT, min_size=1, max_size=3), st.booleans()),
        st.builds(_polys_after, st.just(["cohom"]),
                  st.lists(_POLY_TEXT, min_size=1, max_size=4), st.booleans()),
        st.builds(_polys_after, st.just(["eta"]),
                  st.lists(_POLY_TEXT, min_size=2, max_size=5), st.booleans()),
        st.builds(lambda n, D: ["derham", n, "--trunc", D], _INT_TEXT, _INT_TEXT),
        st.builds(lambda q: ["cocycle", q], _INT_TEXT),
        st.builds(lambda D: ["cocycle", "--report", "--trunc", D], _INT_TEXT),
    ),
    st.booleans(),
)
def test_polynomial_and_integer_verbs_exit_cleanly(argv, as_json):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv[:1] + ["--json"] * as_json + argv[1:])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()



# each verb in a fresh interpreter: the ffcurve modules it leaves loaded
_LOADED = """
import contextlib, io, sys
from ffcurve import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("ffcurve")))
"""
_SRC = str(Path(__file__).resolve().parent.parent / "src")
_LEAN = {"ffcurve", "ffcurve.cli", "ffcurve.errors"}
_ENGINES = {"ffcurve.complexes", "ffcurve.exactalg", "ffcurve.cocycles", "ffcurve.derham"}
_VERB_ARGV = {
    "info": ["O(1/2)"], "hn": ["O(1)"], "hom": ["O", "O(1)"], "ext1": ["O(1)", "O"],
    "ext2": ["O(2)", "T(inf,[3])"], "chi": ["O(2/3)"], "k0": ["O(2/3)"], "tilt": ["O(-1)"],
    "untilt": ["tilted(O(-1); O(2))"], "hnminus": ["O(1)"], "bc": ["O(1/2)"],
    "present": ["O(3)"], "breen": [], "koszul": ["t", "t + 1"], "cohom": ["t"],
    "eta": ["t", "t"], "derham": ["1", "--trunc", "2"], "cocycle": ["3"],
}


def _loaded(*argv):
    out = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
    ).stdout.split()
    return int(out[0]), set(out[1:])


@pytest.mark.parametrize("verb", sorted(_VERB_ARGV))
def test_verb_loads_only_what_it_runs(verb):
    code, mods = _loaded(verb, *_VERB_ARGV[verb])
    assert code == 0 and _LEAN <= mods
    if verb == "derham":
        assert mods == _LEAN | {"ffcurve.derham"}
    elif verb == "cocycle":
        assert not mods & {"ffcurve.sheaves", "ffcurve.complexes"}
    elif verb in ("koszul", "cohom", "eta"):
        assert not mods & {"ffcurve.cocycles", "ffcurve.derham", "ffcurve.bc"}
        assert not mods & {"ffcurve.sheaves", "ffcurve.slopes", "ffcurve.tilting"}
    else:
        assert not mods & _ENGINES


def test_usage_error_loads_no_engine():
    assert _loaded("cocycle") == (2, _LEAN)


def _cold_json(*argv):
    out = subprocess.run(
        [sys.executable, "-m", "ffcurve.cli", *argv, "--json"], capture_output=True, text=True,
        check=True, timeout=10, env=dict(os.environ, PYTHONPATH=_SRC),
    ).stdout
    payload = json.loads(out)
    return BCInvariant(payload["dim"], payload["ht"])


def test_hom_and_ext1_answer_the_largest_inputs_in_bounded_time():
    # 60,000 factors a side is 120 KB, under Linux's 128 KB cap on one argument:
    # Hom and Ext^1 are each the sum of min(1, 1) over 60,000^2 factor pairs
    ones = "T(x,[%s])" % ",".join(["1"] * 60000)
    for verb in ("hom", "ext1"):
        assert _cold_json(verb, ones, ones) == (3600000000, 0)
    # two sums of 6,000 distinct bundle atoms each, overlapping in most slopes
    F, G = (" + ".join("O(%d/%d)" % s for s in [
        (d, h) for h in range(1, 100) for d in range(off - 60, off + 61) if gcd(d, h) == 1][:6000])
        for off in (0, 7))
    # oracle: chi(RHom) is bilinear in K0 classes (see test_sheaves)
    (a, b), (c, e) = (sheaves.k0_class(parse_sheaf(X)) for X in (F, G))
    assert _cold_json("hom", F, G) - _cold_json("ext1", F, G) == (a * e - b * c, (a + b) * (c + e))


def _subparsers(parser):
    return parser._subparsers._group_actions[0].choices


@pytest.mark.parametrize("verb", sorted(_VERB_ARGV))
def test_one_verb_build_gives_the_full_builds_subparser(verb):
    one, full = cli._build_parser(cli._VERBS, verb), cli._build_parser(cli._VERBS)
    assert list(_subparsers(one)) == [verb]
    assert list(_subparsers(full)) == [name for name, *_ in cli._VERBS]
    for method in ("format_usage", "format_help"):
        assert getattr(_subparsers(one)[verb], method)() == getattr(_subparsers(full)[verb], method)()
    # "unrecognized arguments" prints the top-level usage, with every verb in it
    assert one.format_usage() == full.format_usage()


def _usage_corpus():
    for verb in sorted(_VERB_ARGV):
        args = _VERB_ARGV[verb]
        yield [verb, "--help"]
        yield [verb]
        yield [verb, *args, "extra"]
        if verb != "hn":
            yield [verb, *args, "--svg", "x"]
    yield from (["cocycle", "3", "--report"], ["derham", "x"], ["hom", "O(1)"],
                [], ["nope", "O"], ["-h"], ["--json", "chi", "O"])


def test_one_verb_build_prints_what_the_full_build_prints(capsys, monkeypatch):
    corpus = list(_usage_corpus())
    one = [run(capsys, *argv) for argv in corpus]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda verbs, only=None: build(verbs))
    full = [run(capsys, *argv) for argv in corpus]
    for argv, got, want in zip(corpus, one, full):
        assert got == want, argv
    # the corpus reaches both usage lines and every kind of argparse exit
    assert {code for code, _, _ in full} == {0, 2}
    assert any("unrecognized arguments" in err for _, _, err in full)
    # the full build names the verb argument "verb", not by a list of choices
    errors = dict(zip(map(tuple, corpus), (err for _, _, err in full)))
    assert "error: argument verb: invalid choice: 'nope'" in errors[("nope", "O")]
    assert errors[()].endswith("error: the following arguments are required: verb\n")
