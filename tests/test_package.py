"""The package namespace: lazy exports, and each module importable on its own."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffcurve
import ffcurve.errors
import ffcurve.parser

SRC = Path(__file__).resolve().parent.parent / "src"

# home module -> the names ffcurve exports from it
EXPORTS = {
    "slopes": ["INFINITY", "Slope", "hom_slope_data", "reduce"],
    "sheaves": ["BCInvariant", "CoherentSheaf", "O", "T", "TiltedObject", "chi",
                "direct_sum", "ext1", "ext2", "h0", "h1", "hn", "hom", "k0_class",
                "normalize"],
    "tilting": ["double_tilt", "ext1_tilted", "hn_minus", "hom_tilted", "tilt",
                "tilted_invariants"],
    "bc": ["breen_tables", "dim_ht", "effective_presentation", "r0tau"],
    "parser": ["ParseError", "parse_object", "parse_poly", "parse_sheaf"],
}


def test_all_is_unchanged():
    assert ffcurve.__all__ == sorted(n for names in EXPORTS.values() for n in names)
    assert ffcurve.__version__ == "0.1.0"


@pytest.mark.parametrize("home", sorted(EXPORTS))
def test_exports_are_the_objects_of_their_home_module(home):
    mod = importlib.import_module("ffcurve." + home)
    for name in EXPORTS[home]:
        assert getattr(ffcurve, name) is getattr(mod, name)
        assert name in dir(ffcurve)


def test_star_import_and_unknown_names():
    ns = {}
    exec("from ffcurve import *", ns)
    assert ns["chi"] is ffcurve.sheaves.chi
    assert set(ffcurve.__all__) <= set(ns)
    with pytest.raises(AttributeError):
        ffcurve.nope


def test_parse_error_lives_in_errors():
    assert ffcurve.parser.ParseError is ffcurve.errors.ParseError is ffcurve.ParseError


@pytest.mark.parametrize("module", sorted(
    "ffcurve" + ("" if p.stem == "__init__" else "." + p.stem)
    for p in (SRC / "ffcurve").glob("*.py")
))
def test_module_imports_on_its_own(module):
    # a fresh interpreter: no earlier import can meet a dependency or hide a cycle
    subprocess.run([sys.executable, "-c", "import " + module], check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))


_REIMPORT = """
import sys
from ffcurve import bc, parser, sheaves
parser.parse_object("O(1)")
for name in [m for m in sys.modules if m.split(".")[0] == "ffcurve"]:
    del sys.modules[name]
import ffcurve.sheaves
assert ffcurve.sheaves is not sheaves
x = parser.parse_object("tilted(O(-1); O(1/2) + T(x,[2]))")
assert type(x) is sheaves.TiltedObject, type(x)
assert tuple(bc.dim_ht(x)) == (x.degree, x.rank)
"""


def test_parser_keeps_the_sheaves_module_it_first_bound():
    # parser imports sheaves on its first sheaf parse; a later re-import of
    # ffcurve must not hand the parser's callers objects of other classes
    subprocess.run([sys.executable, "-c", _REIMPORT], check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))


def test_no_library_module_imports_dataclasses():
    # see test_verbs_load_neither_dataclasses_nor_inspect
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted((SRC / "ffcurve").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


_VERB_MODULES = """
import contextlib, io, sys
from ffcurve import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv", [
    ["chi", "O(2/3)"], ["info", "tilted(O(-1); O(1/2))"], ["present", "O(3)"], ["breen"],
    ["cohom", "t", "t + 1"], ["eta", "t", "t"], ["derham", "2", "--trunc", "3"],
    ["cocycle", "--report", "--trunc", "3"],
], ids=lambda argv: argv[0])
def test_verbs_load_neither_dataclasses_nor_inspect(argv):
    # every cold verb compiles what it imports afresh when no bytecode cache
    # is written, and dataclasses pulls in inspect, ast, dis and tokenize
    out = subprocess.run([sys.executable, "-c", _VERB_MODULES, *argv], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.stdout.split() == ["0"]


_DOUBLED_D = """
import sys
from ffcurve import cli, derham
real_d = derham._d
derham._d = lambda f: {g: 2 * c for g, c in real_d(f).items()}
sys.exit(cli.main(["derham", "2", "--trunc", "3"]))
"""


def test_certificate_fails_under_python_O():
    run = subprocess.run([sys.executable, "-O", "-c", _DOUBLED_D], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr
