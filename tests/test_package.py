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


# prints the exit code and whichever of the watched standard modules got
# loaded, then the ffcurve modules the verb loaded
_VERB_MODULES = """
import contextlib, io, sys
from ffcurve import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
watched = {"dataclasses", "inspect", "fractions", "decimal", "json"}
print(code, *sorted(watched & set(sys.modules)))
print(*sorted(m[8:] for m in sys.modules if m.startswith("ffcurve.")))
"""


def _verb_modules(argv):
    out = subprocess.run([sys.executable, "-c", _VERB_MODULES, *argv], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    status, loaded = out.stdout.splitlines()
    code, *stdlib = status.split()
    return int(code), set(stdlib), set(loaded.split())


# the ffcurve modules each verb may load, besides cli and errors: what a cold
# start compiles, so a new import on a verb's path must be added here on purpose
_SHEAF = {"parser", "sheaves", "slopes"}
_TILTED = _SHEAF | {"tilting"}
_BC = _TILTED | {"bc"}
_ALGEBRA = {"complexes", "exactalg", "parser", "polyring"}
_VERB_ALLOWLIST = {
    "info": (["tilted(O(-1); O(1/2))"], _BC),
    "hn": (["O(1/2) + O(1)"], _SHEAF),
    "hom": (["O(1)", "O(2)"], _SHEAF),
    "ext1": (["O(2)", "O(1)"], _SHEAF),
    "ext2": (["O(2)", "O(1)"], _SHEAF),
    "chi": (["O(2/3)"], _SHEAF),
    "k0": (["O(2/3)"], _SHEAF),
    "tilt": (["O(-1)"], _TILTED),
    "untilt": (["tilted(O(-1); O(1/2))"], _TILTED),
    "hnminus": (["O(-1)"], _TILTED),
    "bc": (["O(1)"], _BC),
    "present": (["O(3)"], _BC),
    "breen": ([], _BC - {"parser"}),
    "koszul": (["t", "t + 1"], _ALGEBRA),
    "cohom": (["t", "t + 1"], _ALGEBRA),
    "eta": (["t", "t"], _ALGEBRA),
    "derham": (["2", "--trunc", "3"], {"derham"}),
    "cocycle": (["--report", "--trunc", "3"], {"cocycles"}),
}


# the sheaf verbs that build no Fraction (fractions loads decimal): slopes
# compare, and hom and ext1 subtract them, by integer products, and tilting
# loads fractions only for the mu- values of hnminus and tilted info
_NO_FRACTIONS = {"bc", "chi", "ext1", "ext2", "hn", "hom", "k0", "present", "tilt", "untilt"}


@pytest.mark.parametrize("verb", sorted(_VERB_ALLOWLIST))
def test_verbs_load_neither_dataclasses_nor_inspect(verb):
    # every cold verb compiles what it imports afresh when no bytecode cache
    # is written, and dataclasses pulls in inspect, ast, dis and tokenize; the
    # same cold run also holds the verb to its allowlisted ffcurve modules,
    # and the closed-form sheaf verbs to no Fraction
    args, allowed = _VERB_ALLOWLIST[verb]
    code, stdlib, loaded = _verb_modules([verb, *args])
    assert code == 0
    assert not stdlib & {"dataclasses", "inspect"}, sorted(stdlib)
    assert loaded - {"cli", "errors"} <= allowed, sorted(loaded)
    if verb in _NO_FRACTIONS:
        assert not stdlib & {"fractions", "decimal"}, sorted(stdlib)


def test_sheaf_info_loads_no_fractions():
    # info on a sheaf runs tilt and bc but reads no mu- value
    code, stdlib, loaded = _verb_modules(["info", "O(1/2) + T(x,[2])"])
    assert code == 0
    assert not stdlib & {"fractions", "decimal"}, sorted(stdlib)
    assert loaded - {"cli", "errors"} <= _BC, sorted(loaded)


def test_rejected_input_loads_no_json():
    # json is for the --json envelope, which input rejected by the parser never reaches
    code, stdlib, loaded = _verb_modules(["chi", "O(3"])
    assert code == 2
    assert "json" not in stdlib, sorted(stdlib)
    assert loaded - {"cli", "errors"} <= _SHEAF, sorted(loaded)


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
