"""Mathematical checks raise CertificateError, never a bare assert.

Each check gets an input corrupted through monkeypatch; the last four tests
keep `assert` out of the library, since `python -O` strips it, keep
floating point out of it, since every answer is exact, keep every raise
to a type the CLI maps to an exit code or to a library-misuse type, and keep
the wording of every work-budget refusal in errors.

d o d = 0 is not here: the BoundedComplex constructor checks it and raises
ValueError (test_complexes.py, test_composition_must_vanish), and cohomology
trusts the type instead of checking it again.
"""

import ast
from pathlib import Path

import pytest

from ffcurve import sheaves, slopes
from ffcurve.errors import CertificateError
from ffcurve.sheaves import BCInvariant, O
from ffcurve.slopes import Slope, hom_slope_data

SRC = Path(__file__).resolve().parent.parent / "src" / "ffcurve"


def test_chi_rejects_riemann_roch_failure(monkeypatch):
    F = O(3)
    assert sheaves.chi(F) == BCInvariant(3, 1)
    monkeypatch.setattr(sheaves, "h1", lambda F: BCInvariant(1, 0))
    with pytest.raises(CertificateError):
        sheaves.chi(F)


def test_hom_slope_data_rejects_rank_identity_failure(monkeypatch):
    lam, mu = Slope(1, 2), Slope(1, 3)
    assert hom_slope_data(lam, mu) == (Slope(-1, 6), 1)
    # a difference of height 5 cannot divide 2 * 3
    monkeypatch.setattr(slopes, "reduce", lambda d, h: Slope(1, 5))
    with pytest.raises(CertificateError):
        hom_slope_data(lam, mu)


def test_library_has_no_assert():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_float(node) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


def test_library_has_no_float():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _is_float(node)
    ]
    assert found == []


#: exception types cli.main maps to exit code 2 (ParseError, UsageError) or 1
CLI_MAPPED = {"ParseError", "UsageError", "ValueError", "CertificateError", "BudgetError"}
#: library misuse that no CLI input reaches: immutability guards and the
#: package's __getattr__ (AttributeError), integer admission, domain conversion
#: and function-space checks (TypeError), Poly division by zero
#: (ZeroDivisionError)
LIBRARY_MISUSE = {"AttributeError", "TypeError", "ZeroDivisionError"}


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else ast.dump(exc)


def test_library_raises_only_mapped_or_misuse_types():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        "%s:%d %s" % (path.name, node.lineno, _raised_name(node))
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_name(node) not in CLI_MAPPED | LIBRARY_MISUSE
    ]
    assert found == []


def test_only_errors_writes_the_budget_message():
    # every refusal over a work budget is worded by errors._check_budget
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "over the budget" in node.value
    ]
    assert found == []
