"""The mutant table stays live: every row still applies to the tree, and
names tests that exist. `python tests/mutants.py` runs the rows."""

import re
import subprocess

import mutants
from mutants import MUTANTS, ROOT


def test_every_mutant_row_applies_once_and_names_existing_tests():
    names = [row[0] for row in MUTANTS]
    assert len(set(names)) == len(names)
    for name, rel, old, new, nodes in MUTANTS:
        assert old != new and nodes, name
        assert (ROOT / rel).read_text().count(old) == 1, name
        for node in nodes:
            path, func = re.fullmatch(r"(tests/test_\w+\.py)::(\w+)(\[.*\])?", node).group(1, 2)
            assert re.search(r"^def %s\(" % func, (ROOT / path).read_text(), re.M), node


def test_a_run_over_its_timeout_is_reported_and_counts_as_surviving(monkeypatch, capsys):
    calls = []

    def run(cmd, **kw):
        # the unmutated tree passes; the mutant's run hits the timeout
        calls.append(kw["timeout"])
        if len(calls) == 1:
            return subprocess.CompletedProcess(cmd, 0)
        raise subprocess.TimeoutExpired(cmd, kw["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", run)
    assert mutants.main(["--only", MUTANTS[0][0]]) == 1
    out = capsys.readouterr().out
    assert calls == [mutants.TIMEOUT_S] * 2
    assert "%s TIMEOUT" % MUTANTS[0][0] in " ".join(out.split())
    assert "0 of 1 mutants killed" in out


def test_every_run_is_seeded(monkeypatch, capsys):
    cmds = []

    def run(cmd, **kw):
        cmds.append(cmd)
        return subprocess.CompletedProcess(cmd, 1 if len(cmds) > 1 else 0)

    monkeypatch.setattr(mutants.subprocess, "run", run)
    assert mutants.main(["--only", MUTANTS[0][0]]) == 0
    assert "1 of 1 mutants killed" in capsys.readouterr().out
    assert len(cmds) == 2
    for cmd in cmds:
        assert "--hypothesis-seed=%d" % mutants.HYPOTHESIS_SEED in cmd
