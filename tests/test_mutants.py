"""The mutant table stays live: every row still applies to the tree, and
names tests that exist. `python tests/mutants.py` runs the rows."""

import re
from pathlib import Path

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
