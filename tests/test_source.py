"""Properties of the library source itself."""

import ast
from pathlib import Path

import avdtotal


def test_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    found = []
    for path in sorted(Path(avdtotal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
