"""Properties of the package source itself."""

import ast
from pathlib import Path

import triplelines


def test_no_assert_statements_in_package():
    # invariants must raise explicitly: `python -O` strips assert statements
    found = []
    for path in sorted(Path(triplelines.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []
