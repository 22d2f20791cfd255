"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import charvar_kam


def test_no_assert_statements_in_package():
    """Runtime checks raise typed errors; ``assert`` vanishes under ``python -O``."""
    root = Path(charvar_kam.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
