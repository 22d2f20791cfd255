"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import charvar_kam


def _package_nodes():
    """(file:line, node) for every AST node of every module in the package."""
    root = Path(charvar_kam.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements_in_package():
    """Runtime checks raise typed errors; ``assert`` vanishes under ``python -O``."""
    found = [where for where, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_raised_assertion_error_in_package():
    """A raised ``AssertionError`` is no scan error, so it would abort a whole scan."""
    found = []
    for where, node in _package_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(where)
    assert found == []
