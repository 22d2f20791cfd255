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


#: The on-variety checks take their tolerance as an argument: float points
#: built from random SU(3) matrices need a looser one than exact points.
_TOLERANCE_ARGUMENTS = {
    "varieties.py:in_deltoid",
    "varieties.py:su3_on_variety",
    "varieties.py:boundary_map_su3",
    "varieties.py:deltoid_member",
}


def _is_tolerance(name: str) -> bool:
    return name == "tol" or name.endswith("_tol") or name == "domain_radius"


def test_no_tolerance_keyword_defaults_in_package():
    """Each verdict threshold is one named module constant, not a keyword default a caller could change."""
    found = []
    for where, node in _package_nodes():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        with_defaults = args.posonlyargs + args.args
        defaulted = with_defaults[len(with_defaults) - len(args.defaults) :]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        name = f"{where.split(':')[0]}:{node.name}"
        if name not in _TOLERANCE_ARGUMENTS:
            found += [f"{where} {node.name}({a.arg}=...)" for a in defaulted if _is_tolerance(a.arg)]
    assert found == []


def test_small_float_literals_only_in_module_constants():
    """A float literal below 1e-6 is a threshold: it belongs in a named module-level constant."""
    root = Path(charvar_kam.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue  # a module-level constant names its threshold
            for node in ast.walk(stmt):
                if isinstance(node, ast.Constant) and type(node.value) is float and 0 < abs(node.value) < 1e-6:
                    found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert found == []


def test_every_exported_name_resolves():
    """Each name in a module's ``__all__`` is defined there, so no export outlives what it named."""
    import importlib
    import pkgutil

    modules = [charvar_kam] + [
        importlib.import_module(f"charvar_kam.{info.name}") for info in pkgutil.iter_modules(charvar_kam.__path__)
    ]
    found = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert len(modules) > 1 and found == []
