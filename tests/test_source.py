"""Source-level checks on the package itself."""

import ast
import os
import subprocess
import sys
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


def test_no_global_statements_in_package():
    """A scan's state lives in the objects the scan holds, not in module globals that a second scan would share."""
    found = [where for where, node in _package_nodes() if isinstance(node, ast.Global)]
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


def test_readme_python_examples_run(capsys):
    """Every ``python`` code block of README.md runs, so the README names no function the package lost."""
    import re

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    assert capsys.readouterr().out


def _tracer_lookups() -> set:
    """Every string constant of perfbench/tracer.py: the names it looks up in the package's modules."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text())
    return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_import_is_used():
    """Each module's imports are used there, exported, or kept (``# noqa: F401``) for a name the tracer looks up."""
    root = Path(charvar_kam.__file__).parent
    traced = _tracer_lookups()
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
                exported = set(ast.literal_eval(stmt.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name in used or name in exported:
                    continue
                if "# noqa: F401" in lines[alias.lineno - 1] and name in traced:
                    continue
                found.append(f"{path.name}:{alias.lineno} {name}")
    assert found == []


def test_a_scan_loads_only_what_it_runs():
    """Importing the CLI leaves ``poisson`` unloaded, and the package root holds submodules only: one import path per name."""
    src = str(Path(charvar_kam.__file__).resolve().parents[1])
    probe = (
        "import sys, types, charvar_kam, charvar_kam.cli\n"
        "print('charvar_kam.poisson' in sys.modules)\n"
        "print(sorted(n for n, v in vars(charvar_kam).items()"
        " if not n.startswith('_') and not isinstance(v, types.ModuleType)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n[]\n"
