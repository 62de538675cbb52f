"""Tests for the package's imports and the bench's span table."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hybridlm


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, as "file:line name"."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    package = Path(hybridlm.__file__).parent
    modules = sorted(package.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert [hit for path in modules + tests for hit in _unused_imports(path)] == []


def test_package_import_loads_no_submodule():
    # Each name is imported from its module; the package itself pulls in none.
    code = "import sys, hybridlm; print([m for m in sys.modules if m.startswith('hybridlm.')])"
    src = str(Path(hybridlm.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bench_spans_resolve():
    # bench/run.py --trace 1 patches each TRACED entry through owner.__dict__[attr].
    path = Path(__file__).parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for name, (module, attr) in spans.TRACED.items():
        importlib.import_module(module)
        owner, fn_name = spans._resolve(module, attr)
        if not callable(owner.__dict__.get(fn_name)):
            unresolved.append(name)
    assert unresolved == []
