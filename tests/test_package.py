import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultrasph


def test_every_exported_name_resolves():
    assert [name for name in ultrasph.__all__ if not hasattr(ultrasph, name)] == []


@pytest.mark.parametrize("module", ["geometry", "gegenbauer", "harmonics", "quadrature", "solver"])
def test_module_exports_are_package_exports(module):
    exported = importlib.import_module(f"ultrasph.{module}").__all__
    assert sorted(set(exported) - set(ultrasph.__all__)) == []


def test_quadrature_imports_nothing_from_harmonics():
    # grids and rules sit below the harmonics in the layering
    source = Path(importlib.import_module("ultrasph.quadrature").__file__).read_text()
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert [name for name in modules if "harmonics" in name.split(".")] == []


def test_module_caches_are_bounded():
    # a module-level cache keeps what it holds for the life of the process, so
    # each names a finite size; a weakref-keyed one lives as long as its keys
    bad = []
    for path in sorted(Path(ultrasph.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bounded = {id(node.func) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and not node.args and len(node.keywords) == 1
                   and node.keywords[0].arg == "maxsize"
                   and isinstance(node.keywords[0].value, ast.Constant)
                   and type(node.keywords[0].value.value) is int and node.keywords[0].value.value > 0}
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("lru_cache", "cache") and id(node) not in bounded:
                bad.append(f"{path.name}:{node.lineno} {name} without a finite maxsize")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                bad += [f"{path.name}:{node.lineno} imports {m}" for m in modules if m.split(".")[0] == "weakref"]
    assert bad == []


def _module_private_names(tree):
    """The private functions, classes and assigned names at the top of a module, no dunders."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def test_every_private_name_is_read_in_the_package():
    # code that only its own tests reach is dead weight: each module-level
    # private name is read in src/ultrasph as a name, an attribute or an import
    defined, read = [], set()
    for path in sorted(Path(ultrasph.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.name, name) for name in _module_private_names(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert len(defined) > 50
    assert [f"{module}: {name}" for module, name in defined if name not in read] == []


def _callee(func):
    """The name ``func`` calls a function by: f(...), self.f(...) or cls.f(...)."""
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("self", "cls"):
        return func.attr
    return getattr(func, "id", None)


def test_no_function_calls_itself():
    # a recursion's depth grows with its input (the chain of a label has d - 2
    # entries), so at large d it raises RecursionError; loops over arrays do not
    bad = []
    for path in sorted(Path(ultrasph.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bad += [f"{path.name}:{node.lineno} {func.name}" for node in ast.walk(func)
                        if isinstance(node, ast.Call) and _callee(node.func) == func.name]
    assert bad == []


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    # under the project's warning filters, a failing hypothesis test must
    # report its example, not an INTERNALERROR from the plugin's report hook
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "test_always_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(derandomize=True, database=None, max_examples=20)\n"
        "@given(st.integers(0, 10))\n"
        "def test_small(n):\n"
        "    assert n < 5\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(root / "pyproject.toml"),
         "--rootdir", str(root), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_always_fails.py")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
