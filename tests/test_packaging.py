"""Packaging and import-footprint contracts.

SciPy is a test-only dependency: the product (library, CLI, daemon and the
spawn workers that import them) must start without importing it, and the
package metadata must not list it as a runtime requirement.  Every function
and class in the package has a caller somewhere else in the package.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def _pyproject() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_product_imports_no_scipy():
    # A fresh interpreter: this test process may have imported SciPy for
    # other tests.
    code = (
        "import sys\n"
        "import repro.experiments, repro.harness.cli, repro.harness.service\n"
        "leaked = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not leaked, leaked\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_is_not_a_runtime_dependency():
    project = _pyproject()["project"]
    runtime = [dep.split(";")[0].strip().lower() for dep in project["dependencies"]]
    assert runtime == ["numpy"]
    extras = project["optional-dependencies"]
    assert "scipy" in extras["test"]
    assert "cffi" in extras["compiled"]


def test_console_script_resolves_to_a_callable():
    target = _pyproject()["project"]["scripts"]["repro-experiments"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


#: Definitions kept on purpose although no code in ``src`` refers to
#: them, one reason each.  Keep this short: a definition without a caller
#: is deleted, not listed.
_UNCALLED_ALLOWED = {
    "_reset_for_tests": "test hook: tests forget the compiled backend's "
                        "cached load attempt to simulate a missing toolchain",
    "reduce_sum": "the scalar reference that OpenMPRuntime.reduce_many is "
                  "pinned against (tests/test_batched_engine.py), and the "
                  "OpenMP example's API",
}


def _code_references(tree: ast.AST) -> Counter:
    """Names a module's code refers to: ``Name`` ids, ``Attribute`` attrs
    (f-string bodies included), import aliases, and the strings an
    ``__all__`` lists.  Docstrings and comments are not code."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                refs.update(
                    elt.value for elt in getattr(node.value, "elts", ())
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
    return refs


def _uncalled_definitions(root: Path) -> set[str]:
    """Functions and classes under ``root`` that no code in the package
    refers to (:func:`_code_references`; dunders skipped)."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(root.rglob("*.py"))}
    refs = sum((_code_references(tree) for tree in trees.values()), Counter())
    found = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not refs[name]:
                found.add(f"{path.relative_to(root.parent)}:{node.lineno}:{name}")
    return found


def test_every_definition_has_a_caller():
    root = Path(repro.__file__).resolve().parent
    found = _uncalled_definitions(root)
    names = {hit.rsplit(":", 1)[1] for hit in found}
    assert names - set(_UNCALLED_ALLOWED) == set(), sorted(
        hit for hit in found if hit.rsplit(":", 1)[1] not in _UNCALLED_ALLOWED
    )
    # An entry whose definition gained a caller (or was deleted) goes too.
    assert set(_UNCALLED_ALLOWED) <= names, sorted(set(_UNCALLED_ALLOWED) - names)


def test_uncalled_scan_flags_a_helper_nothing_names(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def orphan():  # orphan\n    return used()\n\n"
        "class Box:\n    def __repr__(self):\n        return 'Box'\n\n"
        "def prose():\n    return 2\n\n"
        "def formatted():\n    return 3\n"
    )
    (pkg / "b.py").write_text(
        '"""Call :func:`prose` for two."""\n'
        "from . import a\n"
        "from .a import Box  # prose() is named here too\n"
        "LABEL = f\"{a.formatted()}\"\n"
    )
    # Its own def line (comment included) is no caller; dunders are skipped;
    # a docstring or comment naming a definition is no caller, and a call
    # inside an f-string is one.
    assert _uncalled_definitions(pkg) == {"pkg/a.py:4:orphan", "pkg/a.py:11:prose"}
