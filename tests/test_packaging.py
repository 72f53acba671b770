"""Packaging and import-footprint contracts.

SciPy is a test-only dependency: the product (library, CLI, daemon and the
spawn workers that import them) must start without importing it, and the
package metadata must not list it as a runtime requirement.  Every function
and class in the package has a caller in the package's own code or in a
script under ``examples/``, ``benchmarks/`` or ``perfbench/``, every
``__all__`` entry names something its module defines, and every name a
module imports is used.
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

import pytest

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


#: Definitions kept on purpose although no code refers to them, one reason
#: each.  Keep this short: a definition without a caller is deleted, not
#: listed.  A reference oracle stays only while a test holds a product
#: path bit-identical against it; its entry names both.
_UNCALLED_ALLOWED = {
    "_reset_for_tests": "test hook: tests forget the compiled backend's "
                        "cached load attempt to simulate a missing toolchain",
    "conv_transpose1d": "oracle: tests/test_batched_engine.py::"
                        "TestOpRunsEquivalence::"
                        "test_conv_transpose_runs_with_bias holds "
                        "ops.conv_transpose_runs (nd=1) bit-identical to it",
    "conv_transpose2d": "oracle: tests/test_batched_engine.py::"
                        "TestOpRunsEquivalence::"
                        "test_conv_transpose_runs holds "
                        "ops.conv_transpose_runs (nd=2) bit-identical to it",
    "scatter_reduce_variability": "oracle: tests/test_batched_engine.py::"
                                  "TestSweepVariability::"
                                  "test_pooled_matches_per_cell_bitwise holds "
                                  "the pooled _opruns.sweep_run_payloads "
                                  "bit-identical to it, cell by cell",
    "gradcheck": "oracle: tests/test_tensor_autograd.py::TestGradcheck holds "
                 "the Tensor backward (matmul, relu, mul, sum) the GNN "
                 "training path runs against finite differences",
}

#: Directories beside ``src`` whose scripts count as callers.  ``tests/``
#: is not one of them: a definition only a test calls has no caller.
_CALLER_DIRS = ("examples", "benchmarks", "perfbench")


def _code_references(tree: ast.AST) -> Counter:
    """Names a module's code refers to: ``Name`` ids and ``Attribute``
    attrs (f-string bodies included).  An import alias, an ``__all__``
    string, a docstring or a comment is not code that calls anything."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def _uncalled_definitions(package: Path, project: Path) -> set[str]:
    """Functions and classes under ``package`` that no code names: neither
    the package's own code nor a script under ``project``'s
    :data:`_CALLER_DIRS` (:func:`_code_references`; dunders skipped)."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))}
    callers = [
        ast.parse(path.read_text())
        for name in _CALLER_DIRS
        for path in sorted((project / name).rglob("*.py"))
    ]
    refs = sum((_code_references(tree) for tree in [*trees.values(), *callers]), Counter())
    found = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not refs[name]:
                found.add(f"{path.relative_to(package.parent)}:{node.lineno}:{name}")
    return found


def test_every_definition_has_a_caller():
    found = _uncalled_definitions(Path(repro.__file__).resolve().parent, ROOT)
    names = {hit.rsplit(":", 1)[1] for hit in found}
    assert names - set(_UNCALLED_ALLOWED) == set(), sorted(
        hit for hit in found if hit.rsplit(":", 1)[1] not in _UNCALLED_ALLOWED
    )
    # An entry whose definition gained a caller (or was deleted) goes too.
    assert set(_UNCALLED_ALLOWED) <= names, sorted(set(_UNCALLED_ALLOWED) - names)


def test_uncalled_scan_flags_a_helper_nothing_names(tmp_path):
    pkg = tmp_path / "pkg"
    for folder in ("tests", *_CALLER_DIRS):
        (tmp_path / folder).mkdir()
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .a import reexported\n"
        '__all__ = ["listed", "reexported"]\n'
    )
    (pkg / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def orphan():  # orphan\n    return used()\n\n"
        "class Box:\n    def __repr__(self):\n        return 'Box'\n\n"
        "def prose():\n    return 2\n\n"
        "def formatted():\n    return 3\n\n"
        "def listed():\n    return 4\n\n"
        "def reexported():\n    return 5\n\n"
        "def tested():\n    return 6\n\n"
        "def example_api():\n    return 7\n\n"
        "def bench_api():\n    return 8\n\n"
        "def perf_api():\n    return 9\n"
    )
    (pkg / "b.py").write_text(
        '"""Call :func:`prose` for two."""\n'
        "from . import a\n"
        "from .a import Box  # prose() is named here too\n"
        "LABEL = f\"{a.formatted()}\"\n"
        "BOXES = [Box]\n"
    )
    (tmp_path / "tests" / "test_a.py").write_text(
        "from pkg.a import tested\n\ndef test_it():\n    assert tested() == 6\n"
    )
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg import a\n\nprint(a.example_api())\n"
    )
    (tmp_path / "benchmarks" / "test_speed.py").write_text(
        "from pkg.a import bench_api\n\nbench_api()\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text(
        "import pkg.a\n\nprint(pkg.a.perf_api())\n"
    )
    # Its own def line (comment included) is no caller; dunders are skipped;
    # a docstring, a comment, an ``__all__`` string or an import alias
    # naming a definition is no caller, and neither is a test; a call inside
    # an f-string is one, and so is a call from an example, a benchmark or
    # a perfbench script.
    assert _uncalled_definitions(pkg, tmp_path) == {
        "pkg/a.py:4:orphan",
        "pkg/a.py:11:prose",
        "pkg/a.py:17:listed",
        "pkg/a.py:20:reexported",
        "pkg/a.py:23:tested",
    }


def _dead_imports(package: Path) -> set[str]:
    """Names a module under ``package`` imports and never uses.

    A name is used when it appears as an AST ``Name`` in its module's code
    or is listed in the module's ``__all__``; an import statement marked
    ``# noqa: F401`` (an import run for its side effect, such as
    registering experiments) is exempt.
    """
    found = set()
    for path in sorted(package.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.add(f"{path.relative_to(package.parent)}:{node.lineno}:{bound}")
    return found


def test_every_import_is_used():
    assert _dead_imports(Path(repro.__file__).resolve().parent) == set()


def test_dead_import_scan_flags_an_unused_name(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from . import registered  # noqa: F401\n"
        "from .a import exported, dropped\n"
        '__all__ = ["exported"]\n'
    )
    (pkg / "registered.py").write_text("")
    (pkg / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import (\n    dataclass,\n    field,\n)\n"
        "from json import dumps as _dumps\n\n"
        "exported = dropped = None\n\n"
        "@dataclass\nclass Box:\n    label: str = _dumps(os.path.sep)\n"
        "    # np and field are named only in this comment\n"
    )
    # A name used in code (a decorator, a default, the root of a dotted
    # import) or listed in ``__all__`` is used, and a noqa-marked import is
    # exempt; a name only a comment mentions is not used.
    assert _dead_imports(pkg) == {
        "pkg/__init__.py:2:dropped",
        "pkg/a.py:4:np",
        "pkg/a.py:5:field",
    }


def _repro_modules() -> list[str]:
    package = Path(repro.__file__).resolve().parent
    return sorted(
        ".".join(("repro", *path.relative_to(package).with_suffix("").parts))
        .removesuffix(".__init__")
        for path in package.rglob("*.py")
        if path.name != "__main__.py"
    )


@pytest.mark.parametrize("name", _repro_modules())
def test_all_entries_resolve_and_are_unique(name):
    # The caller scan ignores ``__all__``: a string left behind by a
    # deletion would otherwise surface only on ``import *``.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [e for e in exported if not hasattr(module, e)] == []
    assert [e for e, n in Counter(exported).items() if n > 1] == []
