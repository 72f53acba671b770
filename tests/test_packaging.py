"""Packaging and import-footprint contracts.

SciPy is a test-only dependency: the product (library, CLI, daemon and the
spawn workers that import them) must start without importing it, and the
package metadata must not list it as a runtime requirement.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import tomllib
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
