"""Smoke tests: every example script runs to completion and prints its
headline results."""

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Vs" in out and "unique outputs = 10" in out
    assert "unique outputs = 1" in out  # after the determinism switch


def test_correctness_testing():
    out = run_example("correctness_testing.py")
    assert "PASS" in out and "noise floor" in out
    # The deterministic column never goes flaky.
    for line in out.splitlines():
        if "|" in line and "deterministic" not in line:
            cells = [c.strip() for c in line.split("|")]
            if len(cells) == 3 and cells[1].startswith(("PASS", "FAIL", "FLAKY")):
                assert "FLAKY" not in cells[1]


def test_gnn_cora():
    out = run_example("gnn_cora.py", "--models", "3", "--epochs", "2", "--nodes", "150")
    assert "bitwise unique: True" in out
    assert "test accuracy" in out


def test_deterministic_hardware():
    out = run_example("deterministic_hardware.py")
    assert "1 distinct bit pattern" in out
    assert "static schedule" in out


def test_openmp_reductions():
    out = run_example("openmp_reductions.py")
    assert "ordered" in out
    assert "ring" in out


def test_cg_error_accumulation():
    out = run_example("cg_error_accumulation.py")
    assert "3 runs bitwise identical: True" in out
    # Growth is measured from the first iteration where the runs diverge,
    # never from an exact 0.
    growth = re.search(r"divergence grew ([^x]+)x from iteration (\d+)", out)
    assert growth is not None, out
    assert math.isfinite(float(growth[1])) and float(growth[1]) < 1e6


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "correctness_testing.py",
        "gnn_cora.py",
        "deterministic_hardware.py",
        "openmp_reductions.py",
        "cg_error_accumulation.py",
    ],
)
def test_examples_have_docstrings(name):
    text = (EXAMPLES / name).read_text()
    assert text.startswith("#!/usr/bin/env python")
    assert '"""' in text
