"""Golden regression pins for the batched-engine experiments.

Each pinned experiment regenerates its dev-scale rows from a fixed-seed
context and must reproduce the recorded SHA-256 of the canonical JSON
serialisation **exactly** — any bit-level drift in the batched run-axis
engine (fold orders, RNG draw sequence, summary statistics) shows up here
as a hash mismatch, pointing at the experiment whose semantics moved.

The hashes were captured when the batched cumsum/OpenMP/CG/sweep engines
landed, on the CI container (the cgdiv pins go through LAPACK ``qr`` and
BLAS GEMV, so exotic BLAS builds could legitimately differ — if a pin
fails with an otherwise green ``tests/test_batched_engine.py``, suspect
the platform first, then the engine).  The table7/table8 pins were
captured when the GNN training stack moved onto the run-batched engine —
they record the one-stream-per-training-run draw contract (scalar
``train_graphsage`` / ``run_inference`` pin one context stream per run
instead of drawing one per kernel call, and the kernels now draw from the
experiment's context rather than the process default), so pre-engine GNN
bits legitimately differ.  The fig2/maxvs/table8 pins were captured when
those experiments moved onto the sharded run-axis protocol and record the
*pre-existing* serial bits (the move was verified bit-preserving); the
figS1 pin records the device-plane anchoring contract (one anchored
stream per (device, array) cell instead of a shared sequential ladder —
see :mod:`repro.gpusim.scheduler`), so pre-anchoring figS1 bits
legitimately differ.  The collsweep pin records the collective layer's
per-(run, edge) delay cells and per-(device, run) rank-partial planes
(:mod:`repro.gpusim.collectives`) together with the deterministic
in-order topology-equivalence flag in ``extra``.

Regenerating after an intentional semantic change::

    PYTHONPATH=src python tests/test_golden_experiments.py

prints the current hashes to paste below.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import get_experiment
from repro.runtime import RunContext

#: Dev-scale overrides keeping the pins fast (< ~0.5 s total).
_OVERRIDES: dict[str, dict] = {
    "fig2": {"n_runs": 60, "n_arrays": 2},
    "fig3": {"n_runs": 8},
    "fig4": {"n_runs": 10},
    "fig5": {"n_runs": 10},
    "figS1": {"n_elements": 4_000, "n_arrays": 2, "n_runs": 24},
    "maxvs": {"sizes": (1_000, 4_000), "n_arrays": 2, "n_runs": 40},
    "cgdiv": {"n": 80, "n_runs": 3, "n_iter": 12},
    "warpsweep": {"n_elements": 1_024, "n_arrays": 2, "n_runs": 24},
    "seedens": {"seeds": (0, 1), "devices": ("v100", "lpu"),
                "n_elements": 2_000, "n_arrays": 2, "n_runs": 12},
    "collsweep": {"devices": ("v100", "gh200", "cpu"),
                  "n_elements": 2_048, "n_runs": 24},
    "table3": {},
    "table7": {"n_models": 4, "epochs": 3},
    "table8": {},
}

GOLDEN_SHA256: dict[str, str] = {
    "cgdiv": "5fccfa4958e04baceac7c1648dee44249ef60e076fd18b62ed2c32333dc30b15",
    "collsweep": "92d6e1cf92031aa0ef5b7e509f7757874042b415ff6c1f59b241116f3bf5f6cb",
    "fig2": "5019c432206a1415b0ae53f86ecc04cf91f0df1acfc7bc228530277d716ca9e9",
    "fig3": "906b14509cd7362d26947ca714681bad6d73d14d27b786879f36b69d2a0d0590",
    "fig4": "d13da4f2b51841b3fd65c0fe3051299ad96c92ebd2243434451dd04c81c79c95",
    "fig5": "7691f3ae4dfbb5fad89e58b1daffe9587289618ec50ca605aebcc1adf1565d4c",
    "figS1": "017979d04f9d869e56f8d4d4cb0df370dfa80d70670a7afaf78d1b373c4fdb95",
    "maxvs": "4483dfe3a4616a6ddf6c3261e7db15dc50f6e87ef5a94e880c284a15826a633d",
    "seedens": "16c7ce14dace22ef076329380a1cda2fa3529aaacb0b333580549734d1759a9f",
    "warpsweep": "1f9bac818c089bb1f3c92156633bbb116aa0091dcfb6ee2179f11ab4094dfb59",
    "table3": "9d096da37ca859d8e7ad9e5278377ea62c44bd01347f1c543115ec214465232a",
    "table7": "e5b4a4509cc195be0e9120e26bf550d8ebe2e37a0e67460fec0b81e8b2e12a05",
    "table8": "f70b41cd224233073b551098c2450eda26e60786a05fbcba19a172d9173bfffc",
}


@pytest.fixture(autouse=True)
def _both_backends(backend):
    """Every pin runs once per compute backend: the golden hashes were
    captured under the NumPy engine, so the compiled leg enforces that the
    compiled kernels reproduce the recorded bits exactly."""


def _digest(experiment_id: str) -> str:
    result = get_experiment(experiment_id).run(
        scale="default", ctx=RunContext(seed=0), **_OVERRIDES[experiment_id]
    )
    doc = {"rows": result.rows, "extra": result.extra}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_SHA256))
def test_golden_rows(experiment_id):
    assert _digest(experiment_id) == GOLDEN_SHA256[experiment_id], (
        f"{experiment_id} rows drifted from the golden pin — the batched "
        "engine no longer reproduces the recorded outputs bit for bit"
    )


def test_ratio_sweep_ids_share_one_module():
    """Figs 4 and 5 are two registrations of one ratio-sweep class: one
    closure root, and each id still reproduces its own pin."""
    fig4, fig5 = get_experiment("fig4"), get_experiment("fig5")
    assert fig4.source_module == fig5.source_module == "repro.experiments.ratio_sweep"
    assert type(fig4) is type(fig5)
    assert _digest("fig4") == GOLDEN_SHA256["fig4"]
    assert _digest("fig5") == GOLDEN_SHA256["fig5"]


if __name__ == "__main__":
    for eid in sorted(GOLDEN_SHA256):
        print(f'    "{eid}": "{_digest(eid)}",')
