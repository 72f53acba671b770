"""Bench E-BE: fold primitives and end-to-end ``run-all``, numpy vs
compiled backend (BENCH_0006).

Every benchmark in this file runs once per compute backend (the
``backend`` fixture parametrizes the test id, so pytest-benchmark records
``test_x[numpy]`` and ``test_x[compiled]`` as separate means).  The
compiled library is built and first-touched inside the fixture — before
the measured rounds — so one-time compilation/dlopen cost never pollutes
a mean (the JIT-pollution guard the perf-trajectory protocol requires;
``benchmarks/save_baseline.py`` additionally pre-builds in a separate
process before launching pytest).

Micro-benches cover the fold primitives at sizes where the run axis
dominates.  ``permuted_sums`` and ``batched_atomic_fold`` run on the
sequential-fold kernel and ``SegmentPlan.fold_runs_sparse`` on the
raced-segment re-fold kernel (its canonical fold is NumPy's on both
legs); ``batched_tree_fold`` and ``cumsum_runs`` have no kernel, so their
``[compiled]`` legs time the NumPy engine (CI gates only
``batched_tree_fold[numpy]``).  The
end-to-end bench replays the
pinned ``run-all`` workload of ``test_runall_workers.py`` serially under
each backend.  Bit-exactness across backends is not a bench concern (it
is pinned by ``tests/test_backend.py`` and the both-backend golden runs),
but each micro-bench asserts a cheap shape invariant so it can never
silently measure a diverged path.
"""

import numpy as np
import pytest

from repro import backend as repro_backend
from repro.experiments import get_experiment
from repro.fp.summation import batched_tree_fold, permuted_sums
from repro.gpusim.atomics import batched_atomic_fold
from repro.ops.cumsum import cumsum_runs
from repro.ops.nondet import ContentionModel
from repro.ops.segmented import SegmentPlan
from repro.runtime import RunContext

from conftest import run_once
from test_runall_workers import WORKLOAD


@pytest.fixture(params=["numpy", "compiled"])
def backend(request):
    """Select (and warm) one compute backend for the measured rounds."""
    mode = request.param
    if mode == "compiled" and not repro_backend.compiled_available():
        pytest.skip(
            f"compiled backend unavailable: {repro_backend.availability_error()}"
        )
    with repro_backend.use_backend(mode):
        repro_backend.warm_up()  # build/dlopen/first-touch outside the timing
        yield mode


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def test_permuted_sums(benchmark, backend, rng):
    x = rng.standard_normal(2_000)
    perms = np.stack([rng.permutation(2_000) for _ in range(600)])
    out = benchmark(permuted_sums, x, perms)
    assert out.shape == (600,)


def test_batched_tree_fold(benchmark, backend, rng):
    mat = rng.standard_normal((400, 4_000))
    out = benchmark(batched_tree_fold, mat)
    assert out.shape == (400,)


def test_batched_atomic_fold(benchmark, backend, rng):
    x = rng.standard_normal(2_000)
    orders = np.stack([rng.permutation(2_000) for _ in range(600)])
    out = benchmark(batched_atomic_fold, x, orders)
    assert out.shape == (600,)


def test_cumsum_runs(benchmark, backend, rng):
    x = rng.standard_normal(200_000)

    def run():
        return cumsum_runs(x, n_runs=12, ctx=RunContext(seed=0))

    outs = benchmark(run)
    assert len(outs) == 12 and outs[0].shape == x.shape


def test_segment_fold_runs_sparse(benchmark, backend, rng):
    idx = rng.integers(0, 5_000, size=60_000)
    plan = SegmentPlan(idx, 5_000)
    vals = rng.standard_normal(60_000)
    model = ContentionModel(q0=0.5, gamma=0.0, n0=1.0)
    draws = plan.sample_run_draws(40, model, RunContext(seed=0))
    out = benchmark(plan.fold_runs_sparse, vals, draws)
    assert out.shape == (40, 5_000)


def test_runall_e2e(benchmark, backend):
    """End-to-end serial ``run-all`` of the pinned workload per backend."""

    def run():
        return {
            eid: get_experiment(eid).run(ctx=RunContext(seed=0), **overrides)
            for eid, overrides in WORKLOAD
        }

    results = run_once(benchmark, run)
    assert set(results) == {eid for eid, _ in WORKLOAD}
