"""End-to-end integration tests across subsystems.

These mirror the paper's narrative arcs: correctness-testing breakage
(SIII), determinism switches on a full model (SV), and the
GPU-vs-deterministic-hardware comparison (SIV/SV).
"""

import numpy as np
import pytest

import repro
from repro.fp import exact_sum
from repro.graph import cora_like
from repro.lpu import LPUExecutor, Program
from repro.nn import Adam, GraphSAGE, functional as F
from repro.ops import index_add
from repro.runtime import RunContext
from repro.tensor import Tensor, use_kernel_stream


class TestCorrectnessTestingScenario:
    """A CP2K-style tolerance test harness confronted with FPNA (SIII)."""

    TOLERANCE = 1e-14  # the paper quotes CP2K energy tolerances this tight

    def test_deterministic_pipeline_passes_threshold_testing(self, ctx):
        x = ctx.data().standard_normal(1_000_000)
        sptr = repro.get_reduction("sptr", threads_per_block=128)
        reference = sptr.sum(x)
        for _ in range(3):
            assert abs(sptr.sum(x) - reference) <= self.TOLERANCE * abs(reference)

    def test_nondeterministic_pipeline_can_fail_threshold_testing(self, ctx):
        x = ctx.data().standard_normal(1_000_000)
        spa = repro.get_reduction("spa", threads_per_block=64)
        reference = spa.sum(x, ctx=ctx)
        deviations = [
            abs(spa.sum(x, ctx=ctx) - reference) for _ in range(20)
        ]
        # Relative deviations overlap the correctness-test tolerance scale.
        rel = max(deviations) / max(abs(reference), 1e-300)
        assert rel > 1e-16  # bit-level motion exists
        assert max(deviations) > 0

    def test_exact_sum_restores_reproducibility(self, ctx):
        x = ctx.data().standard_normal(100_000)
        vals = {exact_sum(ctx.scheduler().permutation(x.size) * 0 + x) for _ in range(3)}
        assert len(vals) == 1


class TestEndToEndGnnPipeline:
    """Train + infer under each determinism mode (paper SV)."""

    @pytest.fixture(scope="class")
    def ds(self):
        return cora_like(num_nodes=150, num_edges=300, num_features=24,
                         num_classes=5, ctx=RunContext(0))

    def _train(self, ds, ctx, deterministic, epochs=3):
        from repro.config import deterministic_mode

        model = GraphSAGE(24, 8, 5, rng=ctx.init(stream=1))
        opt = Adam(model.parameters(), lr=0.01)
        x = Tensor(ds.features)
        idx = np.flatnonzero(ds.train_mask)
        # One training run draws one stream from this context (the
        # one-stream-per-run contract), so the draws do not depend on what
        # earlier tests left in the process-wide default context.
        with deterministic_mode(deterministic), use_kernel_stream(ctx.scheduler()):
            for _ in range(epochs):
                opt.zero_grad()
                out = model(x, ds.graph.edge_index)
                F.nll_loss(out.gather_rows(idx), ds.labels[idx]).backward()
                opt.step()
        return model

    def test_deterministic_training_is_bitwise_reproducible(self, ds):
        ctx = RunContext(1)
        w1 = self._train(ds, ctx, True).flat_weights()
        w2 = self._train(ds, ctx, True).flat_weights()
        np.testing.assert_array_equal(w1, w2)

    def test_nondeterministic_training_diverges(self, ds):
        ctx = RunContext(1)
        weights = [self._train(ds, ctx, False).flat_weights().tobytes() for _ in range(3)]
        assert len(set(weights)) > 1

    def test_identical_inits_before_divergence(self, ds):
        ctx = RunContext(1)
        m1 = GraphSAGE(24, 8, 5, rng=ctx.init(stream=1))
        m2 = GraphSAGE(24, 8, 5, rng=ctx.init(stream=1))
        np.testing.assert_array_equal(m1.flat_weights(), m2.flat_weights())

    def test_losses_converge_despite_bit_divergence(self, ds):
        # The paper: all 1000 models converge to similar loss values while
        # being bitwise unique.
        ctx = RunContext(1)
        models = [self._train(ds, ctx, False, epochs=5) for _ in range(3)]
        with repro.deterministic_mode():
            losses = []
            x = Tensor(ds.features)
            for m in models:
                out = m(x, ds.graph.edge_index)
                losses.append(F.nll_loss(out, ds.labels).item())
        assert np.ptp(losses) < 0.05


class TestGpuVsLpuComparison:
    def test_same_math_deterministic_on_lpu_variable_on_gpu(self, ctx, rng):
        idx = rng.integers(0, 64, 4096)
        src = rng.standard_normal((4096, 8)).astype(np.float32)
        inp = rng.standard_normal((64, 8)).astype(np.float32)

        from repro.ops.nondet import ContentionModel

        force = ContentionModel(q0=1.0, gamma=0.0, n0=1e-9)
        gpu_outs = {
            index_add(inp, 0, idx, src, model=force, ctx=ctx).tobytes() for _ in range(5)
        }
        assert len(gpu_outs) > 1

        prog = Program()
        prog.op(
            "agg", "index_add", n_elements=src.size,
            fn=lambda env: index_add(inp, 0, idx, src),
        )
        ex = LPUExecutor()
        lpu_outs = {ex.run(prog)[0].tobytes() for _ in range(5)}
        assert len(lpu_outs) == 1

    def test_lpu_runtime_is_a_fixed_number(self):
        prog = Program()
        prog.op("agg", "index_add", n_elements=1_000_000, fn=lambda env: 0)
        ex = LPUExecutor()
        times = {ex.run(prog)[1].runtime_us for _ in range(3)}
        assert len(times) == 1


class TestReproducibilityContract:
    """The library-level promise: everything is replayable from a seed."""

    def test_full_experiment_replay(self):
        from repro.experiments import get_experiment

        a = get_experiment("fig4").run(ctx=RunContext(11), ratios=(0.5,), n_runs=10)
        b = get_experiment("fig4").run(ctx=RunContext(11), ratios=(0.5,), n_runs=10)
        assert a.rows == b.rows

    def test_different_seeds_different_nd_results(self):
        from repro.experiments import get_experiment

        a = get_experiment("fig4").run(ctx=RunContext(1), ratios=(0.5,), n_runs=10)
        b = get_experiment("fig4").run(ctx=RunContext(2), ratios=(0.5,), n_runs=10)
        assert a.rows != b.rows

    def test_deterministic_kernels_seed_independent(self, rng):
        idx = rng.integers(0, 10, 100)
        src = rng.standard_normal((100, 3)).astype(np.float32)
        inp = np.zeros((10, 3), np.float32)
        a = index_add(inp, 0, idx, src, deterministic=True, ctx=RunContext(1))
        b = index_add(inp, 0, idx, src, deterministic=True, ctx=RunContext(999))
        np.testing.assert_array_equal(a, b)
