"""Batched↔scalar bit-exact equivalence of the run-axis engine.

The batched engine's contract (see ``repro/gpusim/scheduler.py`` and
``repro/fp/summation.py``) is that every batched operation reproduces the
per-run scalar results **bit for bit**: same RNG draws per run (one
scheduler stream each, in run order), same elementwise float32 transforms,
same deterministic sorts.  These tests pin that contract across
algorithms, dtypes (f32/f64), odd sizes (0, 1, non-powers-of-two),
IEEE-754 special values (−0.0, ±inf, NaN payloads) and run-chunk
budgets.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchedulerError, ShapeError
from repro.fp import summation
from repro.fp.summation import (
    batched_tree_fold,
    block_partials,
    block_partials_runs,
    iter_run_chunks,
    permuted_sum,
    permuted_sums,
    tree_fold,
)
from repro.gpusim import (
    LaunchConfig,
    WaveScheduler,
    WaveSchedulerBatch,
    atomic_fold,
    batched_atomic_fold,
    get_device,
)
from repro.openmp import OpenMPRuntime
from repro.ops import (
    conv_transpose1d,
    conv_transpose2d,
    conv_transpose_runs,
    cumsum,
    cumsum_runs,
    index_add,
    index_add_runs,
    scatter_reduce,
    scatter_reduce_runs,
)
from repro.ops.nondet import ContentionModel
from repro.ops.segmented import SegmentPlan
from repro.reductions import get_reduction
from repro.runtime import RunContext
from repro.solvers import conjugate_gradient, conjugate_gradient_runs, spd_test_matrix

SIZES = (0, 1, 7, 64, 1000)
DTYPES = (np.float32, np.float64)


@pytest.fixture(autouse=True)
def _both_backends(backend):
    """Every equivalence property in this file runs once per compute
    backend (see the ``backend`` fixture in ``conftest.py``): the
    batched↔scalar contract must hold under the NumPy engine and under the
    compiled kernels alike — and because the scalar reference paths stay
    on NumPy for sizes outside the compiled envelope, the compiled leg
    also pins compiled-vs-NumPy bit parity."""


@pytest.fixture()
def run_chunk_budget(monkeypatch):
    """Set the engine's per-chunk element budget
    (:data:`repro.fp.summation.DEFAULT_RUN_CHUNK_ELEMENTS`) for one test."""

    def set_budget(elems: int) -> None:
        monkeypatch.setattr(summation, "DEFAULT_RUN_CHUNK_ELEMENTS", elems)

    return set_budget


def bits(a) -> np.ndarray:
    """Integer view of a float array: exact comparison that tells −0.0
    from +0.0 and compares NaN payloads."""
    a = np.asarray(a)
    return a.view(np.int32 if a.dtype == np.float32 else np.int64)


def special_values(rng, n, dtype):
    """Random data salted with −0.0, ±inf and NaN."""
    x = rng.standard_normal(n).astype(dtype)
    if n >= 4:
        x[::4] = -0.0
        x[1] = np.inf
        x[3] = -np.inf
    if n >= 8:
        x[5] = np.nan
    return x


def make_launch(nb=64, tpb=64, device="v100"):
    return LaunchConfig(device=get_device(device), n_blocks=nb, threads_per_block=tpb)


class TestIterRunChunks:
    def test_covers_all_runs_once(self, run_chunk_budget):
        run_chunk_budget(12)  # 4 runs of 3 elements per chunk
        spans = list(iter_run_chunks(10, 3))
        assert spans == [(0, 4), (4, 8), (8, 10)]

    def test_zero_runs(self):
        assert list(iter_run_chunks(0, 5)) == []

    def test_budget_derived_chunk(self):
        spans = list(iter_run_chunks(7, 10**9))
        assert spans == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]


class TestPermutedSums:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_scalar_bitwise(self, dtype, n):
        rng = np.random.default_rng(n + 17)
        x = special_values(rng, n, dtype)
        perms = np.stack([rng.permutation(n) for _ in range(5)]) if n else np.empty((5, 0), dtype=np.int64)
        batched = permuted_sums(x, perms)
        scalar = np.array([permuted_sum(x, p) for p in perms])
        assert np.array_equal(bits(batched), bits(scalar))

    def test_chunking_does_not_change_bits(self, run_chunk_budget):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(33)
        perms = np.stack([rng.permutation(33) for _ in range(9)])
        b = permuted_sums(x, perms)
        run_chunk_budget(2 * 33)
        a = permuted_sums(x, perms)
        np.testing.assert_array_equal(a, b)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeError):
            permuted_sums(np.ones(4), np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ShapeError):
            permuted_sums(np.ones(4), np.arange(4))

    def test_out_of_range_rejected(self):
        perms = np.array([[0, 1, 4]])
        with pytest.raises(ConfigurationError):
            permuted_sums(np.ones(3), perms)


class TestBatchedTreeFold:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_scalar_bitwise(self, dtype, n):
        rng = np.random.default_rng(n + 5)
        mat = np.stack([special_values(rng, n, dtype) for _ in range(6)])
        batched = batched_tree_fold(mat)
        scalar = np.array([tree_fold(row) for row in mat])
        assert np.array_equal(bits(batched), bits(scalar))

    def test_chunked(self, run_chunk_budget):
        mat = np.random.default_rng(1).standard_normal((7, 19)).astype(np.float32)
        whole = batched_tree_fold(mat)
        run_chunk_budget(3 * 32)  # 3 runs of the 32-wide padded tree
        np.testing.assert_array_equal(batched_tree_fold(mat), whole)


class TestBatchedAtomicFold:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", (1, 7, 64, 1000))
    def test_matches_scalar_bitwise(self, dtype, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n).astype(dtype)
        orders = np.stack([rng.permutation(n) for _ in range(4)])
        batched = batched_atomic_fold(x, orders)
        scalar = np.array([atomic_fold(x, o) for o in orders])
        np.testing.assert_array_equal(batched, scalar)

    def test_shape_validation(self):
        with pytest.raises(SchedulerError):
            batched_atomic_fold(np.ones(3), np.zeros((2, 4), dtype=np.int64))

    @pytest.mark.parametrize("bad", ([0, 1, 7], [2, 1, -1], [3, 0, 1]))
    @pytest.mark.parametrize("per_run", (False, True))
    def test_out_of_range_orders_rejected(self, bad, per_run):
        """An order outside ``[0, n)`` is a named error on every backend —
        never a wrapped (NumPy) or out-of-bounds (C) read."""
        vals = np.array([1.0, 2.0, 4.0])
        orders = np.array([[0, 1, 2], bad])
        with pytest.raises(SchedulerError, match="outside"):
            batched_atomic_fold(np.stack([vals, vals]) if per_run else vals, orders)


class TestSchedulerBatchEquivalence:
    """WaveSchedulerBatch row r == fresh WaveScheduler on stream r."""

    @pytest.mark.parametrize("contention", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("nb,tpb", [(1, 32), (5, 64), (100, 48), (313, 64)])
    def test_block_orders(self, nb, tpb, contention):
        launch = make_launch(nb, tpb)
        ca, cb = RunContext(7), RunContext(7)
        batched = WaveSchedulerBatch(launch, ca).block_completion_orders(
            6, contention=contention
        )
        for r in range(6):
            scalar = WaveScheduler(launch, cb.scheduler()).block_completion_order(
                contention=contention
            )
            np.testing.assert_array_equal(batched[r], scalar)

    @pytest.mark.parametrize("contention", (0.0, 1.0))
    @pytest.mark.parametrize(
        "nb,tpb,n",
        [(5, 64, 17), (5, 64, 320), (100, 48, 4000), (4, 33, 130), (2, 32, 64)],
    )
    def test_thread_orders(self, nb, tpb, n, contention):
        launch = make_launch(nb, tpb)
        ca, cb = RunContext(9), RunContext(9)
        batched = WaveSchedulerBatch(launch, ca).thread_retirement_orders(
            5, n, contention=contention
        )
        for r in range(5):
            scalar = WaveScheduler(launch, cb.scheduler()).thread_retirement_order(
                n, contention=contention
            )
            np.testing.assert_array_equal(batched[r], scalar)
            assert sorted(batched[r].tolist()) == list(range(n))

    def test_block_arrival_times(self):
        launch = make_launch(37, 64)
        ca, cb = RunContext(2), RunContext(2)
        batched = WaveSchedulerBatch(launch, ca).block_arrival_times_batch(4, 0.3)
        for r in range(4):
            scalar = WaveScheduler(launch, cb.scheduler()).block_arrival_times(0.3)
            np.testing.assert_array_equal(batched[r], scalar)

    def test_warp_orders_expand_to_thread_orders(self):
        # warp-granular fast path == element orders, warp-aligned geometry
        launch = make_launch(10, 64)
        n = 640
        ca, cb = RunContext(4), RunContext(4)
        warp = launch.device.warp_size
        worders = WaveSchedulerBatch(launch, ca).thread_retirement_warp_orders(5, n)
        eorders = WaveSchedulerBatch(launch, cb).thread_retirement_orders(5, n)
        for r in range(5):
            expanded = (worders[r][:, None] * warp + np.arange(warp)).ravel()
            np.testing.assert_array_equal(expanded, eorders[r])

    def test_warp_orders_reject_misaligned(self):
        launch = make_launch(10, 48)  # tpb not a multiple of 32
        with pytest.raises(SchedulerError):
            WaveSchedulerBatch(launch, RunContext(0)).thread_retirement_warp_orders(3, 96)
        launch = make_launch(10, 64)
        with pytest.raises(SchedulerError):
            WaveSchedulerBatch(launch, RunContext(0)).thread_retirement_warp_orders(3, 70)

    def test_chunking_preserves_bits(self, run_chunk_budget):
        launch = make_launch(29, 64)

        def sample():
            batch = WaveSchedulerBatch(launch, RunContext(6))
            return (
                batch.block_completion_orders(7),
                batch.thread_retirement_orders(5, 1000),
                batch.thread_retirement_warp_orders(5, 960),
            )

        whole = sample()
        run_chunk_budget(1)  # one run per chunk
        for a, b in zip(sample(), whole):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_device(self):
        import repro.lpu  # registers the lpu device  # noqa: F401

        launch = LaunchConfig(device=get_device("lpu"), n_blocks=4, threads_per_block=1)
        orders = WaveSchedulerBatch(launch, RunContext(0)).block_completion_orders(3)
        np.testing.assert_array_equal(orders[0], orders[1])
        np.testing.assert_array_equal(orders[1], orders[2])

    def test_zero_runs(self):
        launch = make_launch(16, 64)
        batch = WaveSchedulerBatch(launch, RunContext(0))
        assert batch.block_arrival_times_batch(0).shape == (0, 16)
        assert batch.block_completion_orders(0).shape == (0, 16)
        assert batch.thread_retirement_orders(0, 100).shape == (0, 100)

    def test_runs_apis_return_independent_arrays(self):
        rng = np.random.default_rng(2)
        idx = rng.integers(0, 10, 40)
        src = rng.standard_normal(40).astype(np.float32)
        inp = rng.standard_normal(10).astype(np.float32)
        outs = scatter_reduce_runs(inp, 0, idx, src, "sum", 3, ctx=RunContext(1))
        assert all(o.base is None for o in outs)

    def test_capacity_validation(self):
        launch = make_launch(2, 64)
        with pytest.raises(SchedulerError):
            WaveSchedulerBatch(launch, RunContext(0)).thread_retirement_orders(2, 1000)
        with pytest.raises(SchedulerError):
            WaveSchedulerBatch(launch, RunContext(0)).thread_retirement_orders(2, 0)


def _run_order(plan: SegmentPlan, draws, r: int) -> np.ndarray:
    """Run ``r``'s scalar fold order: :meth:`SegmentPlan.source_order`'s
    rank keys with that run's raced segments re-keyed from ``draws``."""
    keys = plan.ranks.astype(np.float64)
    offsets = draws.key_offsets()
    for s in np.flatnonzero(draws.runs == r):
        lo = plan.segment_starts[draws.targets[s]]
        keys[lo : lo + draws.counts[s]] = draws.keys[offsets[s] : offsets[s] + draws.counts[s]]
    return plan.order[np.lexsort((keys, plan.sorted_targets))]


def _raced_plan(n: int, t: int, seed: int, n_runs: int):
    """A plan whose multi-hit targets race often, and one batch of draws."""
    plan = SegmentPlan(np.random.default_rng(seed).integers(0, t, n), t)
    model = ContentionModel(q0=0.9, gamma=0.0, n0=1.0)
    return plan, plan.sample_run_draws(n_runs, model, RunContext(seed))


class TestSegmentPlanBatchedFolds:
    """``fold_runs_sparse`` (shared values) and ``fold_runs_values``
    (per-run values) against one scalar :meth:`SegmentPlan.fold` per run,
    in the order its draws give."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("reduce", ("sum", "prod", "amax", "amin"))
    def test_sparse_matches_scalar_bitwise(self, dtype, reduce):
        plan, draws = _raced_plan(60, 11, 3, 5)
        assert draws.targets.size  # the batch races
        vals = special_values(np.random.default_rng(4), 60, dtype)
        batched = plan.fold_runs_sparse(vals, draws, reduce=reduce)
        for r in range(5):
            scalar = plan.fold(vals, order=_run_order(plan, draws, r), reduce=reduce)
            assert np.array_equal(bits(batched[r]), bits(scalar))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("reduce", ("sum", "prod", "amax", "amin"))
    def test_per_run_values_match_scalar_bitwise(self, dtype, reduce):
        plan, draws = _raced_plan(60, 11, 5, 5)
        assert draws.targets.size
        rng = np.random.default_rng(6)
        vals = np.stack([special_values(rng, 60, dtype) for _ in range(5)])
        batched = plan.fold_runs_values(vals, draws, reduce=reduce)
        for r in range(5):
            scalar = plan.fold(vals[r], order=_run_order(plan, draws, r), reduce=reduce)
            assert np.array_equal(bits(batched[r]), bits(scalar))

    def test_sparse_with_init_and_payload(self):
        plan, draws = _raced_plan(30, 9, 8, 3)
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((30, 4)).astype(np.float32)
        init = rng.standard_normal((9, 4)).astype(np.float32)
        batched = plan.fold_runs_sparse(vals, draws, init=init)
        for r in range(3):
            scalar = plan.fold(vals, order=_run_order(plan, draws, r), init=init)
            assert np.array_equal(bits(batched[r]), bits(scalar))

    def test_per_run_values_with_init_and_payload(self, run_chunk_budget):
        plan, draws = _raced_plan(30, 9, 9, 3)
        rng = np.random.default_rng(9)
        vals = rng.standard_normal((3, 30, 4)).astype(np.float32)
        init = rng.standard_normal((9, 4)).astype(np.float32)
        run_chunk_budget(2 * 9 * (plan.k_max + 1) * 4)  # 2 runs per chunk
        batched = plan.fold_runs_values(vals, draws, init=init)
        for r in range(3):
            scalar = plan.fold(vals[r], order=_run_order(plan, draws, r), init=init)
            assert np.array_equal(bits(batched[r]), bits(scalar))

    def test_segment_accessors(self):
        idx = np.array([2, 0, 2, 1, 2])
        plan = SegmentPlan(idx, 4)
        np.testing.assert_array_equal(plan.segment_starts, [0, 1, 2, 5])
        np.testing.assert_array_equal(plan.segment_ends, [1, 2, 5, 5])
        # last source position of each non-empty segment, in sorted order
        has = plan.counts > 0
        last = plan.order[plan.segment_ends[has] - 1]
        assert set(last.tolist()) <= set(range(5))


class TestOpRunsEquivalence:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_scatter_reduce_runs(self, dtype):
        rng = np.random.default_rng(12)
        n, t = 400, 80
        idx = rng.integers(0, t, n)
        src = rng.standard_normal(n).astype(dtype)
        inp = rng.standard_normal(t).astype(dtype)
        plan = SegmentPlan(idx, t)
        ca, cb = RunContext(21), RunContext(21)
        batched = scatter_reduce_runs(inp, 0, idx, src, "sum", 6, plan=plan, ctx=ca)
        for r in range(6):
            scalar = scatter_reduce(
                inp, 0, idx, src, "sum", plan=plan, ctx=cb, deterministic=False
            )
            np.testing.assert_array_equal(batched[r], scalar)

    def test_scatter_reduce_runs_mean_no_self(self):
        rng = np.random.default_rng(13)
        n, t = 120, 30
        idx = rng.integers(0, t, n)
        src = rng.standard_normal((n, 3)).astype(np.float32)
        inp = rng.standard_normal((t, 3)).astype(np.float32)
        ca, cb = RunContext(5), RunContext(5)
        batched = scatter_reduce_runs(
            inp, 0, idx, src, "mean", 4, include_self=False, ctx=ca
        )
        for r in range(4):
            scalar = scatter_reduce(
                inp, 0, idx, src, "mean", include_self=False, ctx=cb,
                deterministic=False,
            )
            np.testing.assert_array_equal(batched[r], scalar)

    def test_index_add_runs(self):
        rng = np.random.default_rng(31)
        n, t = 90, 40
        idx = rng.integers(0, t, n)
        src = rng.standard_normal((n, 8)).astype(np.float32)
        inp = rng.standard_normal((t, 8)).astype(np.float32)
        plan = SegmentPlan(idx, t)
        ca, cb = RunContext(33), RunContext(33)
        batched = index_add_runs(inp, 0, idx, src, 5, plan=plan, ctx=ca)
        for r in range(5):
            scalar = index_add(
                inp, 0, idx, src, plan=plan, ctx=cb, deterministic=False
            )
            np.testing.assert_array_equal(batched[r], scalar)

    def test_conv_transpose_runs(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((3, 4, 3, 3)).astype(np.float32)
        ca, cb = RunContext(51), RunContext(51)
        ref, outs = conv_transpose_runs(x, w, nd=2, n_runs=5, stride=2, padding=1, ctx=ca)
        ref_scalar = conv_transpose2d(x, w, stride=2, padding=1, deterministic=True)
        np.testing.assert_array_equal(ref, ref_scalar)
        for r in range(5):
            scalar = conv_transpose2d(
                x, w, stride=2, padding=1, deterministic=False, ctx=cb
            )
            np.testing.assert_array_equal(outs[r], scalar)

    def test_conv_transpose_runs_with_bias(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((1, 2, 5)).astype(np.float32)
        w = rng.standard_normal((2, 3, 4)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        ca, cb = RunContext(3), RunContext(3)
        ref, outs = conv_transpose_runs(x, w, nd=1, n_runs=3, bias=b, stride=3, ctx=ca)
        for r in range(3):
            scalar_out = conv_transpose1d(
                x, w, bias=b, stride=3, deterministic=False, ctx=cb
            )
            np.testing.assert_array_equal(outs[r], scalar_out)


class TestCumsumRuns:
    """cumsum_runs row == scalar cumsum ND call on the same context."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "shape,dim",
        [((0,), 0), ((1,), 0), ((97,), 0), ((1000,), 0), ((4000,), 0),
         ((7, 130), 1), ((7, 130), 0), ((3, 4, 300), 2)],
    )
    def test_matches_scalar_bitwise(self, dtype, shape, dim):
        rng = np.random.default_rng(sum(shape) + dim)
        x = rng.standard_normal(shape).astype(dtype)
        ca, cb = RunContext(11), RunContext(11)
        batched = cumsum_runs(x, dim, 7, ctx=ca)
        for r in range(7):
            scalar = cumsum(x, dim, deterministic=False, ctx=cb)
            np.testing.assert_array_equal(batched[r], scalar)
        assert ca.peek_run_counter() == cb.peek_run_counter()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("chunk", (1, 2, 30, 31, 32, 4096))
    def test_blocked_scan_special_values_bitwise(self, dtype, chunk):
        """The row-batched blocked scan against a per-row, per-chunk
        sequential reference: −0.0 keeps its sign in chunk 0 and ±inf/NaN
        propagate with the same operand order, bit for bit."""
        rng = np.random.default_rng(chunk)
        mat = np.stack([special_values(rng, 31, dtype) for _ in range(3)])
        got = cumsum(mat, 1, deterministic=False, chunk_ladder=(chunk,), ctx=RunContext(0))
        for row, out in zip(mat, got):
            scans = [np.add.accumulate(row[lo : lo + chunk]) for lo in range(0, 31, chunk)]
            offsets = np.add.accumulate(np.array([s[-1] for s in scans]))
            ref = np.concatenate(
                [scans[0]] + [s + off for s, off in zip(scans[1:], offsets)]
            )
            assert np.array_equal(bits(out), bits(ref))

    def test_n_below_every_chunk_is_stable(self):
        # n smaller than the smallest ladder entry: every chunk choice is
        # the strict serial scan, so all runs agree bitwise.
        x = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        outs = cumsum_runs(x, 0, 6, ctx=RunContext(0))
        assert len({o.tobytes() for o in outs}) == 1

    def test_negative_zero_chunk0_pristine(self):
        # Chunk 0 receives no offset add, so a -0.0 prefix keeps its sign.
        x = np.full(300, -0.0)
        outs = cumsum_runs(x, 0, 8, ctx=RunContext(3))
        for o in outs:
            assert np.signbit(o[:128]).all()

    def test_outputs_independent(self):
        x = np.random.default_rng(1).standard_normal(600)
        outs = cumsum_runs(x, 0, 4, ctx=RunContext(1))
        assert all(o.base is None for o in outs)
        outs[0][:] = 0  # must not alias any other run
        assert not np.array_equal(outs[0], outs[1])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            cumsum_runs(np.ones(4), 0, 3, chunk_ladder=(), ctx=RunContext(0))
        with pytest.raises(ConfigurationError):
            cumsum_runs(np.ones(4), 0, -1, ctx=RunContext(0))
        with pytest.raises(ShapeError):
            cumsum_runs(np.float64(3.0), 0, 2, ctx=RunContext(0))

    @pytest.mark.slow
    def test_large_input_matches_scalar(self):
        x = np.random.default_rng(5).standard_normal(100_000).astype(np.float32)
        ca, cb = RunContext(5), RunContext(5)
        batched = cumsum_runs(x, 0, 12, ctx=ca)
        for r in range(12):
            np.testing.assert_array_equal(
                batched[r], cumsum(x, deterministic=False, ctx=cb)
            )


class TestOpenMPReduceManyBatch:
    """reduce_many trial == scalar reduce_sum call on the same context."""

    @pytest.mark.parametrize(
        "schedule,chunk",
        [("static", None), ("static", 7), ("dynamic", None), ("dynamic", 3),
         ("guided", None), ("guided", 5)],
    )
    def test_matches_scalar_bitwise(self, schedule, chunk):
        x = np.random.default_rng(2).standard_normal(5_000)
        ca, cb = RunContext(9), RunContext(9)
        rta = OpenMPRuntime(num_threads=8, schedule=schedule, chunk=chunk, ctx=ca)
        rtb = OpenMPRuntime(num_threads=8, schedule=schedule, chunk=chunk, ctx=cb)
        batched = rta.reduce_many(x, 9)
        scalar = np.array([rtb.reduce_sum(x) for _ in range(9)])
        np.testing.assert_array_equal(batched, scalar)
        assert ca.peek_run_counter() == cb.peek_run_counter()

    def test_ordered_is_constant_and_consumes_no_streams(self):
        x = np.random.default_rng(3).standard_normal(10_000)
        ctx = RunContext(1)
        rt = OpenMPRuntime(num_threads=8, ctx=ctx)
        vals = rt.reduce_many(x, 5, ordered=True)
        assert len(set(vals.tolist())) == 1
        assert ctx.peek_run_counter() == 0

    def test_fewer_elements_than_threads(self):
        x = np.random.default_rng(4).standard_normal(3)
        ca, cb = RunContext(2), RunContext(2)
        rta = OpenMPRuntime(num_threads=16, ctx=ca)
        rtb = OpenMPRuntime(num_threads=16, ctx=cb)
        np.testing.assert_array_equal(
            rta.reduce_many(x, 6), [rtb.reduce_sum(x) for _ in range(6)]
        )

    def test_empty_input(self):
        ca, cb = RunContext(2), RunContext(2)
        rta = OpenMPRuntime(num_threads=4, ctx=ca)
        rtb = OpenMPRuntime(num_threads=4, ctx=cb)
        np.testing.assert_array_equal(
            rta.reduce_many(np.empty(0), 3),
            [rtb.reduce_sum(np.empty(0)) for _ in range(3)],
        )
        assert ca.peek_run_counter() == cb.peek_run_counter()

    def test_validation(self):
        rt = OpenMPRuntime(num_threads=2, ctx=RunContext(0))
        with pytest.raises(ConfigurationError):
            rt.reduce_many(np.ones(4), 0)
        with pytest.raises(ConfigurationError):
            rt.reduce_many(np.ones((2, 2)), 3)


class TestBlockPartialsRuns:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n,nb,bs", [(150, 38, None), (1000, 12, 100),
                                         (5, 8, None), (64, 4, 16), (7, 3, 3), (1, 1, None)])
    def test_matches_scalar_bitwise(self, dtype, n, nb, bs):
        mat = np.random.default_rng(n + nb).standard_normal((6, n)).astype(dtype)
        batched = block_partials_runs(mat, nb, bs)
        assert batched.dtype == dtype
        for r in range(6):
            np.testing.assert_array_equal(batched[r], block_partials(mat[r], nb, bs))

    def test_chunking_preserves_bits(self, run_chunk_budget):
        mat = np.random.default_rng(0).standard_normal((9, 50))
        whole = block_partials_runs(mat, 7)
        run_chunk_budget(2 * 7 * 8)  # 2 runs of 7 blocks x 8-wide trees
        np.testing.assert_array_equal(block_partials_runs(mat, 7), whole)

    def test_validation(self):
        with pytest.raises(ShapeError):
            block_partials_runs(np.ones(4), 2)
        with pytest.raises(ConfigurationError):
            block_partials_runs(np.ones((2, 8)), 2, 3)  # cannot cover 8


class TestBatchedAtomicFoldPerRunValues:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_scalar_bitwise(self, dtype):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((5, 40)).astype(dtype)
        orders = np.stack([rng.permutation(40) for _ in range(5)])
        batched = batched_atomic_fold(vals, orders)
        scalar = np.array([atomic_fold(vals[r], orders[r]) for r in range(5)])
        np.testing.assert_array_equal(batched, scalar)

    def test_shape_validation(self):
        with pytest.raises(SchedulerError):
            batched_atomic_fold(np.ones((2, 3)), np.zeros((2, 4), dtype=np.int64))


class TestReductionSumRuns:
    """sum_runs row == scalar .sum on the same context, for all strategies."""

    @pytest.mark.parametrize("name", ("ao", "spa", "sptr", "sprg", "tprc", "cu"))
    @pytest.mark.parametrize("n,tpb", [(1, 2), (37, 4), (200, 4), (1000, 8)])
    def test_matches_scalar_bitwise(self, name, n, tpb):
        mat = np.random.default_rng(n).standard_normal((5, n))
        red_a = get_reduction(name, threads_per_block=tpb)
        red_b = get_reduction(name, threads_per_block=tpb)
        ca, cb = RunContext(13), RunContext(13)
        batched = red_a.sum_runs(mat, ctx=ca)
        scalar = np.array([red_b.sum(mat[r], ctx=cb) for r in range(5)])
        np.testing.assert_array_equal(batched, scalar)
        assert ca.peek_run_counter() == cb.peek_run_counter()

    def test_persistent_rngs_mode(self):
        # The CG contract: each run's stream is consumed across successive
        # batched sums exactly like successive scalar sums on that stream.
        red_a = get_reduction("spa", threads_per_block=4)
        red_b = get_reduction("spa", threads_per_block=4)
        ca, cb = RunContext(7), RunContext(7)
        rngs_a = [ca.scheduler() for _ in range(4)]
        rngs_b = [cb.scheduler() for _ in range(4)]
        rng = np.random.default_rng(1)
        for _ in range(3):
            mat = rng.standard_normal((4, 64))
            batched = red_a.sum_runs(mat, rngs=rngs_a)
            scalar = np.array([red_b.sum(mat[r], rng=rngs_b[r]) for r in range(4)])
            np.testing.assert_array_equal(batched, scalar)

    def test_empty_and_validation(self):
        red = get_reduction("spa")
        assert red.sum_runs(np.empty((3, 0)), ctx=RunContext(0)).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ConfigurationError):
            red.sum_runs(np.ones(4), ctx=RunContext(0))
        with pytest.raises(ConfigurationError):
            red.sum_runs(np.ones((2, 4)), rngs=[None])


class TestConjugateGradientRuns:
    """Lockstep CG == sequential scalar solves on the same context."""

    def _system(self, n=60, cond=1e4, seed=0):
        ctx = RunContext(seed)
        A = spd_test_matrix(n, cond=cond, rng=ctx.data(1))
        b = ctx.data(2).standard_normal(n)
        return A, b

    @pytest.mark.parametrize(
        "red,tol,max_iter",
        [("spa", 0.0, 15), ("spa", 1e-12, None), ("ao", 0.0, 8),
         ("sptr", 0.0, 10), (None, 1e-10, None)],
    )
    def test_matches_scalar_bitwise(self, red, tol, max_iter):
        A, b = self._system()
        ra = get_reduction(red, threads_per_block=4) if red else None
        rb = get_reduction(red, threads_per_block=4) if red else None
        ca, cb = RunContext(3), RunContext(3)
        batch = conjugate_gradient_runs(
            A, b, 4, reduction=ra, tol=tol, max_iter=max_iter,
            track_iterates=True, ctx=ca,
        )
        for r in range(4):
            s = conjugate_gradient(
                A, b, reduction=rb, tol=tol, max_iter=max_iter,
                track_iterates=True, ctx=cb,
            )
            assert batch[r].n_iter == s.n_iter
            assert batch[r].converged == s.converged
            np.testing.assert_array_equal(batch[r].x, s.x)
            np.testing.assert_array_equal(batch[r].residuals, s.residuals)
            assert len(batch[r].iterates) == len(s.iterates)
            for bi, si in zip(batch[r].iterates, s.iterates):
                np.testing.assert_array_equal(bi, si)
        assert ca.peek_run_counter() == cb.peek_run_counter()

    def test_early_convergence_freezes_runs(self):
        # tol > 0: runs converge at different iteration counts; frozen runs
        # must stop consuming their streams exactly like the scalar loop.
        A, b = self._system(n=40, cond=1e3, seed=4)
        ca, cb = RunContext(8), RunContext(8)
        spa_a = get_reduction("spa", threads_per_block=4)
        spa_b = get_reduction("spa", threads_per_block=4)
        batch = conjugate_gradient_runs(A, b, 5, reduction=spa_a, tol=1e-11, ctx=ca)
        iters = set()
        for r in range(5):
            s = conjugate_gradient(A, b, reduction=spa_b, tol=1e-11, ctx=cb)
            assert batch[r].n_iter == s.n_iter
            np.testing.assert_array_equal(batch[r].x, s.x)
            iters.add(s.n_iter)
        assert all(res.converged for res in batch)

    def test_indefinite_matrix_breaks_like_scalar(self):
        # pAp <= 0 on an indefinite system: the run breaks before the
        # second inner product, like the scalar loop.
        n = 12
        A = np.diag(np.concatenate([np.ones(6), -np.ones(6)]))
        b = np.ones(n)
        batch = conjugate_gradient_runs(A, b, 3, tol=0.0, max_iter=9)
        for r in range(3):
            s = conjugate_gradient(A, b, tol=0.0, max_iter=9)
            assert batch[r].n_iter == s.n_iter
            assert batch[r].converged == s.converged
            np.testing.assert_array_equal(batch[r].x, s.x)
            np.testing.assert_array_equal(batch[r].residuals, s.residuals)

    @pytest.mark.parametrize("n", [1, 7, 64, 200, 1000])
    def test_lockstep_matvec_equals_per_run_gemv(self, n):
        # The batch's one np.matmul over the active runs must reproduce
        # every per-run ``A @ p`` bit for bit (NumPy issues the same gemv
        # per batch element).
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        P = rng.standard_normal((9, n))
        act = np.array([0, 2, 3, 7, 8])
        got = np.matmul(A, P[act, :, None])[..., 0]
        want = np.stack([A @ P[i] for i in act])
        assert got.tobytes() == want.tobytes()

    def test_callable_operator_matches_matrix(self):
        A, b = self._system(n=30)
        spa = get_reduction("spa", threads_per_block=4)
        by_matrix = conjugate_gradient_runs(
            A, b, 3, reduction=spa, tol=0.0, max_iter=12, ctx=RunContext(5)
        )
        by_callable = conjugate_gradient_runs(
            lambda v: A @ v, b, 3, reduction=spa, tol=0.0, max_iter=12, ctx=RunContext(5)
        )
        for m, c in zip(by_matrix, by_callable):
            np.testing.assert_array_equal(m.x, c.x)
            np.testing.assert_array_equal(m.residuals, c.residuals)

    def test_max_iter_zero_and_x0(self):
        A, b = self._system(n=10)
        x0 = np.linspace(0, 1, 10)
        batch = conjugate_gradient_runs(A, b, 2, x0=x0, max_iter=0)
        s = conjugate_gradient(A, b, x0=x0, max_iter=0)
        for r in range(2):
            assert batch[r].n_iter == 0
            np.testing.assert_array_equal(batch[r].x, s.x)

    def test_validation(self):
        A, b = self._system(n=5)
        with pytest.raises(ConfigurationError):
            conjugate_gradient_runs(A, b, 0)
        with pytest.raises(ShapeError):
            conjugate_gradient_runs(A, np.ones((2, 2)), 2)
        with pytest.raises(ShapeError):
            conjugate_gradient_runs(A, b, 2, x0=np.ones(3))


def _pooled_sweep(cells, n_runs, ctx):
    """The whole grid through the pooled engine, one full run window."""
    from repro.experiments._opruns import sweep_run_payloads, variability_from_payload

    return [
        variability_from_payload({k: v.finish() for k, v in p.items()})
        for p in sweep_run_payloads(cells, n_runs, ctx)
    ]


class TestSweepVariability:
    """Pooled sweep == per-cell wrappers == manual scalar loop."""

    def test_pooled_matches_per_cell_bitwise(self):
        from repro.experiments._opruns import (
            SweepCell,
            index_add_variability,
            scatter_reduce_variability,
        )

        cells = [
            SweepCell("scatter_reduce", 700, 0.5, "sum"),
            SweepCell("scatter_reduce", 1500, 1.0, "mean"),
            SweepCell("index_add", 60, 0.9),
            SweepCell("scatter_reduce", 300, 0.1, "sum"),
            SweepCell("index_add", 60, 0.4),
        ]
        ca, cb = RunContext(5), RunContext(5)
        pooled = _pooled_sweep(cells, 9, ca)
        for c, p in zip(cells, pooled):
            if c.op == "scatter_reduce":
                s = scatter_reduce_variability(c.n, c.ratio, c.reduce, 9, cb)
            else:
                s = index_add_variability(c.n, c.ratio, 9, cb)
            assert p == s, c
        assert ca.peek_run_counter() == cb.peek_run_counter()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_summaries_match_scalar_metrics(self, dtype):
        from repro.experiments._opruns import _summarise_batch
        from repro.metrics.array import count_variability, ermv

        rng = np.random.default_rng(2)
        ref = rng.standard_normal((30, 4)).astype(dtype)
        batch = np.stack([ref + (rng.random(ref.shape) < 0.05) * rng.standard_normal(ref.shape) for _ in range(6)]).astype(dtype)
        v = _summarise_batch(ref, batch)
        vcs = np.array([count_variability(ref, b) for b in batch])
        ermvs = np.array([ermv(ref, b) for b in batch])
        finite = ermvs[np.isfinite(ermvs)]
        assert v.vc_mean == float(vcs.mean()) and v.vc_std == float(vcs.std())
        assert v.ermv_mean == float(finite.mean()) and v.ermv_max == float(finite.max())

    def test_summarise_zero_reference_corner(self):
        from repro.experiments._opruns import _summarise_batch
        from repro.metrics.array import ermv

        ref = np.array([0.0, 1.0, -2.0, 0.0], dtype=np.float32)
        batch = np.stack([
            ref,
            np.array([0.5, 1.0, -2.0, 0.0], dtype=np.float32),
            np.array([0.0, 1.25, -2.0, 0.0], dtype=np.float32),
        ])
        v = _summarise_batch(ref, batch)
        finite = np.array([e for e in (ermv(ref, b) for b in batch) if np.isfinite(e)])
        assert v.ermv_mean == float(finite.mean())
        assert v.n_unique == 3

    def test_stacked_chunked_runs_match_list_api(self, run_chunk_budget):
        rng = np.random.default_rng(6)
        n, t = 500, 120
        idx = rng.integers(0, t, n)
        src = rng.standard_normal(n).astype(np.float32)
        inp = rng.standard_normal(t).astype(np.float32)
        ca, cb = RunContext(4), RunContext(4)
        listed = scatter_reduce_runs(inp, 0, idx, src, "sum", 7, ctx=cb)
        plan = SegmentPlan(idx, t)
        run_chunk_budget(3 * t * (plan.k_max + 1))  # 3 runs per chunk
        stacked = scatter_reduce_runs(inp, 0, idx, src, "sum", 7, ctx=ca, stacked=True)
        for r in range(7):
            np.testing.assert_array_equal(stacked[r], listed[r])

    def test_pooled_handles_non_sum_reduces(self):
        # Regression: the pooled column fold must use each cell's own fold
        # operator (amax/amin are order-invariant, so their Vc is 0).
        from repro.experiments._opruns import SweepCell, scatter_reduce_variability

        cells = [
            SweepCell("scatter_reduce", 800, 1.0, "amax"),
            SweepCell("scatter_reduce", 800, 1.0, "sum"),
            SweepCell("scatter_reduce", 400, 0.5, "prod"),
            SweepCell("scatter_reduce", 400, 0.5, "amin"),
        ]
        ca, cb = RunContext(5), RunContext(5)
        pooled = _pooled_sweep(cells, 8, ca)
        for c, p in zip(cells, pooled):
            s = scatter_reduce_variability(c.n, c.ratio, c.reduce, 8, cb)
            assert p == s, c
        assert pooled[0].vc_mean == 0.0 and pooled[3].vc_mean == 0.0


class TestCopyOpRuns:
    """Batched last-writer-wins races vs scalar loops (table5 engine)."""

    def _workload(self, dtype, n=300, t=90, payload=(6,)):
        rng = np.random.default_rng(11)
        idx = rng.integers(0, t, size=n)
        src = rng.standard_normal((n,) + payload).astype(dtype)
        inp = rng.standard_normal((t,) + payload).astype(dtype)
        return idx, src, inp

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_index_copy_runs(self, dtype):
        from repro.ops import index_copy, index_copy_runs

        idx, src, inp = self._workload(dtype)
        ca, cb = RunContext(21), RunContext(21)
        batched = index_copy_runs(inp, 0, idx, src, 9, ctx=ca)
        scalar = [
            index_copy(inp, 0, idx, src, ctx=cb, deterministic=False)
            for _ in range(9)
        ]
        for b, s in zip(batched, scalar):
            np.testing.assert_array_equal(b, s)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_scatter_runs(self, dtype):
        from repro.ops import scatter, scatter_runs

        idx, src, inp = self._workload(dtype)
        ca, cb = RunContext(22), RunContext(22)
        batched = scatter_runs(inp, 0, idx, src, 9, ctx=ca, stacked=True)
        for r in range(9):
            s = scatter(inp, 0, idx, src, ctx=cb, deterministic=False)
            np.testing.assert_array_equal(batched[r], s)

    def test_index_put_runs_both_modes(self):
        from repro.ops import index_put, index_put_runs

        idx, src, inp = self._workload(np.float32)
        for accumulate in (False, True):
            ca, cb = RunContext(23), RunContext(23)
            batched = index_put_runs(inp, idx, src, 6, accumulate=accumulate, ctx=ca)
            scalar = [
                index_put(inp, idx, src, accumulate=accumulate, ctx=cb,
                          deterministic=False)
                for _ in range(6)
            ]
            for b, s in zip(batched, scalar):
                np.testing.assert_array_equal(b, s)

    def test_unique_indices_are_canonical(self):
        # No duplicate writers -> no races -> every run equals the
        # deterministic output and consumes only its own (unused) stream.
        from repro.ops import index_copy, index_copy_runs

        idx = np.arange(40)
        rng = np.random.default_rng(3)
        src = rng.standard_normal((40, 2)).astype(np.float32)
        inp = rng.standard_normal((40, 2)).astype(np.float32)
        det = index_copy(inp, 0, idx, src, deterministic=True)
        outs = index_copy_runs(inp, 0, idx, src, 4, ctx=RunContext(0))
        for o in outs:
            np.testing.assert_array_equal(o, det)

    def test_outputs_independent(self):
        from repro.ops import index_copy_runs

        idx, src, inp = self._workload(np.float32)
        outs = index_copy_runs(inp, 0, idx, src, 5, ctx=RunContext(2))
        outs[0][:] = np.nan
        assert np.isfinite(outs[1]).all()


class TestRunBatchedTensor:
    """Run-axis Tensor ops: per-run bits equal the scalar twins'."""

    def test_matmul_forward_backward_bitwise(self):
        from repro.tensor import Tensor

        rng = np.random.default_rng(5)
        R, n, i, o = 4, 23, 11, 6
        xs = rng.standard_normal((R, n, i)).astype(np.float32)
        ws = rng.standard_normal((R, o, i)).astype(np.float32)
        g = rng.standard_normal((R, n, o)).astype(np.float32)

        xb = Tensor(xs, requires_grad=True, runs=R)
        wb = Tensor(ws, requires_grad=True, runs=R)
        out = xb @ wb.T
        assert out.runs == R
        out.backward(g)

        for r in range(R):
            x1 = Tensor(xs[r], requires_grad=True)
            w1 = Tensor(ws[r], requires_grad=True)
            o1 = x1 @ w1.T
            o1.backward(g[r])
            np.testing.assert_array_equal(out.data[r], o1.data)
            np.testing.assert_array_equal(xb.grad[r], x1.grad)
            np.testing.assert_array_equal(wb.grad[r], w1.grad)

    def test_shared_operand_matmul_grad_folds_runs(self):
        from repro.tensor import Tensor

        rng = np.random.default_rng(6)
        R, n, i, o = 3, 9, 5, 4
        x = rng.standard_normal((n, i)).astype(np.float32)
        ws = rng.standard_normal((R, i, o)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(ws, requires_grad=True, runs=R)
        out = xt @ wt
        assert out.runs == R and out.shape == (R, n, o)
        out.backward(np.ones((R, n, o), dtype=np.float32))
        assert xt.grad.shape == (n, i) and wt.grad.shape == (R, i, o)

    def test_reductions_and_losses_bitwise(self):
        from repro.nn import functional as F
        from repro.tensor import Tensor

        rng = np.random.default_rng(7)
        R, n, c = 5, 17, 4
        xs = rng.standard_normal((R, n, c)).astype(np.float32)
        t = rng.integers(0, c, size=n)
        xb = Tensor(xs, requires_grad=True, runs=R)
        loss = F.nll_loss(xb.log_softmax(dim=-1), t)
        assert loss.runs == R and loss.shape == (R,)
        loss.backward()
        for r in range(R):
            x1 = Tensor(xs[r], requires_grad=True)
            l1 = F.nll_loss(x1.log_softmax(dim=-1), t)
            l1.backward()
            assert float(loss.data[r]) == l1.item()
            np.testing.assert_array_equal(xb.grad[r], x1.grad)

    def test_sum_mean_logical_axes(self):
        from repro.tensor import Tensor

        rng = np.random.default_rng(8)
        xs = rng.standard_normal((3, 6, 5)).astype(np.float32)
        xb = Tensor(xs, runs=3)
        np.testing.assert_array_equal(
            xb.sum().data, np.stack([np.float32(xs[r].sum()) for r in range(3)])
        )
        np.testing.assert_array_equal(
            xb.sum(dim=0).data, xs.sum(axis=1)
        )
        scalar_means = [Tensor(xs[r]).mean(dim=-1).data for r in range(3)]
        np.testing.assert_array_equal(xb.mean(dim=-1).data, np.stack(scalar_means))

    def test_run_axis_propagation_and_backward_seed(self):
        from repro.tensor import Tensor

        x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True, runs=4)
        s = (x * 2.0).sum()
        assert s.runs == 4 and s.shape == (4,)
        s.backward()  # per-run unit seeds
        np.testing.assert_array_equal(x.grad, np.full((4, 3), 2.0, dtype=np.float32))

    def test_gather_index_add_lockstep_vs_scalar(self):
        from repro.ops import gather_rows as np_gather
        from repro.tensor import RunBatch, Tensor, run_batch, use_kernel_stream

        rng = np.random.default_rng(9)
        R, n_rows, n_src, f = 4, 30, 120, 3
        xs = rng.standard_normal((R, n_rows, f)).astype(np.float32)
        idx = rng.integers(0, n_rows, size=n_src)
        g = rng.standard_normal((R, n_src, f)).astype(np.float32)

        ca = RunContext(31)
        xb = Tensor(xs, requires_grad=True, runs=R)
        with run_batch(RunBatch(R, ctx=ca)):
            out = xb.gather_rows(idx)
            assert out.runs == R
            out.backward(g)

        cb = RunContext(31)
        for r in range(R):
            x1 = Tensor(xs[r], requires_grad=True)
            with use_kernel_stream(cb.scheduler()):
                o1 = x1.gather_rows(idx)
                o1.backward(g[r])
            np.testing.assert_array_equal(out.data[r], np_gather(xs[r], idx))
            np.testing.assert_array_equal(xb.grad[r], x1.grad)


class TestGnnLockstep:
    """train_graphsage_runs / run_inference_runs vs their scalar loops."""

    @pytest.fixture(scope="class")
    def ds(self):
        from repro.graph.datasets import cora_like

        return cora_like(num_nodes=60, num_edges=140, num_features=10,
                         num_classes=3, ctx=RunContext(0))

    @pytest.mark.parametrize("n_runs", (1, 2, 5))
    def test_train_matches_scalar_loop(self, ds, n_runs):
        from repro.experiments._gnn import train_graphsage, train_graphsage_runs

        kw = dict(hidden=4, epochs=3, lr=0.01, deterministic=False)
        runs = train_graphsage_runs(ds, ctx=RunContext(40), n_runs=n_runs, **kw)
        ctx = RunContext(40)
        for r in range(n_runs):
            s = train_graphsage(ds, ctx=ctx, **kw)
            np.testing.assert_array_equal(runs.weights[r], s.weights)
            for ep in range(3):
                np.testing.assert_array_equal(
                    runs.epoch_weights[ep][r], s.epoch_weights[ep]
                )
                assert runs.losses[ep][r] == s.losses[ep]

    def test_deterministic_runs_collapse(self, ds):
        from repro.experiments._gnn import train_graphsage, train_graphsage_runs

        kw = dict(hidden=4, epochs=2, lr=0.01)
        runs = train_graphsage_runs(
            ds, ctx=RunContext(41), n_runs=3, deterministic=True, **kw
        )
        s = train_graphsage(ds, ctx=RunContext(41), deterministic=True, **kw)
        assert runs.weights.shape == (3,) + s.weights.shape
        for r in range(3):
            np.testing.assert_array_equal(runs.weights[r], s.weights)
        # Collapsed runs draw nothing from the scheduler.
        assert RunContext(41).peek_run_counter() == 0

    def test_nd_inference_matches_scalar_loop(self, ds):
        from repro.experiments._gnn import (
            run_inference,
            run_inference_runs,
            train_graphsage,
            train_graphsage_runs,
        )

        kw = dict(hidden=4, epochs=2, lr=0.01, deterministic=False)
        # Batched model -> batched ND inference.
        runs = train_graphsage_runs(ds, ctx=RunContext(42), n_runs=3, **kw)
        logits = run_inference_runs(
            runs.model, ds, deterministic=False, ctx=RunContext(7), n_runs=3
        )
        ctx = RunContext(42)
        cb = RunContext(7)
        for r in range(3):
            s = train_graphsage(ds, ctx=ctx, **kw)
            ref = run_inference(s.model, ds, deterministic=False, ctx=cb)
            np.testing.assert_array_equal(logits[r], ref)

    def test_shared_model_nd_inference_matches_scalar_loop(self, ds):
        from repro.experiments._gnn import (
            run_inference,
            run_inference_runs,
            train_graphsage,
        )

        s = train_graphsage(
            ds, hidden=4, epochs=1, lr=0.01, deterministic=True, ctx=RunContext(43)
        )
        logits = run_inference_runs(
            s.model, ds, deterministic=False, ctx=RunContext(8), n_runs=4
        )
        cb = RunContext(8)
        for r in range(4):
            ref = run_inference(s.model, ds, deterministic=False, ctx=cb)
            np.testing.assert_array_equal(logits[r], ref)

    def test_deterministic_inference_of_batched_model(self, ds):
        from repro.experiments._gnn import (
            run_inference,
            run_inference_runs,
            train_graphsage,
            train_graphsage_runs,
        )

        kw = dict(hidden=4, epochs=2, lr=0.01, deterministic=False)
        runs = train_graphsage_runs(ds, ctx=RunContext(44), n_runs=3, **kw)
        logits = run_inference_runs(
            runs.model, ds, deterministic=True, ctx=RunContext(9), n_runs=3
        )
        ctx = RunContext(44)
        for r in range(3):
            s = train_graphsage(ds, ctx=ctx, **kw)
            ref = run_inference(s.model, ds, deterministic=True)
            np.testing.assert_array_equal(logits[r], ref)

    def test_adam_lockstep_step_bitwise(self):
        from repro.nn import Adam, Linear

        rng = np.random.default_rng(12)
        R = 3
        grads_w = rng.standard_normal((R, 4, 6)).astype(np.float32)
        grads_b = rng.standard_normal((R, 4)).astype(np.float32)

        batched = Linear(6, 4, rng=np.random.default_rng(1))
        batched.expand_runs(R)
        opt_b = Adam(batched.parameters(), lr=0.01)
        scalars = [Linear(6, 4, rng=np.random.default_rng(1)) for _ in range(R)]
        opts = [Adam(s.parameters(), lr=0.01) for s in scalars]
        for _ in range(3):
            batched.weight.grad = grads_w.copy()
            batched.bias.grad = grads_b.copy()
            opt_b.step()
            for r, (s, o) in enumerate(zip(scalars, opts)):
                s.weight.grad = grads_w[r].copy()
                s.bias.grad = grads_b[r].copy()
                o.step()
        for r, s in enumerate(scalars):
            np.testing.assert_array_equal(batched.weight.data[r], s.weight.data)
            np.testing.assert_array_equal(batched.bias.data[r], s.bias.data)

    def test_expand_runs_guards(self):
        from repro.errors import ConfigurationError
        from repro.nn import Adam, Linear

        lin = Linear(3, 2, rng=np.random.default_rng(0))
        opt = Adam(lin.parameters(), lr=0.01)
        lin.expand_runs(2)
        with pytest.raises(ConfigurationError):
            lin.expand_runs(2)
        lin.weight.grad = np.zeros_like(lin.weight.data)
        with pytest.raises(ConfigurationError):
            opt.step()  # state captured before the run axis appeared


class TestSumdistArrayBatch:
    """(arrays, runs, n) passes vs the per-array loops they replace."""

    def test_spa_arrays_matches_per_array(self):
        from repro.experiments._sumdist import spa_vs_samples, spa_vs_samples_arrays

        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, 10.0, (3, 4096))
        mat = spa_vs_samples_arrays(xs, 20, RunContext(50))
        ctx = RunContext(50)
        for a in range(3):
            np.testing.assert_array_equal(
                mat[a], spa_vs_samples(xs[a], 20, ctx)
            )

    @pytest.mark.parametrize("n", (2048, 2000))  # warp-aligned and not
    def test_ao_arrays_matches_per_array(self, n):
        from repro.experiments._sumdist import ao_vs_samples, ao_vs_samples_arrays

        rng = np.random.default_rng(4)
        xs = rng.uniform(0.0, 10.0, (2, n))
        mat = ao_vs_samples_arrays(xs, 15, RunContext(51))
        ctx = RunContext(51)
        for a in range(2):
            np.testing.assert_array_equal(mat[a], ao_vs_samples(xs[a], 15, ctx))

    def test_explicit_rngs_reproduce_interleaved_draws(self):
        # The fig2 layout: AO and SPA streams interleave per array; explicit
        # per-run rngs let the batched passes reproduce that order exactly.
        from repro.experiments._sumdist import (
            ao_vs_samples,
            ao_vs_samples_arrays,
            spa_vs_samples,
            spa_vs_samples_arrays,
        )

        rng = np.random.default_rng(5)
        xs_ao = rng.uniform(0.0, 10.0, (2, 2048))
        xs_spa = rng.uniform(0.0, 10.0, (2, 4096))
        R = 10
        ca = RunContext(52)
        ao_rngs, spa_rngs = [], []
        for _ in range(2):
            ao_rngs.extend(ca.scheduler() for _ in range(R))
            spa_rngs.extend(ca.scheduler() for _ in range(R))
        ao_mat = ao_vs_samples_arrays(xs_ao, R, ca, rngs=ao_rngs)
        spa_mat = spa_vs_samples_arrays(xs_spa, R, ca, rngs=spa_rngs)

        cb = RunContext(52)
        for a in range(2):
            np.testing.assert_array_equal(ao_mat[a], ao_vs_samples(xs_ao[a], R, cb))
            np.testing.assert_array_equal(spa_mat[a], spa_vs_samples(xs_spa[a], R, cb))

    def test_run_axis_guards(self):
        from repro.errors import ConfigurationError as CE, ShapeError as SE
        from repro.tensor import Tensor

        t = Tensor(np.ones((3, 4, 2), dtype=np.float32), runs=3)
        with pytest.raises(CE):
            t.gather_rows(np.array([-1]))  # scalar twin's bounds check
        with pytest.raises(CE):
            t.gather_rows(np.array([4]))
        with pytest.raises(SE):
            Tensor(np.ones((3, 2), dtype=np.float32), runs=3).transpose()
        with pytest.raises(SE):
            Tensor(np.ones(3, dtype=np.float32), runs=3).sum(dim=0)
        with pytest.raises(SE):
            Tensor(np.ones((4, 2), dtype=np.float32), runs=3)


class TestRunOffsetFuzz:
    """Randomised run_offset / shard-boundary contract.

    The sharded executor's safety property, fuzzed: for random geometries,
    contentions and shard boundaries, shard k (a context positioned at
    ``off``) draws runs bit-identical to slice ``[off, off + r)`` of the
    full batch's — for the scheduler batch, the raw context streams and
    the run-batched tensor state alike.
    """

    @pytest.mark.parametrize("trial", range(10))
    def test_scheduler_batch_shard_windows(self, trial):
        fz = np.random.default_rng(4000 + trial)
        nb = int(fz.integers(1, 120))
        tpb = int(fz.choice([32, 48, 64]))
        contention = float(fz.choice([0.0, 0.37, 1.0]))
        R = int(fz.integers(2, 24))
        launch = make_launch(nb, tpb)
        full = WaveSchedulerBatch(launch, RunContext(77)).block_completion_orders(
            R, contention=contention
        )
        cuts = sorted(
            set(fz.integers(1, R, size=int(fz.integers(0, 4))).tolist()) | {0, R}
        )
        shards = [
            WaveSchedulerBatch(
                launch, RunContext(77), run_offset=lo
            ).block_completion_orders(hi - lo, contention=contention)
            for lo, hi in zip(cuts, cuts[1:])
        ]
        np.testing.assert_array_equal(np.concatenate(shards, axis=0), full)

    @pytest.mark.parametrize("trial", range(6))
    def test_thread_order_shard_windows(self, trial):
        fz = np.random.default_rng(5000 + trial)
        nb = int(fz.integers(1, 40))
        tpb = int(fz.choice([32, 33, 64]))
        n = int(fz.integers(1, nb * tpb + 1))
        R = int(fz.integers(2, 12))
        lo = int(fz.integers(0, R))
        hi = int(fz.integers(lo + 1, R + 1))
        launch = make_launch(nb, tpb)
        full = WaveSchedulerBatch(launch, RunContext(13)).thread_retirement_orders(
            R, n, contention=1.0
        )
        ctx = RunContext(13, run_offset=lo)
        shard = WaveSchedulerBatch(launch, ctx).thread_retirement_orders(
            hi - lo, n, contention=1.0
        )
        np.testing.assert_array_equal(shard, full[lo:hi])

    @pytest.mark.parametrize("offset", (0, 1, 5, 64, 1000))
    def test_context_offset_equals_seek_equals_slice(self, offset):
        # Three spellings of "start the ladder at `offset`" hand out
        # bitwise-identical stream sequences.
        full = RunContext(3)
        for _ in range(offset):
            full.scheduler()
        by_offset = RunContext(3, run_offset=offset)
        by_seek = RunContext(3)
        by_seek.seek_runs(offset)
        draws = [c.scheduler().random(7) for c in (full, by_offset, by_seek)]
        np.testing.assert_array_equal(draws[0], draws[1])
        np.testing.assert_array_equal(draws[0], draws[2])

    def test_run_offset_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RunContext(0, run_offset=-1)
        with pytest.raises(ConfigurationError):
            RunContext(0).seek_runs(-3)

    @pytest.mark.parametrize("trial", range(5))
    def test_runbatch_shard_streams_match_full_slice(self, trial):
        from repro.tensor import RunBatch

        fz = np.random.default_rng(6000 + trial)
        R = int(fz.integers(2, 10))
        lo = int(fz.integers(0, R))
        hi = int(fz.integers(lo + 1, R + 1))
        full = RunBatch(R, ctx=RunContext(21))
        shard = RunBatch(hi - lo, ctx=RunContext(21, run_offset=lo))
        for r in range(hi - lo):
            np.testing.assert_array_equal(
                shard.rngs[r].random(9), full.rngs[lo + r].random(9)
            )

    @pytest.mark.parametrize("trial", range(5))
    def test_segment_plan_draw_windows(self, trial):
        from repro.ops.nondet import OP_CONTENTION

        fz = np.random.default_rng(7000 + trial)
        n = int(fz.integers(8, 200))
        n_targets = int(fz.integers(1, max(2, n // 2)))
        idx = fz.integers(0, n_targets, size=n)
        plan = SegmentPlan(idx, n_targets)
        model = OP_CONTENTION["index_add"]
        R = int(fz.integers(2, 12))
        lo = int(fz.integers(0, R))
        hi = int(fz.integers(lo + 1, R + 1))
        full = plan.sample_run_draws(R, model, RunContext(31))
        shard = plan.sample_run_draws(hi - lo, model, RunContext(31, run_offset=lo))
        assert len(full) == R and len(shard) == hi - lo
        sel = (full.runs >= lo) & (full.runs < hi)
        np.testing.assert_array_equal(shard.runs, full.runs[sel] - lo)
        np.testing.assert_array_equal(shard.targets, full.targets[sel])
        np.testing.assert_array_equal(shard.counts, full.counts[sel])
        np.testing.assert_array_equal(shard.keys, full.keys[np.repeat(sel, full.counts)])
