"""Run-stream contract: ``RunContext.schedulers(n)`` is bit-identical to
``n`` successive ``scheduler()`` calls, every batched ``RunStreams`` draw
equals the per-run NumPy ``Generator`` draws on both backends, plus the
row-batched metric helper that rides on the same run axis."""

from __future__ import annotations

import sys
import threading
import warnings

import numpy as np
import pytest

from repro import runtime
from repro.errors import ConfigurationError, SchedulerError, ShapeError
from repro.metrics.array import ermv, ermv_rows
from repro.runtime import RunContext, RunStreams

SEEDS = [0, 1, 5, 2**31 - 1, 2**32, 2**40 + 3, 2**127 + 9, (1 << 96) + 12345]


def _reference(seed: int, start: int, n: int) -> list[np.random.Generator]:
    ctx = RunContext(seed)
    ctx.seek_runs(start)
    return [ctx.scheduler() for _ in range(n)]


def _assert_same_streams(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.bit_generator.state == w.bit_generator.state
    for g, w in zip(got, want):
        assert np.array_equal(g.integers(0, 2**63, 4), w.integers(0, 2**63, 4))
        assert np.array_equal(g.random(3, dtype=np.float32), w.random(3, dtype=np.float32))


class TestSchedulersMatchTheScalarLadder:
    def test_fast_path_is_active(self):
        # A silent fallback to the per-run path must fail tier-1.
        assert runtime._batch_derivation_ok()

    def test_fast_path_does_not_touch_seedsequence(self, monkeypatch):
        runtime._batch_derivation_ok()  # the one-time self-check may use it

        def boom(*args, **kwargs):
            raise AssertionError("per-run SeedSequence path taken")

        monkeypatch.setattr(runtime, "_reference_scheduler", boom)
        monkeypatch.setattr(runtime, "_reference_words", boom)
        window = RunContext(3).schedulers(runtime._BATCH_MIN_RUNS)
        assert len(list(window)) == runtime._BATCH_MIN_RUNS

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start", [0, 3, 1_000_003, 2**31, 2**32 - 200])
    def test_window_equals_scheduler_loop(self, seed, start):
        ctx = RunContext(seed)
        ctx.seek_runs(start)
        _assert_same_streams(ctx.schedulers(100), _reference(seed, start, 100))
        assert ctx.peek_run_counter() == start + 100

    @pytest.mark.parametrize(
        "n", sorted({0, 1, runtime._BATCH_MIN_RUNS - 1, runtime._BATCH_MIN_RUNS,
                     runtime._BATCH_MIN_RUNS + 1, 17, 1000})
    )
    def test_window_sizes(self, n):
        ctx = RunContext(7)
        ctx.seek_runs(11)
        _assert_same_streams(ctx.schedulers(n), _reference(7, 11, n))
        assert ctx.peek_run_counter() == 11 + n

    def test_run_offset_and_successive_windows(self):
        ctx = RunContext(2**40 + 3, run_offset=25)
        got = [*ctx.schedulers(10), ctx.scheduler(), *ctx.schedulers(30)]
        _assert_same_streams(got, _reference(2**40 + 3, 25, 41))
        assert ctx.peek_run_counter() == 25 + 41

    def test_seek_inside_and_across_windows(self):
        ctx = RunContext(9)
        first = ctx.schedulers(50)
        ctx.seek_runs(20)  # back inside the first window
        again = ctx.schedulers(60)  # and across its end
        _assert_same_streams(first, _reference(9, 0, 50))
        _assert_same_streams(again, _reference(9, 20, 60))

    def test_window_crossing_two_to_the_32(self):
        # The spawn key grows a word at run 2**32: that window takes the
        # per-run reference path and still matches the scalar ladder.
        ctx = RunContext(4)
        ctx.seek_runs(2**32 - 3)
        _assert_same_streams(ctx.schedulers(8), _reference(4, 2**32 - 3, 8))
        assert ctx.peek_run_counter() == 2**32 + 5

    def test_window_reaching_exactly_two_to_the_32(self):
        ctx = RunContext(4)
        ctx.seek_runs(2**32 - 5)
        _assert_same_streams(ctx.schedulers(5), _reference(4, 2**32 - 5, 5))

    def test_derived_seed_words_match_seedsequence(self):
        runs = np.array([0, 1, 2, 99, 2**16, 2**31 + 7, 2**32 - 1], dtype=np.int64)
        for seed in SEEDS:
            want = np.stack([
                np.random.SeedSequence(seed, spawn_key=(runtime._SCHED_TAG, int(r)))
                .generate_state(4, np.uint64)
                for r in runs
            ])
            assert np.array_equal(runtime._sched_seed_words(seed, runs), want)

    def test_invalid_window_size_rejected(self):
        ctx = RunContext(0)
        for bad in (-1, 2.0, "3"):
            with pytest.raises(ConfigurationError):
                ctx.schedulers(bad)
        assert ctx.peek_run_counter() == 0

    @pytest.mark.parametrize("seed", [-1, -(2**64)])
    def test_negative_seed_rejected_at_construction(self, seed):
        # Rejected up front with a named error instead of SeedSequence's
        # ValueError at the first stream.
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            RunContext(seed)

    def test_threads_take_disjoint_windows(self):
        ctx = RunContext(13)
        n_threads, n_windows, width = 4, 25, 8
        taken: list[list[np.random.Generator]] = []
        lock = threading.Lock()
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(n_windows):
                window = ctx.schedulers(width)
                with lock:
                    taken.append(window)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        total = n_threads * n_windows * width
        assert ctx.peek_run_counter() == total
        # Every run index appears exactly once, each window contiguous.
        ref = {
            g.bit_generator.state["state"]["state"]: r
            for r, g in enumerate(_reference(13, 0, total))
        }
        seen = []
        for window in taken:
            runs = [ref[g.bit_generator.state["state"]["state"]] for g in window]
            assert runs == list(range(runs[0], runs[0] + width))
            seen.extend(runs)
        assert sorted(seen) == list(range(total))

    def test_derived_seed_serves_only_pcg64_request(self):
        words = runtime._sched_seed_words(0, np.arange(2))
        shim = runtime._DerivedSeed(words[0])
        assert np.array_equal(shim.generate_state(4, np.uint64), words[0])
        with pytest.raises(NotImplementedError):
            shim.generate_state(8, np.uint32)


def _window(seed: int, start: int, n: int) -> RunStreams:
    ctx = RunContext(seed)
    ctx.seek_runs(start)
    return ctx.schedulers(n)


def _draw_block_inputs(gens, num_gpcs, n_blocks):
    rot = [int(g.integers(num_gpcs)) for g in gens] if num_gpcs is not None else None
    u = [g.random(n_blocks, dtype=np.float32) for g in gens] if n_blocks else None
    return rot, u


def _draw_raced_keys(gens, q, counts):
    mask, keys = [], []
    for g in gens:
        raced = g.random(counts.size) < q
        mask.append(raced)
        n_keys = int(counts[raced].sum())
        if n_keys:
            keys.append(g.random(n_keys))
    runs, cands = np.nonzero(np.array(mask).reshape(len(gens), counts.size))
    return runs, cands, np.concatenate(keys) if keys else np.empty(0)


def _assert_raced_keys(streams, gens, q, counts):
    got = streams.raced_keys(q, counts)
    want = _draw_raced_keys(gens, q, counts)
    assert got[2].dtype == np.float64
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _assert_block_inputs(streams, gens, num_gpcs, n_blocks):
    rot, u = streams.block_inputs(num_gpcs, n_blocks)
    want_rot, want_u = _draw_block_inputs(gens, num_gpcs, n_blocks)
    if num_gpcs is None:
        assert rot is None
    else:
        assert rot.dtype == np.int64 and rot.tolist() == want_rot
    if not n_blocks:
        assert u is None
    else:
        assert u.dtype == np.float32 and np.array_equal(u, np.reshape(want_u, u.shape))


class TestRunStreamsMatchGenerators:
    """Every batched draw pattern of a :class:`RunStreams` window equals
    the per-run NumPy ``Generator`` draws bit for bit, on both backends
    (the compiled PCG64 kernels and the per-run Generator loop)."""

    def test_kernel_self_check_selects_fast_path(self):
        from repro import backend

        if backend.backend_mode() != "compiled" and not backend.compiled_available():
            pytest.skip(f"compiled backend unavailable: {backend.availability_error()}")
        assert runtime._stream_kernels_ok()
        with backend.use_backend("compiled"):
            assert runtime._stream_kernels() is not None
        with backend.use_backend("numpy"):
            assert runtime._stream_kernels() is None

    @pytest.mark.parametrize(
        "seed,start,n,num_gpcs,n_blocks",
        [
            (0, 0, 50, 6, 13),
            (2**40 + 3, 5, 7, 1, 3),  # num_gpcs = 1 draws nothing
            (9, 1_000, 33, 2**31 + 1, 5),  # Lemire rejects ~half the words
            (2**127 + 9, 2**31, 40, 2**32, 2),  # full 32-bit range
            (4, 2**32 - 3, 8, 7, 9),  # crosses run 2**32
            (3, 17, 1, 8, 1),  # single-stream window
            (5, 0, 6, None, 0),  # no draw at all
        ],
    )
    def test_block_inputs(self, backend, seed, start, n, num_gpcs, n_blocks):
        _assert_block_inputs(
            _window(seed, start, n), _reference(seed, start, n), num_gpcs, n_blocks
        )

    def test_num_gpcs_one_draws_nothing(self, backend):
        streams = _window(11, 0, 5)
        rot, u = streams.block_inputs(1, 0)
        assert rot.tolist() == [0] * 5 and u is None
        # The next draw is each stream's first.
        got = streams.random_f32((3,))
        want = [g.random(3, dtype=np.float32) for g in _reference(11, 0, 5)]
        assert np.array_equal(got, want)

    def test_num_gpcs_out_of_range_rejected(self, backend):
        for bad in (0, 2**32 + 1):
            with pytest.raises(SchedulerError):
                _window(1, 0, 3).block_inputs(bad, 4)

    @pytest.mark.parametrize("shape", [(1,), (5,), (4, 3), (2, 0)])
    def test_random_f32(self, backend, shape):
        got = _window(6, 40, 9).random_f32(shape)
        want = [g.random(shape, dtype=np.float32) for g in _reference(6, 40, 9)]
        assert got.shape == (9,) + shape and np.array_equal(got, np.reshape(want, got.shape))

    @pytest.mark.parametrize("q", [0.0, 0.05, 0.5, 1.0])
    def test_raced_keys(self, backend, q):
        counts = np.random.default_rng(0).integers(2, 9, size=300)
        _assert_raced_keys(_window(8, 3, 20), _reference(8, 3, 20), q, counts)

    def test_raced_keys_large_pattern(self, backend):
        _assert_raced_keys(_window(2, 0, 300), _reference(2, 0, 300), 0.02, np.full(5_000, 3))

    def test_no_candidates_draw_nothing(self, backend):
        streams = _window(4, 0, 3)
        runs, cands, keys = streams.raced_keys(0.5, np.empty(0, dtype=np.int64))
        assert runs.size == cands.size == keys.size == 0
        got = streams.random_f32((2,))
        assert np.array_equal(got, [g.random(2, dtype=np.float32) for g in _reference(4, 0, 3)])

    def test_persistent_window_with_shrinking_subsets(self, backend):
        # 40+ calls on one window: odd float32 counts leave a half-word
        # buffered across calls, and take() views draw from (and advance)
        # the shared rows, as the CG run batch's active runs do.
        seed, n = 2**40 + 3, 24
        streams, gens = _window(seed, 7, n), _reference(seed, 7, n)
        fz = np.random.default_rng(1)
        active = np.arange(n)
        counts = fz.integers(2, 6, size=37)
        for call in range(45):
            if call % 5 == 4 and active.size > 3:
                active = np.sort(fz.choice(active, size=active.size - 2, replace=False))
            view = streams.take(active)
            picked = [gens[i] for i in active]
            pattern = call % 3
            if pattern == 0:
                _assert_block_inputs(view, picked, 6, int(fz.integers(1, 8)))
            elif pattern == 1:
                m = int(fz.integers(1, 6)) * 2 + 1
                got = view.random_f32((m,))
                assert np.array_equal(got, [g.random(m, dtype=np.float32) for g in picked])
            else:
                _assert_raced_keys(view, picked, 0.3, counts)

    def test_slices_and_views_compose(self, backend):
        streams, gens = _window(12, 0, 10), _reference(12, 0, 10)
        view = streams[2:9].take([0, 3, 5])  # rows 2, 5, 7
        _assert_block_inputs(view, [gens[i] for i in (2, 5, 7)], 6, 4)
        _assert_block_inputs(streams[::3], [gens[i] for i in (0, 3, 6, 9)], 6, 4)
        with pytest.raises(IndexError):
            streams.take([10])

    def test_concat_joins_windows(self, backend):
        parts, gens = [], []
        ctx = RunContext(21)
        for start in (40, 0, 90):
            ctx.seek_runs(start)
            parts.append(ctx.schedulers(4))
            gens += _reference(21, start, 4)
        joined = RunStreams.concat(parts)
        _assert_block_inputs(joined, gens, 6, 5)
        with pytest.raises(SchedulerError):
            parts[0].random_f32((1,))  # rows moved to the joined window

    def test_wrapped_generators_draw_through_them(self, backend):
        gens = _reference(13, 0, 5)
        _assert_block_inputs(RunStreams.wrap(gens), _reference(13, 0, 5), 6, 3)
        # The wrapped Generators themselves advanced past the draws.
        after = _reference(13, 0, 5)
        _draw_block_inputs(after, 6, 3)
        assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in after]

    def test_wrap_is_identity_on_windows(self):
        streams = _window(1, 0, 3)
        assert RunStreams.wrap(streams) is streams


class TestRunStreamsOwnership:
    """A row is drawn through the batched methods or through its
    Generator, never both."""

    def test_batched_then_generator_raises(self, backend):
        streams = _window(3, 0, 4)
        streams.take([1, 2]).random_f32((2,))
        with pytest.raises(SchedulerError, match="batched"):
            streams[1]
        with pytest.raises(SchedulerError):
            list(streams)
        assert streams[0].random() == _reference(3, 0, 1)[0].random()

    def test_generator_then_batched_raises(self, backend):
        streams = _window(3, 0, 4)
        streams[2].random()
        with pytest.raises(SchedulerError):
            streams.block_inputs(6, 3)
        with pytest.raises(SchedulerError):
            streams[1:3].raced_keys(0.5, np.array([2, 2]))
        # Untouched rows still draw batched.
        _assert_block_inputs(streams.take([0, 3]), [_reference(3, 0, 4)[i] for i in (0, 3)], 6, 3)

    def test_materialised_rows_are_cached(self):
        streams = _window(3, 0, 4)
        assert streams[1] is streams[1]
        assert streams[-1] is streams[3]
        with pytest.raises(IndexError):
            streams[4]

    def test_no_draw_does_not_claim(self, backend):
        streams = _window(3, 0, 2)
        streams.raced_keys(0.0, np.array([2, 3]))
        assert streams[0].bit_generator.state == _reference(3, 0, 1)[0].bit_generator.state

    def test_only_untouched_windows_concatenate(self):
        a, b = _window(5, 0, 3), _window(5, 3, 3)
        b[0]
        with pytest.raises(SchedulerError):
            RunStreams.concat([a, b])
        with pytest.raises(SchedulerError):
            RunStreams.concat([RunStreams.wrap(_reference(5, 0, 2))])


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


class TestErmvRows:
    def _check(self, reference, outputs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = np.array([ermv(reference, o) for o in outputs], dtype=np.float64)
            got = ermv_rows(reference, outputs)
        assert got.dtype == np.float64
        assert _bits_equal(got, want.reshape(-1))

    @pytest.mark.parametrize("shape", [(7,), (3, 4, 5), (64, 64, 8), (200_000,)])
    def test_matches_ermv_per_row(self, shape):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal(shape).astype(np.float32)
        outs = [ref + rng.standard_normal(shape).astype(np.float32) * np.float32(1e-3)
                for _ in range(9)]
        outs.append(ref.copy())
        self._check(ref, outs)

    def test_special_reference_values(self):
        ref = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.0, 5e-324])
        outs = [
            ref.copy(),
            np.array([0.0, 1.0, np.inf, np.inf, np.nan, 1.0, -2.0, 5e-324]),
            np.array([1e-300, -0.0, -np.inf, 0.0, 1.0, np.nan, 5.0, 0.0]),
            np.full(8, np.nan),
            np.zeros(8),
        ]
        self._check(ref, outs)
        self._check(np.zeros(8), outs)

    def test_mixed_output_dtypes(self):
        ref = np.linspace(-3, 3, 13).astype(np.float32)
        outs = [ref.astype(np.float16), ref.astype(np.float64) + 1e-9, ref + np.float32(1)]
        self._check(ref, outs)

    def test_many_rows_span_several_chunks(self, monkeypatch):
        from repro.metrics import array

        monkeypatch.setattr(array, "_ERMV_CHUNK_BYTES", 3 * 8 * 10)
        rng = np.random.default_rng(2)
        ref = rng.standard_normal(10)
        self._check(ref, [ref + rng.standard_normal(10) * 1e-6 for _ in range(11)])

    def test_empty_inputs(self):
        assert ermv_rows(np.ones(4), []).shape == (0,)
        self._check(np.zeros((0,)), [np.zeros((0,)), np.zeros((0,))])
        self._check(np.zeros((2, 0)), [np.zeros((2, 0))])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ermv_rows(np.ones(4), [np.ones(4), np.ones(5)])
