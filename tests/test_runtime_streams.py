"""Run-stream derivation contract: ``RunContext.schedulers(n)`` is
bit-identical to ``n`` successive ``scheduler()`` calls, plus the
row-batched metric and digest helpers that ride on the same run axis."""

from __future__ import annotations

import sys
import threading
import warnings

import numpy as np
import pytest

from repro import runtime
from repro.errors import ConfigurationError, ExperimentError, ShapeError
from repro.experiments.sharding import run_digest, run_digests
from repro.metrics.array import ermv, ermv_rows
from repro.runtime import RunContext

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
        assert len(RunContext(3).schedulers(runtime._BATCH_MIN_RUNS)) == runtime._BATCH_MIN_RUNS

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
        got = ctx.schedulers(10) + [ctx.scheduler()] + ctx.schedulers(30)
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

    def test_negative_seed_fails_like_scheduler(self):
        ctx = RunContext(-1)
        with pytest.raises(ValueError):
            ctx.scheduler()
        with pytest.raises(ValueError):
            ctx.schedulers(10)

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


class TestRunDigests:
    @pytest.mark.parametrize(
        "stack",
        [
            np.random.default_rng(3).standard_normal((5, 7)).astype(np.float32),
            np.arange(24, dtype=np.int64).reshape(2, 3, 4)[:, ::2],
            np.random.default_rng(4).standard_normal((4, 3)).astype(">f8"),
            np.zeros((3, 0)),
            np.zeros((0, 5)),
        ],
    )
    def test_matches_run_digest(self, stack):
        assert run_digests(stack) == [run_digest(row) for row in stack]

    def test_needs_a_stack_of_rows(self):
        with pytest.raises(ExperimentError):
            run_digests(np.arange(3))
