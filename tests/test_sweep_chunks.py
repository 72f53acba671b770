"""Run-chunked sweep kernel: ``sweep_run_payloads`` streams a shard's run
window through fixed-size run chunks.  Every chunking (one run, three
runs, the default, one whole-window chunk) and every window must give the
same per-run bits, digests and ladder position, memory must not grow with
the window beyond the per-run results, and empty run counts fail by name.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import _opruns, get_experiment
from repro.experiments._opruns import (
    SweepCell,
    _build_workload,
    _evaluate,
    sweep_run_payloads,
    variability_from_payload,
)
from repro.runtime import RunContext

SEED = 11
N_RUNS = 9
START = 5  # a non-zero ladder position on entry

CELLS = {
    "sr_sum": [SweepCell("scatter_reduce", 400, 0.5, "sum")],
    "sr_mean": [SweepCell("scatter_reduce", 300, 1.0, "mean")],
    "index_add": [SweepCell("index_add", 24, 0.5)],
    # Pooled groups with different row widths (and both ops) in one call.
    "mixed": [
        SweepCell("scatter_reduce", 400, 0.2, "sum"),
        SweepCell("index_add", 24, 1.0),
        SweepCell("scatter_reduce", 400, 0.8, "mean"),
        SweepCell("index_add", 24, 0.3),
        SweepCell("scatter_reduce", 250, 1.0, "sum"),
    ],
}

WINDOWS = [(0, N_RUNS), (4, N_RUNS), (4, 5)]


def _group_row_bytes(cells) -> int:
    """Largest per-run row bytes summed over one pooled cell group."""
    groups: dict = {}
    for c in cells:
        width = c.n if c.op == "index_add" else 1
        row = max(1, round(c.ratio * c.n)) * width * 4
        groups[c.op, width] = groups.get((c.op, width), 0) + row
    return max(groups.values())


def _run(cells, lo, hi, *, n_runs=N_RUNS):
    ctx = RunContext(SEED)
    ctx.seek_runs(START)
    payloads = sweep_run_payloads(cells, n_runs, ctx, lo=lo, hi=hi)
    finished = [{k: v.finish() for k, v in p.items()} for p in payloads]
    return finished, ctx.peek_run_counter()


@pytest.fixture(params=["one_run", "three_runs", "default"])
def chunking(request, monkeypatch):
    def set_for(cells):
        if request.param == "one_run":
            monkeypatch.setattr(_opruns, "_RUN_CHUNK_BYTES", 1)
        elif request.param == "three_runs":
            monkeypatch.setattr(_opruns, "_RUN_CHUNK_BYTES", 3 * _group_row_bytes(cells))

    return set_for


def _whole_window(cells, monkeypatch):
    """The pre-chunking kernel's result: the whole window as one chunk."""
    with monkeypatch.context() as m:
        m.setattr(_opruns, "_RUN_CHUNK_BYTES", 1 << 62)
        return _run(cells, 0, N_RUNS)


class TestChunkBoundaries:
    @pytest.mark.parametrize("name", sorted(CELLS))
    @pytest.mark.parametrize("window", WINDOWS, ids=lambda w: f"{w[0]}-{w[1]}")
    def test_window_matches_whole_window(self, name, window, chunking, monkeypatch):
        cells = CELLS[name]
        full, full_counter = _whole_window(cells, monkeypatch)
        chunking(cells)
        lo, hi = window
        got, counter = _run(cells, lo, hi)
        assert counter == full_counter == START + sum(
            N_RUNS + (c.op == "scatter_reduce") for c in cells
        )
        for g, f in zip(got, full, strict=True):
            assert g["vcs"].tobytes() == f["vcs"][lo:hi].tobytes()
            assert g["ermvs"].tobytes() == f["ermvs"][lo:hi].tobytes()
            assert g["digests"] == f["digests"][lo:hi]

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_races_are_exercised(self, name, monkeypatch):
        # Guard against a vacuous pass: the windows really differ per run.
        full, _ = _whole_window(CELLS[name], monkeypatch)
        assert any(len(set(f["digests"])) > 1 for f in full)
        assert any(f["vcs"].max() > 0 for f in full)

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_matches_scalar_path_summary(self, name, chunking):
        cells = CELLS[name]
        chunking(cells)
        got, counter = _run(cells, 0, N_RUNS)
        ctx = RunContext(SEED)
        ctx.seek_runs(START)
        for cell, payload in zip(cells, got, strict=True):
            want = _evaluate(cell, _build_workload(cell, ctx, np.float32), N_RUNS, ctx)
            assert variability_from_payload(payload) == want
        assert ctx.peek_run_counter() == counter

    def test_shards_merge_to_whole_window(self, chunking, monkeypatch):
        cells = CELLS["mixed"]
        full, _ = _whole_window(cells, monkeypatch)
        chunking(cells)
        parts = [_run(cells, lo, hi)[0] for lo, hi in ((0, 2), (2, 7), (7, N_RUNS))]
        for i, f in enumerate(full):
            assert np.concatenate([p[i]["vcs"] for p in parts]).tobytes() == f["vcs"].tobytes()
            assert sum((p[i]["digests"] for p in parts), []) == f["digests"]


def _traced(cells, n_runs) -> tuple[int, int]:
    """(peak, retained) tracemalloc bytes of one full-window kernel call."""
    tracemalloc.start()
    try:
        payloads = sweep_run_payloads(cells, n_runs, RunContext(SEED))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(payloads) == len(cells)
    return peak, retained


class TestMemoryBound:
    def test_peak_does_not_grow_with_the_window(self):
        exp = get_experiment("fig4")
        cells = exp._cells(exp.params_for("default"))
        sweep_run_payloads(cells, 2, RunContext(SEED))  # warm the workload cache
        small_peak, small_kept = _traced(cells, 200)
        big_peak, big_kept = _traced(cells, 1_600)
        # 8x the runs; the whole-window kernel's peak grew ~8x with them.
        assert big_peak <= 1.25 * small_peak
        # The only window-sized state is the per-run results: two float64s
        # and one 64-hex-digit digest string per run and cell (~140 B);
        # a single output row of fig4 is 400 B to 40 kB.
        assert (big_kept - small_kept) / (1_400 * len(cells)) < 256


class TestEmptyRunCounts:
    @pytest.mark.parametrize("name", ["sr_sum", "index_add"])
    def test_zero_runs_is_a_named_error(self, name):
        with pytest.raises(ConfigurationError, match="n_runs must be >= 1"):
            sweep_run_payloads(CELLS[name], 0, RunContext(SEED))

    def test_fig4_zero_runs_is_a_named_error(self):
        with pytest.raises(ConfigurationError, match="n_runs must be >= 1"):
            get_experiment("fig4").run(n_runs=0)

    @pytest.mark.parametrize("name", sorted(CELLS))
    @pytest.mark.parametrize("at", [0, 2, 5])
    def test_empty_window_yields_empty_vectors(self, name, at):
        cells = CELLS[name]
        got, counter = _run(cells, at, at, n_runs=5)
        assert counter == START + sum(5 + (c.op == "scatter_reduce") for c in cells)
        for payload in got:
            assert payload["vcs"].shape == payload["ermvs"].shape == (0,)
            assert payload["digests"] == []

    def test_bad_window_still_rejected(self):
        with pytest.raises(ValueError, match="bad run window"):
            sweep_run_payloads(CELLS["sr_sum"], 5, RunContext(SEED), lo=3, hi=2)
