"""Tests for the OpenMP-like runtime (paper SIII-B, Table 3).

The multi-rank allreduce extension is :mod:`repro.gpusim.collectives`,
tested in ``test_collectives.py``."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fp import exact_sum, serial_sum
from repro.openmp import OpenMPRuntime, Schedule


class TestSchedules:
    def test_static_default_contiguous_blocks(self):
        rt = OpenMPRuntime(num_threads=4)
        chunks = rt.assignment(10).chunks
        assert chunks == ((0, 0, 3), (1, 3, 6), (2, 6, 8), (3, 8, 10))

    def test_static_chunked_round_robin(self):
        rt = OpenMPRuntime(num_threads=2, chunk=2)
        chunks = rt.assignment(8).chunks
        assert [c[0] for c in chunks] == [0, 1, 0, 1]

    def test_dynamic_covers_all_iterations(self, ctx):
        rt = OpenMPRuntime(num_threads=4, schedule="dynamic", chunk=3, ctx=ctx)
        chunks = rt.assignment(20).chunks
        covered = sorted((s, e) for _, s, e in chunks)
        assert covered[0][0] == 0 and covered[-1][1] == 20

    def test_guided_shrinks_chunks(self, ctx):
        rt = OpenMPRuntime(num_threads=4, schedule=Schedule.GUIDED, ctx=ctx)
        sizes = [e - s for _, s, e in rt.assignment(1000).chunks]
        assert sizes[0] > sizes[-1]

    def test_zero_iterations(self):
        assert OpenMPRuntime(num_threads=2).assignment(0).chunks == ()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OpenMPRuntime(num_threads=0)
        with pytest.raises(ConfigurationError):
            OpenMPRuntime(chunk=0)
        with pytest.raises(ConfigurationError):
            OpenMPRuntime(backend="tbb")


class TestReduceSum:
    def test_ordered_is_serial_fold(self, ctx, rng):
        x = rng.standard_normal(10_000)
        rt = OpenMPRuntime(num_threads=8, ctx=ctx)
        assert rt.reduce_sum(x, ordered=True) == serial_sum(x)

    def test_ordered_is_bitwise_stable(self, ctx, rng):
        x = rng.standard_normal(10_000)
        rt = OpenMPRuntime(num_threads=8, ctx=ctx)
        vals = {rt.reduce_sum(x, ordered=True) for _ in range(10)}
        assert len(vals) == 1

    def test_normal_reduction_varies(self, ctx, rng):
        # Table 3's left column: trailing digits wobble.
        x = rng.uniform(0, 1, 200_000) * 1e-9
        rt = OpenMPRuntime(num_threads=32, ctx=ctx)
        vals = rt.reduce_many(x, 10)
        assert len(set(vals.tolist())) > 1

    def test_normal_reduction_close_to_exact(self, ctx, rng):
        x = rng.standard_normal(10_000)
        rt = OpenMPRuntime(num_threads=8, ctx=ctx)
        assert rt.reduce_sum(x) == pytest.approx(exact_sum(x), abs=1e-9)

    def test_dynamic_schedule_reduction_correct(self, ctx, rng):
        x = rng.standard_normal(5_000)
        rt = OpenMPRuntime(num_threads=4, schedule="dynamic", chunk=64, ctx=ctx)
        assert rt.reduce_sum(x) == pytest.approx(exact_sum(x), abs=1e-10)

    def test_threads_backend_correct(self, rng):
        x = rng.standard_normal(5_000)
        rt = OpenMPRuntime(num_threads=4, backend="threads")
        assert rt.reduce_sum(x) == pytest.approx(exact_sum(x), abs=1e-10)

    def test_threads_backend_ordered_matches_serial(self, rng):
        x = rng.standard_normal(5_000)
        rt = OpenMPRuntime(num_threads=4, backend="threads")
        assert rt.reduce_sum(x, ordered=True) == serial_sum(x)

    def test_2d_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            OpenMPRuntime(ctx=ctx).reduce_sum(np.ones((2, 2)))

    def test_reduce_many_shape(self, ctx, rng):
        x = rng.standard_normal(100)
        out = OpenMPRuntime(ctx=ctx).reduce_many(x, 7)
        assert out.shape == (7,)

    def test_reduce_many_validation(self, ctx):
        with pytest.raises(ConfigurationError):
            OpenMPRuntime(ctx=ctx).reduce_many(np.ones(4), 0)

    def test_single_thread_equals_serial(self, ctx, rng):
        x = rng.standard_normal(1000)
        rt = OpenMPRuntime(num_threads=1, ctx=ctx)
        assert rt.reduce_sum(x) == serial_sum(x)
