"""Tests for atomics, retirement counters and streams."""

import numpy as np
import pytest

from repro.errors import LaunchError, SchedulerError
from repro.fp import serial_sum
from repro.gpusim import RetirementCounter, Stream, atomic_fold


class TestAtomicFold:
    def test_identity_order_is_serial(self, rng):
        x = rng.standard_normal(1000)
        assert atomic_fold(x) == serial_sum(x)

    def test_explicit_order(self, rng):
        x = rng.standard_normal(100)
        perm = rng.permutation(100)
        assert atomic_fold(x, perm) == serial_sum(x[perm])

    def test_order_shape_mismatch_raises(self):
        with pytest.raises(SchedulerError):
            atomic_fold(np.ones(4), np.arange(3))


class TestRetirementCounter:
    def test_last_block_detected(self):
        c = RetirementCounter(4)
        results = [c.retire(b) for b in range(4)]
        assert results == [False, False, False, True]
        assert c.last_block == 3

    def test_last_depends_on_order_not_id(self):
        # Whichever block retires last wins - identity is schedule
        # dependent, determinism of the combine is not.
        c = RetirementCounter(3)
        c.retire(2)
        c.retire(0)
        assert c.retire(1) is True
        assert c.last_block == 1

    def test_over_retirement_raises(self):
        c = RetirementCounter(1)
        c.retire(0)
        with pytest.raises(SchedulerError):
            c.retire(0)

    def test_out_of_range_block_raises(self):
        with pytest.raises(SchedulerError):
            RetirementCounter(2).retire(5)

    def test_zero_grid_rejected(self):
        with pytest.raises(SchedulerError):
            RetirementCounter(0)


class TestStream:
    def test_in_order_execution(self):
        log = []
        s = Stream()
        s.launch(lambda: log.append(1))
        s.launch(lambda: log.append(2))
        s.launch(lambda: log.append(3))
        s.synchronize()
        assert log == [1, 2, 3]

    def test_results_available_after_sync(self):
        s = Stream()
        k = s.launch(lambda: 42)
        s.synchronize()
        assert s.result(k) == 42

    def test_reading_before_sync_is_a_race(self):
        s = Stream()
        k = s.launch(lambda: 42)
        with pytest.raises(LaunchError):
            s.result(k)

    def test_non_callable_rejected(self):
        with pytest.raises(LaunchError):
            Stream().launch(42)

    def test_unknown_position_raises(self):
        s = Stream()
        s.synchronize()
        with pytest.raises(LaunchError):
            s.result(0)
