"""Tests for the atomic fold."""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.fp import serial_sum
from repro.gpusim import atomic_fold


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
