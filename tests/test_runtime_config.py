"""Tests for RunContext (repro.runtime) and determinism config (repro.config)."""

import warnings

import numpy as np
import pytest

import repro
from repro.config import (
    DeterminismWarning,
    check_deterministic_allowed,
    deterministic_mode,
)
from repro.errors import ConfigurationError, NondeterministicError
from repro.runtime import RunContext, get_context, use_context


class TestRunContext:
    def test_data_stream_is_run_stable(self):
        ctx = RunContext(5)
        a = ctx.data().standard_normal(10)
        b = ctx.data().standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_data_streams_differ_by_index(self):
        ctx = RunContext(5)
        a = ctx.data(0).standard_normal(10)
        b = ctx.data(1).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_scheduler_advances_per_call(self):
        ctx = RunContext(5)
        a = ctx.scheduler().standard_normal(10)
        b = ctx.scheduler().standard_normal(10)
        assert not np.array_equal(a, b)

    def test_same_seed_same_schedule(self):
        a = RunContext(9).scheduler().standard_normal(5)
        b = RunContext(9).scheduler().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RunContext(1).scheduler().standard_normal(5)
        b = RunContext(2).scheduler().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_run_counter_tracking(self):
        ctx = RunContext(0)
        assert ctx.peek_run_counter() == 0
        ctx.scheduler()
        ctx.scheduler()
        assert ctx.peek_run_counter() == 2

    def test_init_stream_stable(self):
        ctx = RunContext(5)
        np.testing.assert_array_equal(
            ctx.init().standard_normal(4), ctx.init().standard_normal(4)
        )

    def test_non_int_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RunContext(seed="abc")

    def test_use_context_scoping(self):
        ctx = RunContext(77)
        base = get_context()
        with use_context(ctx) as active:
            assert get_context() is ctx is active
        assert get_context() is base

    def test_seed_all_replaces_default(self):
        ctx = repro.seed_all(123)
        assert repro.default_context() is ctx
        repro.seed_all(0)


class TestDeterminismConfig:
    def test_default_off(self):
        assert not repro.are_deterministic_algorithms_enabled()

    def test_enable_disable(self):
        repro.use_deterministic_algorithms(True)
        assert repro.are_deterministic_algorithms_enabled()
        repro.use_deterministic_algorithms(False)
        assert not repro.are_deterministic_algorithms_enabled()

    def test_non_bool_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.use_deterministic_algorithms(1)

    def test_warn_only_flag(self):
        repro.use_deterministic_algorithms(True, warn_only=True)
        assert repro.is_deterministic_algorithms_warn_only_enabled()
        repro.use_deterministic_algorithms(False)
        assert not repro.is_deterministic_algorithms_warn_only_enabled()

    def test_scoped_mode_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with deterministic_mode():
                raise RuntimeError("boom")
        assert not repro.are_deterministic_algorithms_enabled()

    def test_check_passthrough_when_off(self):
        assert check_deterministic_allowed("op", has_deterministic=False) is False

    def test_check_requires_deterministic_path(self):
        with deterministic_mode():
            assert check_deterministic_allowed("op", has_deterministic=True) is True

    def test_check_raises_without_deterministic_impl(self):
        # The paper's scatter_reduce failure mode.
        with deterministic_mode():
            with pytest.raises(NondeterministicError):
                check_deterministic_allowed("scatter_reduce", has_deterministic=False)

    def test_warn_only_warns_and_continues(self):
        with deterministic_mode(warn_only=True):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = check_deterministic_allowed("op", has_deterministic=False)
        assert result is False
        assert any(issubclass(w.category, DeterminismWarning) for w in caught)
