"""Device-axis suite: anchored streams, batched↔scalar cells, profiles.

Pins the device-plane contract of the cross-architecture sweeps
(:mod:`repro.gpusim.scheduler`, "Device planes"):

* :meth:`RunContext.device_stream` is a pure function of
  ``(seed, device, anchor, cell)`` — no two planes share bits;
* every batched ``(device, array)`` cell of
  :func:`~repro.experiments._sumdist.spa_vs_samples_devices` is
  bit-identical to a scalar single-row evaluation of the same cell draws;
* run windows slice the full sweep bit-exactly (the shard derivation);
* a sweep over any device subset reproduces each device's rows;
* the warp-32-vs-64 ablation pair shares block-level bits and diverges
  only at warp retirement granularity;
* the deterministic LPU profile yields the zero-variability row.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.lpu  # noqa: F401  (registers the "lpu" device)
from repro.errors import ConfigurationError, SchedulerError
from repro.experiments import get_experiment
from repro.experiments._sumdist import sample_array, spa_vs_samples_devices
from repro.fp.summation import block_partials_runs, tree_fold
from repro.gpusim.atomics import atomic_fold
from repro.gpusim.device import get_device, list_devices
from repro.gpusim.kernel import LaunchConfig
from repro.gpusim.scheduler import WaveSchedulerBatch
from repro.metrics.scalar import scalar_variability_many
from repro.runtime import RunContext

DEVICES = ("v100", "gh200", "mi250x", "a100", "mi300a")


def _sweep(ctx, xs, n_runs, devices=DEVICES, **kw):
    return spa_vs_samples_devices(xs, n_runs, ctx, devices=devices, **kw)


@pytest.fixture(scope="module")
def xs():
    return np.stack([
        sample_array(RunContext(3).data(stream=1), 3_000, "uniform")
        for _ in range(2)
    ])


class TestDeviceStream:
    def test_pure_function_of_arguments(self):
        a = RunContext(7).device_stream("gh200", 2, anchor=5).random(4)
        b = RunContext(7).device_stream("gh200", 2, anchor=5).random(4)
        np.testing.assert_array_equal(a, b)

    def test_planes_are_disjoint(self):
        ctx = RunContext(7)
        draws = {
            name: ctx.device_stream(*args[:-1], anchor=args[-1]).random(3).tobytes()
            for name, args in {
                "base": ("v100", 0, 0),
                "device": ("gh200", 0, 0),
                "cell": ("v100", 1, 0),
                "anchor": ("v100", 0, 1),
            }.items()
        }
        assert len(set(draws.values())) == 4

    def test_case_insensitive_device_name(self):
        a = RunContext(1).device_stream("V100").random(3)
        b = RunContext(1).device_stream("v100").random(3)
        np.testing.assert_array_equal(a, b)

    def test_independent_of_run_ladder(self):
        ctx = RunContext(9)
        before = ctx.device_stream("v100", 0).random(3)
        ctx.scheduler()
        ctx.seek_runs(40)
        np.testing.assert_array_equal(before, ctx.device_stream("v100", 0).random(3))
        assert ctx.peek_run_counter() == 40  # device planes never advance it

    def test_seed_changes_the_plane(self):
        a = RunContext(1).device_stream("v100").random(3)
        b = RunContext(2).device_stream("v100").random(3)
        assert not np.array_equal(a, b)

    def test_validation(self):
        ctx = RunContext(0)
        with pytest.raises(ConfigurationError):
            ctx.device_stream("")
        with pytest.raises(ConfigurationError):
            ctx.device_stream("v100", -1)
        with pytest.raises(ConfigurationError):
            ctx.device_stream("v100", 0, anchor=-2)


class TestCellContract:
    """Batched device cells vs scalar single-row evaluation."""

    @pytest.mark.parametrize("device", DEVICES)
    def test_batched_rows_match_scalar_cells(self, xs, device):
        n_runs = 7
        vs = _sweep(RunContext(5), xs, n_runs, devices=(device,))[device]
        dev = get_device(device)
        nb = (xs.shape[1] + 63) // 64
        launch = LaunchConfig(device=dev, n_blocks=nb, threads_per_block=64,
                              shared_mem_bytes=min(64 * 8, dev.shared_mem_per_block))
        batch = WaveSchedulerBatch(launch, None)
        partials = block_partials_runs(xs, nb)
        s_d = np.array([tree_fold(p) for p in partials])
        for a in range(xs.shape[0]):
            # The cell contract: raw rotations for the whole run axis up
            # front, then the float32 block rows in run order.
            rng = RunContext(5).device_stream(device, a, anchor=0)
            rots = rng.integers(dev.num_gpcs, size=n_runs)
            u = rng.random((n_runs, nb), dtype=np.float32)
            for r in range(n_runs):
                order = batch.block_completion_orders_from_draws(
                    rots[r : r + 1], u[r : r + 1], 0.0
                )[0]
                s = atomic_fold(partials[a], order)
                expected = scalar_variability_many(np.array([s]), s_d[a])[0]
                assert vs[a, r] == expected

    def test_from_draws_matches_drawn_request(self):
        # The explicit-draws method must share the drawn requests' transform
        # bits: feed a request streams that replay the same two draws.
        dev = get_device("gh200")
        launch = LaunchConfig(device=dev, n_blocks=37, threads_per_block=64)
        rng = RunContext(11).device_stream("gh200", 0)
        rots = rng.integers(dev.num_gpcs, size=3)
        u = rng.random((3, 37), dtype=np.float32)
        batch = WaveSchedulerBatch(launch, None)
        orders = batch.block_completion_orders_from_draws(rots, u, 0.0)

        class _Replay:
            """Minimal Generator stand-in replaying recorded draws."""

            def __init__(self, rot, row):
                self._rot, self._row = rot, row

            def integers(self, n):
                return self._rot

            def random(self, n=None, dtype=None, out=None):
                if out is None:
                    return self._row.copy()
                out[...] = self._row
                return out

        replayed = batch.block_completion_orders(
            3, 0.0, rngs=[_Replay(rots[r], u[r]) for r in range(3)]
        )
        np.testing.assert_array_equal(orders, replayed)

    def test_run_window_slices_the_full_sweep(self, xs):
        full = _sweep(RunContext(5), xs, 11)
        for lo, hi in ((0, 11), (0, 4), (4, 9), (9, 11), (5, 6)):
            part = _sweep(RunContext(5), xs, 11, run_lo=lo, run_hi=hi)
            for device in DEVICES:
                np.testing.assert_array_equal(part[device], full[device][:, lo:hi])

    def test_device_subset_reproduces_rows(self, xs):
        full = _sweep(RunContext(5), xs, 6)
        for device in DEVICES:
            solo = _sweep(RunContext(5), xs, 6, devices=(device,))
            np.testing.assert_array_equal(solo[device], full[device])
        pair = _sweep(RunContext(5), xs, 6, devices=("mi300a", "v100"))
        np.testing.assert_array_equal(pair["v100"], full["v100"])

    def test_anchor_shifts_every_plane(self, xs):
        a = _sweep(RunContext(5), xs, 5)
        b = _sweep(RunContext(5), xs, 5, anchor=10)
        for device in DEVICES:
            assert not np.array_equal(a[device], b[device])

    def test_bad_window_rejected(self, xs):
        with pytest.raises(ValueError):
            _sweep(RunContext(0), xs, 5, run_lo=3, run_hi=2)
        with pytest.raises(ValueError):
            _sweep(RunContext(0), xs, 5, run_hi=6)

    def test_from_draws_validation(self):
        launch = LaunchConfig(device=get_device("v100"), n_blocks=8, threads_per_block=64)
        batch = WaveSchedulerBatch(launch, None)
        with pytest.raises(SchedulerError):
            batch.block_completion_orders_from_draws(None, None)
        with pytest.raises(SchedulerError):
            batch.block_completion_orders_from_draws(
                np.zeros(2, dtype=np.int64),
                np.zeros((3, 8), dtype=np.float32),
            )


class TestWarpAblationPair:
    def test_profiles_differ_only_in_warp_size(self):
        w32, w64 = get_device("warp32"), get_device("warp64")
        assert (w32.warp_size, w64.warp_size) == (32, 64)
        skip = {"name", "vendor", "warp_size"}
        for field in w32.__dataclass_fields__:
            if field in skip:
                continue
            assert getattr(w32, field) == getattr(w64, field), field

    def test_block_orders_identical_thread_orders_differ(self):
        # The block-level model never reads warp_size: same stream, same
        # completion order.  Warp retirement granularity does read it.
        orders, threads = {}, {}
        for name in ("warp32", "warp64"):
            dev = get_device(name)
            launch = LaunchConfig(device=dev, n_blocks=24, threads_per_block=128)
            ws = WaveSchedulerBatch(launch, None)
            orders[name] = ws.block_completion_orders(
                1, 0.0, rngs=[np.random.default_rng(42)]
            )
            threads[name] = ws.thread_retirement_orders(
                1, 24 * 128, 0.5, rngs=[np.random.default_rng(42)]
            )
        np.testing.assert_array_equal(orders["warp32"], orders["warp64"])
        assert not np.array_equal(threads["warp32"], threads["warp64"])


class TestDeterministicRow:
    def test_lpu_cells_have_zero_variability(self, xs):
        vs = _sweep(RunContext(5), xs, 6, devices=("lpu",))["lpu"]
        assert vs.shape == (2, 6)
        # Constant per array: the static schedule produces one bit pattern.
        for a in range(2):
            assert np.unique(vs[a]).size == 1

    def test_lpu_draws_nothing_from_the_device_plane(self, xs):
        # Anchors perturb every FPNA plane but cannot touch a
        # deterministic device's single schedule.
        a = _sweep(RunContext(5), xs, 4, devices=("lpu",))["lpu"]
        b = _sweep(RunContext(5), xs, 4, devices=("lpu",), anchor=99)["lpu"]
        np.testing.assert_array_equal(a, b)

    def test_all_deterministic_sweep_finalizes(self):
        # Regression: an all-deterministic device list used to crash the
        # notes summary on min() of an empty FPNA-std list.
        res = get_experiment("figS1").run(
            ctx=RunContext(seed=0),
            devices=("lpu",), n_elements=2_000, n_arrays=2, n_runs=10,
        )
        assert [r["device"] for r in res.rows] == ["lpu"]
        assert "no FPNA device" in res.notes

    def test_figs1_reports_the_zero_variability_row(self):
        res = get_experiment("figS1").run(
            ctx=RunContext(seed=0),
            devices=("v100", "lpu"), n_elements=3_000, n_arrays=2, n_runs=16,
        )
        rows = {r["device"]: r for r in res.rows}
        assert rows["lpu"]["deterministic"] is True
        assert rows["lpu"]["vs_std_x1e16"] == 0.0
        assert rows["lpu"]["distinct_sums_per_array"] == 1.0
        assert rows["v100"]["deterministic"] is False
        assert rows["v100"]["vs_std_x1e16"] > 0.0


class TestRegistryProfiles:
    def test_new_profiles_registered(self):
        names = list_devices()
        for name in ("a100", "mi300a", "warp32", "warp64", "lpu"):
            assert name in names

    def test_vendor_and_wavefront_conventions(self):
        assert get_device("a100").warp_size == 32
        assert get_device("mi300a").warp_size == 64
        assert get_device("mi300a").vendor == "amd"
        assert get_device("lpu").deterministic is True


class TestFigS1Experiment:
    OV = {"n_elements": 2_500, "n_arrays": 2, "n_runs": 12}

    def test_reused_context_continues_fresh_planes(self):
        ctx = RunContext(seed=0)
        exp = get_experiment("figS1")
        first = exp.run(ctx=ctx, **self.OV)
        second = exp.run(ctx=ctx, **self.OV)
        assert first.rows != second.rows
        replay = exp.run(ctx=RunContext(seed=0), **self.OV)
        assert first.rows == replay.rows

    def test_device_order_does_not_change_rows(self):
        exp = get_experiment("figS1")
        fwd = exp.run(ctx=RunContext(0), devices=("v100", "gh200"), **self.OV)
        rev = exp.run(ctx=RunContext(0), devices=("gh200", "v100"), **self.OV)
        by_dev_fwd = {r["device"]: r for r in fwd.rows}
        by_dev_rev = {r["device"]: r for r in rev.rows}
        assert by_dev_fwd == by_dev_rev
