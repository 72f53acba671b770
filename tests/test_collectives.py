"""Multi-device collective reductions: topologies, arrival policies,
low-precision combine steps, and the ``collsweep`` experiment's contracts.

Pins the properties the module docstring promises:

* topology structure — unique edge labels, injection-edge-first paths,
  valid edge indices, the expected edge counts;
* the in-order identity limit — the deterministic policy draws nothing
  and collapses every topology to the identity combine order, which is
  what makes ring / tree / butterfly bit-exact under it;
* the fixed-order mitigation — in-order arrival is the serial fold in
  rank order at any rank count, while random arrival varies run to run,
  more so with more ranks;
* the per-(run, edge) stream cells — window slicing and device-subset
  invariance by construction;
* combine-step FP edge cases — signed zeros, NaN payload propagation in
  arrival order, two-rank order invariance (bitwise-commutative adds),
  single-rank degeneracy, and bf16/fp16 step-rounded (double-rounding)
  accumulation vs rounding once at the end;
* the bf16 quantiser — ties-to-even, overflow-to-inf, signed zero,
  quiet-NaN payloads, off-grid rejection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, DTypeError, SchedulerError
from repro.fp.lowprec import (
    bf16_bits,
    bf16_fold_runs,
    bf16_ulp_distance,
    round_to_bf16,
)
from repro.fp import exact_sum, serial_sum
from repro.fp.ulp import ulp_distance
from repro.gpusim import collectives as coll
from repro.runtime import RunContext

TOPOLOGY_NAMES = ("ring", "tree", "butterfly")
RANK_COUNTS = (1, 2, 3, 4, 5, 8)


class _NoDraws:
    """A run context that fails the test if anything draws from it."""

    def device_stream(self, *args, **kwargs):
        raise AssertionError("in-order arrival must draw nothing")


# --------------------------------------------------------------- topologies


class TestTopologies:
    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("p", RANK_COUNTS)
    def test_structure_is_wellformed(self, name, p):
        topo = coll.get_topology(name)
        edges = topo.edges(p)
        paths = topo.paths(p)
        labels = [e.label for e in edges]
        assert len(set(labels)) == len(labels), "edge labels must be unique"
        assert len(paths) == p
        for rank, path in enumerate(paths):
            assert all(0 <= e < len(edges) for e in path)
            # Injection edges lead the enumeration, one per rank in rank
            # order, and every path starts with its own.
            assert path[0] == rank
            assert edges[rank].label == f"inject:{rank}"
            assert edges[rank].source == rank

    def test_ring_paths_walk_the_chain(self):
        topo = coll.get_topology("ring")
        paths = topo.paths(4)
        # rank p traverses links p..P-2 after injecting: path lengths
        # decrease by one per rank.
        assert [len(path) for path in paths] == [4, 3, 2, 1]
        labels = [e.label for e in topo.edges(4)]
        assert labels[4:] == ["link:0", "link:1", "link:2"]

    def test_tree_edge_count_is_two_per_internal_node(self):
        topo = coll.get_topology("tree")
        # P leaves -> P-1 internal nodes -> 2(P-1) child edges + P inject.
        for p in (2, 4, 5, 8):
            assert len(topo.edges(p)) == p + 2 * (p - 1)

    def test_butterfly_round_structure(self):
        topo = coll.get_topology("butterfly")
        # P=8: inject 8 + rounds 4+2+1; P=5: core 4 -> inject 5 + 2+1 + 1 pre.
        assert len(topo.edges(8)) == 8 + 7
        labels5 = [e.label for e in topo.edges(5)]
        assert "pre:4" in labels5 and len(labels5) == 5 + 3 + 1
        # The extra rank's path pre-merges into rank 0's core walk.
        assert coll.get_topology("butterfly").paths(5)[4][1] == labels5.index("pre:4")

    def test_unknown_topology_lists_known(self):
        with pytest.raises(ConfigurationError, match="butterfly"):
            coll.get_topology("hypercube")

    @pytest.mark.parametrize("bad", (0, -1, 2.5))
    def test_bad_rank_counts_raise(self, bad):
        with pytest.raises(ConfigurationError):
            coll.get_topology("ring").edges(bad)


# ----------------------------------------------------------- arrival orders


class TestArrivalOrders:
    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("p", RANK_COUNTS + (64,))
    def test_inorder_identity_for_every_topology(self, name, p):
        orders = coll.arrival_orders(name, p, 6, _NoDraws(), policy="inorder")
        assert np.array_equal(orders, np.tile(np.arange(p), (6, 1)))

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("policy", ("uniform", "skewed"))
    def test_run_window_bit_exact(self, name, policy):
        full = coll.arrival_orders(name, 5, 12, RunContext(seed=3),
                                   policy=policy)
        window = coll.arrival_orders(name, 5, 12, RunContext(seed=3),
                                     policy=policy, run_lo=4, run_hi=10)
        assert np.array_equal(full[4:10], window)

    def test_replay_is_deterministic(self):
        a = coll.arrival_orders("tree", 6, 10, RunContext(seed=7))
        b = coll.arrival_orders("tree", 6, 10, RunContext(seed=7))
        assert np.array_equal(a, b)

    def test_uniform_policy_reorders(self):
        orders = coll.arrival_orders("tree", 5, 40, RunContext(seed=0))
        assert not np.array_equal(orders, np.tile(np.arange(5), (40, 1)))

    def test_skew_delays_loaded_sources(self):
        # Under heavy skew, high-ranked sources arrive later on average.
        orders = coll.arrival_orders("tree", 4, 400, RunContext(seed=0),
                                     policy="skewed", skew=8.0)
        position = np.argsort(orders, axis=1)  # rank -> position per run
        assert position[:, 0].mean() < position[:, 3].mean()

    def test_unknown_policy_and_bad_skew_raise(self):
        with pytest.raises(ConfigurationError, match="inorder"):
            coll.get_arrival_policy("fifo")
        with pytest.raises(ConfigurationError):
            coll.get_arrival_policy("skewed", skew=-1.0)
        with pytest.raises(ConfigurationError):
            coll.arrival_orders("ring", 4, 8, RunContext(seed=0),
                                run_lo=6, run_hi=3)
        with pytest.raises(ConfigurationError):
            coll.arrival_orders("ring", 4, 8, RunContext(seed=0),
                                run_lo=6, run_hi=9)


class TestFixedOrderMitigation:
    """Arrival order decides a multi-rank allreduce's bits; in-order
    arrival pins them to the serial fold in rank order."""

    @staticmethod
    def _sums(name, p, n_runs, policy):
        partials = RunContext(seed=5).data().standard_normal(p)
        orders = coll.arrival_orders(name, p, n_runs, RunContext(seed=0),
                                     policy=policy)
        return partials, coll.collective_fold_runs(partials, orders)

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("p", (3, 17, 64))
    def test_inorder_is_the_serial_fold(self, name, p):
        partials, sums = self._sums(name, p, 4, "inorder")
        assert np.array_equal(sums, np.full(4, serial_sum(partials)))

    def test_uniform_arrival_varies_and_stays_correct(self):
        partials, sums = self._sums("tree", 16, 16, "uniform")
        assert len(set(sums.tolist())) > 1
        np.testing.assert_allclose(sums, exact_sum(partials), rtol=1e-12)

    def test_variability_grows_with_rank_count(self):
        def distinct(p):
            return len(set(self._sums("tree", p, 64, "uniform")[1].tolist()))

        assert distinct(64) > distinct(4)

    @pytest.mark.parametrize("partials", [
        np.ones(3), np.ones(5), np.ones((2, 4)),
    ], ids=["too-few-ranks", "too-many-ranks", "too-few-runs"])
    def test_partials_must_match_the_orders(self, partials):
        orders = coll.arrival_orders("tree", 4, 3, RunContext(seed=0))
        with pytest.raises(SchedulerError, match="shape"):
            coll.collective_fold_runs(partials, orders)


# -------------------------------------------------- combine-step edge cases


class TestCombineEdgeCases:
    def test_negative_zero_partials_fold_to_negative_zero(self):
        z = np.array([-0.0, -0.0, -0.0, -0.0])
        orders = np.array([[0, 1, 2, 3], [3, 1, 0, 2]])
        for precision in coll.PRECISIONS:
            out = coll.collective_fold_runs(z, orders, precision)
            assert np.all(out == 0.0) and np.all(np.signbit(out)), precision

    def test_mixed_sign_zeros_fold_to_positive_zero_any_order(self):
        z = np.array([-0.0, 0.0])
        orders = np.array([[0, 1], [1, 0]])
        for precision in coll.PRECISIONS:
            out = coll.collective_fold_runs(z, orders, precision)
            assert np.all(out == 0.0) and not np.any(np.signbit(out)), precision

    def test_nan_payload_follows_arrival_order(self):
        # Two distinct quiet-NaN payloads at ranks 1 and 2: the fold keeps
        # whichever NaN arrives first, exactly as a sequential reference
        # fold does — so ring-identity vs reversed order select different
        # payloads.
        na = float(np.array(0x7FF8000000000123, dtype=np.uint64).view(np.float64))
        nb = float(np.array(0x7FF80000000CAFE0, dtype=np.uint64).view(np.float64))
        partials = np.array([1.0, na, nb, 2.0])
        orders = np.array([[0, 1, 2, 3], [3, 2, 1, 0]])
        out = coll.collective_fold_runs(partials, orders, "f64")
        for row, order in enumerate(orders):
            first_nan = next(i for i in order if np.isnan(partials[i]))
            assert out[row:row + 1].view(np.uint64) == partials[
                first_nan:first_nan + 1].view(np.uint64)
        # The two arrival orders really do surface different payloads.
        assert out[0:1].view(np.uint64) != out[1:2].view(np.uint64)

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    def test_single_rank_collective_is_exact(self, name):
        ctx = RunContext(seed=5)
        x = ctx.data(stream=2).uniform(0, 10, 300)
        out = coll.allreduce_runs(x, ("v100",), 4, RunContext(seed=5),
                                  topology=name, policy="uniform")
        partials = coll.device_partial_sums_runs(
            x, ("v100",), 4, RunContext(seed=5))
        assert np.array_equal(out.view(np.int64),
                              partials[:, 0].view(np.int64))

    def test_two_rank_collective_is_order_invariant(self):
        # IEEE addition is bitwise commutative for non-NaN operands and a
        # single combine has no association freedom, so P=2 results cannot
        # depend on topology or policy.
        x = RunContext(seed=9).data(stream=4).standard_normal(500)
        results = [
            coll.allreduce_runs(x, ("v100", "gh200"), 6, RunContext(seed=9),
                                topology=name, policy=policy)
            for name in TOPOLOGY_NAMES
            for policy in ("inorder", "uniform", "skewed")
        ]
        base = results[0].view(np.int64)
        for r in results[1:]:
            assert np.array_equal(base, r.view(np.int64))

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("precision", coll.PRECISIONS)
    def test_deterministic_policy_topology_equivalence(self, name, precision):
        x = RunContext(seed=2).data(stream=3).standard_normal(1024)
        ref = coll.allreduce_runs(x, ("v100", "gh200", "mi250x", "cpu"), 5,
                                  RunContext(seed=2), topology="ring",
                                  precision=precision, policy="inorder")
        out = coll.allreduce_runs(x, ("v100", "gh200", "mi250x", "cpu"), 5,
                                  RunContext(seed=2), topology=name,
                                  precision=precision, policy="inorder")
        assert np.array_equal(ref.view(np.int64), out.view(np.int64))

    def test_bf16_step_rounding_differs_from_round_once(self):
        # Four quarter-ulp-of-1.0 increments: the step-rounded bf16
        # accumulator loses every one to round-to-nearest, while
        # accumulating in f32 and rounding once keeps their sum (exactly
        # one ulp) — the double-rounding contrast the precision axis
        # measures.
        vals = np.array([1.0, 2.0 ** -9, 2.0 ** -9, 2.0 ** -9, 2.0 ** -9])
        orders = np.arange(5)[None, :]
        stepped = coll.collective_fold_runs(vals, orders, "bf16")
        assert stepped[0] == 1.0
        once = round_to_bf16(np.float32(vals.sum()))
        assert float(once) == 1.0 + 2.0 ** -7
        # f32 accumulation keeps the increments entirely.
        direct = coll.collective_fold_runs(vals, orders, "f32")
        assert direct[0] == np.float32(1.0 + 2.0 ** -9 * 4)

    def test_fp16_step_rounding_is_native_half(self):
        # Same construction one precision down: 2**-11 is half an ulp of
        # 1.0 in binary16, so every step ties back to even.
        vals = np.array([1.0, 2.0 ** -11, 2.0 ** -11, 2.0 ** -11, 2.0 ** -11])
        orders = np.arange(5)[None, :]
        stepped = coll.collective_fold_runs(vals, orders, "fp16")
        assert stepped[0] == 1.0
        assert np.float16(vals.sum()) == np.float16(1.0 + 2.0 ** -9)

    def test_unknown_precision_raises(self):
        with pytest.raises(ConfigurationError, match="bf16"):
            coll.collective_fold_runs(np.ones(3), np.arange(3)[None, :], "f8")


# ------------------------------------------------------- per-rank partials


class TestDevicePartials:
    def test_duplicate_devices_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            coll.device_partial_sums_runs(
                np.ones(64), ("v100", "V100"), 4, RunContext(seed=0))

    def test_needs_one_element_per_rank(self):
        with pytest.raises(ConfigurationError, match="per rank"):
            coll.device_partial_sums_runs(
                np.ones(2), ("v100", "gh200", "cpu"), 4, RunContext(seed=0))
        with pytest.raises(ConfigurationError):
            coll.device_partial_sums_runs(np.ones(8), (), 4, RunContext(seed=0))

    def test_run_window_bit_exact(self):
        x = RunContext(seed=4).data(stream=6).uniform(0, 10, 1024)
        full = coll.device_partial_sums_runs(
            x, ("v100", "cpu"), 10, RunContext(seed=4))
        window = coll.device_partial_sums_runs(
            x, ("v100", "cpu"), 10, RunContext(seed=4), run_lo=3, run_hi=8)
        assert np.array_equal(full[3:8].view(np.int64), window.view(np.int64))

    def test_rank_draws_invariant_under_device_subset(self):
        # Planes are keyed by device name, so a device's schedule draws do
        # not depend on which other devices participate.  Tile one chunk
        # twice so both ranks see identical data; then swapping the
        # partner swaps the columns bit-exactly.
        chunk = RunContext(seed=8).data(stream=7).uniform(0, 10, 256)
        x = np.concatenate([chunk, chunk])
        ab = coll.device_partial_sums_runs(
            x, ("v100", "gh200"), 6, RunContext(seed=8))
        ba = coll.device_partial_sums_runs(
            x, ("gh200", "v100"), 6, RunContext(seed=8))
        assert np.array_equal(ab[:, 0].view(np.int64), ba[:, 1].view(np.int64))
        assert np.array_equal(ab[:, 1].view(np.int64), ba[:, 0].view(np.int64))

    def test_deterministic_device_pools_one_schedule(self):
        import repro.lpu  # noqa: F401 - registers the statically scheduled device

        x = RunContext(seed=0).data(stream=9).uniform(0, 10, 512)
        out = coll.device_partial_sums_runs(
            x, ("lpu", "v100"), 8, RunContext(seed=0))
        assert np.unique(out[:, 0]).size == 1


# ------------------------------------------------------------- bf16 units


class TestRoundToBf16:
    def test_ties_to_even(self):
        # bf16 ulp at 1.0 is 2**-7.  1 + 2**-8 sits exactly between 1.0
        # and 1 + 2**-7: the tie lands on the even keep bit (1.0).
        # 1 + 3*2**-8 ties the other way, up to the even 1 + 2**-6.
        assert float(round_to_bf16(np.float32(1.0 + 2.0 ** -8))) == 1.0
        assert float(round_to_bf16(np.float32(1.0 + 3 * 2.0 ** -8))) == 1.0 + 2.0 ** -6
        # Clearly above/below the midpoint round to nearest.
        assert float(round_to_bf16(np.float32(1.0 + 0.6 * 2.0 ** -7))) == 1.0 + 2.0 ** -7
        assert float(round_to_bf16(np.float32(1.0 + 0.4 * 2.0 ** -7))) == 1.0

    def test_overflow_rounds_to_infinity(self):
        assert float(round_to_bf16(np.float32(3.4e38))) == np.inf
        assert float(round_to_bf16(np.float32(-3.4e38))) == -np.inf
        assert float(round_to_bf16(np.float32(np.inf))) == np.inf

    def test_signed_zero_and_scalars_survive(self):
        out = round_to_bf16(np.float32(-0.0))
        assert out.ndim == 0 and np.signbit(out)
        assert round_to_bf16([1.5, -2.25]).shape == (2,)

    def test_nan_payload_high_bits_survive_quietly(self):
        payload = np.array(0x7F8A0000, dtype=np.uint32).view(np.float32)
        out = round_to_bf16(payload)
        bits = np.asarray(out).view(np.uint32)
        assert np.isnan(out)
        assert bits == np.uint32(0x7FCA0000)  # payload kept, quiet bit set
        # A large array of NaNs takes the same out-of-line path.
        many = round_to_bf16(np.full(16, np.nan, dtype=np.float32))
        assert np.all(np.isnan(many))
        bf16_bits(many)  # on the grid: no DTypeError

    def test_grid_membership_and_bits(self):
        vals = round_to_bf16(np.linspace(-5, 5, 64, dtype=np.float32))
        assert bf16_bits(vals).dtype == np.uint16
        with pytest.raises(DTypeError, match="round_to_bf16"):
            bf16_bits(np.float32(1.0 + 2.0 ** -20))

    def test_bf16_ulp_distance(self):
        one = np.float32(1.0)
        next_up = np.float32(1.0 + 2.0 ** -7)  # one bf16 ulp above 1.0
        assert bf16_ulp_distance(one, one) == 0
        assert bf16_ulp_distance(one, next_up) == 1
        assert bf16_ulp_distance(np.float32(-0.0), np.float32(0.0)) == 0
        with pytest.raises(DTypeError, match="NaN"):
            bf16_ulp_distance(round_to_bf16(np.float32(np.nan)), one)

    def test_fold_runs_shared_and_per_run_values(self):
        vals = np.array([1.0, 2.0, 4.0])
        orders = np.array([[0, 1, 2], [2, 1, 0]])
        shared = bf16_fold_runs(vals, orders)
        per_run = bf16_fold_runs(np.tile(vals, (2, 1)), orders)
        assert np.array_equal(shared, per_run)
        assert shared.dtype == np.float64
        with pytest.raises(DTypeError, match="2-D"):
            bf16_fold_runs(vals, np.array([0, 1, 2]))

    def test_fp16_ulp_distance_native(self):
        # float16 gained native support in fp.ulp for the collsweep
        # spread metric.
        a = np.float16(1.0)
        b = np.nextafter(a, np.float16(2.0), dtype=np.float16)
        assert ulp_distance(a, b) == 1


# ----------------------------------------------------- collsweep experiment


class TestCollsweepExperiment:
    _TINY = dict(n_elements=512, n_runs=12,
                 devices=("v100", "gh200", "cpu"))

    def _run(self, seed=0, **overrides):
        from repro.experiments import get_experiment

        ov = {**self._TINY, **overrides}
        return get_experiment("collsweep").run(ctx=RunContext(seed=seed), **ov)

    def test_rows_cover_the_declared_grid(self):
        res = self._run()
        assert len(res.rows) == 3 * 4  # topologies x precisions
        assert {r["topology"] for r in res.rows} == set(TOPOLOGY_NAMES)
        assert {r["precision"] for r in res.rows} == set(coll.PRECISIONS)
        for row in res.rows:
            assert row["distinct_sums"] >= 1
            assert row["spread_ulps"] >= 0.0

    def test_deterministic_reference_is_topology_equivalent(self):
        res = self._run()
        assert res.extra["deterministic_f64_topology_equivalent"] is True

    def test_inorder_policy_pins_every_precision_across_topologies(self):
        res = self._run(policy="inorder")
        by_prec: dict = {}
        for row in res.rows:
            by_prec.setdefault(row["precision"], set()).add(
                (row["distinct_sums"], row["spread_ulps"], row["mean_sum"]))
        # Identical combine orders -> identical statistics per precision.
        assert all(len(v) == 1 for v in by_prec.values())

    def test_replay_and_device_subsets_are_deterministic(self):
        for devices in (("v100", "cpu"), ("v100", "gh200", "cpu")):
            a = self._run(devices=devices)
            b = self._run(devices=devices)
            assert a.rows == b.rows and a.extra == b.extra

    def test_seed_moves_the_stochastic_rows(self):
        assert self._run(seed=0).rows != self._run(seed=1).rows
