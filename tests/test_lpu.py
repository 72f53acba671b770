"""Tests for the LPU static compiler and deterministic executor."""

import numpy as np
import pytest

from repro.errors import CompileError
from repro.lpu import CompiledProgram, LPUCompiler, LPUExecutor, OpNode, Program
from repro.lpu.device import CYCLE_COSTS, LPU_CLOCK_GHZ, op_cycle_cost


def linear_program():
    prog = Program()
    prog.op("a", "elementwise", n_elements=100, fn=lambda env: env["in"] + 1)
    prog.op("b", "elementwise", deps=("a",), n_elements=100, fn=lambda env: env["a"] * 2)
    return prog


class TestProgramConstruction:
    def test_duplicate_name_rejected(self):
        prog = Program()
        prog.op("a", "elementwise")
        with pytest.raises(CompileError):
            prog.op("a", "elementwise")

    def test_unknown_dep_rejected(self):
        with pytest.raises(CompileError):
            Program().op("a", "elementwise", deps=("ghost",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(CompileError):
            Program().op("a", "teleport")


class TestCompiler:
    def test_empty_program_rejected(self):
        with pytest.raises(CompileError):
            LPUCompiler().compile(Program())

    def test_dependencies_respected(self):
        compiled = LPUCompiler().compile(linear_program())
        a, b = compiled.schedule
        assert b.start_cycle >= a.end_cycle

    def test_independent_ops_on_different_units_overlap(self):
        prog = Program()
        prog.op("m", "matmul", flops=48_000_000)
        prog.op("v", "elementwise", n_elements=1_000_000)
        compiled = LPUCompiler().compile(prog)
        m, v = compiled.schedule
        assert m.unit == "MXM" and v.unit == "VXM"
        assert v.start_cycle < m.end_cycle  # overlap, no false serialisation

    def test_same_unit_serialises(self):
        prog = Program()
        prog.op("m1", "matmul", flops=1_000_000)
        prog.op("m2", "matmul", flops=1_000_000)
        compiled = LPUCompiler().compile(prog)
        assert compiled.schedule[1].start_cycle >= compiled.schedule[0].end_cycle

    def test_total_cycles_and_runtime(self):
        compiled = LPUCompiler().compile(linear_program())
        assert compiled.total_cycles == max(s.end_cycle for s in compiled.schedule)
        assert compiled.runtime_us == pytest.approx(
            compiled.total_cycles / (LPU_CLOCK_GHZ * 1e3)
        )

    def test_compilation_is_deterministic(self):
        c1 = LPUCompiler().compile(linear_program())
        c2 = LPUCompiler().compile(linear_program())
        assert c1.total_cycles == c2.total_cycles
        assert [s.start_cycle for s in c1.schedule] == [s.start_cycle for s in c2.schedule]


class TestCycleCosts:
    def test_paper_table6_lpu_numbers(self):
        # scatter_reduce(sum), n=1000 -> 10.5 us; mean -> 28.9 us;
        # index_add 1e6 elements -> 12.0 us (all at 0.9 GHz).
        t = op_cycle_cost("scatter_reduce_sum", n_elements=1000) / (LPU_CLOCK_GHZ * 1e3)
        assert t == pytest.approx(10.5, rel=0.01)
        t = op_cycle_cost("scatter_reduce_mean", n_elements=1000) / (LPU_CLOCK_GHZ * 1e3)
        assert t == pytest.approx(28.9, rel=0.01)
        t = op_cycle_cost("index_add", n_elements=1_000_000) / (LPU_CLOCK_GHZ * 1e3)
        assert t == pytest.approx(12.0, rel=0.01)

    def test_unknown_kind_raises(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            op_cycle_cost("warpdrive")

    def test_all_kinds_have_units(self):
        for kind, cost in CYCLE_COSTS.items():
            assert cost["unit"] in ("MXM", "VXM", "SXM", "MEM"), kind


class TestExecutor:
    def test_run_returns_output_and_schedule(self):
        out, compiled = LPUExecutor().run(
            linear_program(), inputs={"in": np.arange(4.0)}, output="b"
        )
        np.testing.assert_array_equal(out, [2, 4, 6, 8])
        assert isinstance(compiled, CompiledProgram)

    def test_default_output_is_last_node(self):
        out, _ = LPUExecutor().run(linear_program(), inputs={"in": np.zeros(2)})
        np.testing.assert_array_equal(out, [2, 2])

    def test_repeated_runs_bitwise_identical(self, rng):
        from repro.ops import index_add

        idx = rng.integers(0, 50, 2000)
        src = rng.standard_normal((2000, 4)).astype(np.float32)

        prog = Program()
        prog.op(
            "agg", "index_add", n_elements=src.size,
            fn=lambda env: index_add(np.zeros((50, 4), np.float32), 0, idx, src),
        )
        ex = LPUExecutor()
        outs = {ex.run(prog)[0].tobytes() for _ in range(5)}
        assert len(outs) == 1  # determinism by construction

    def test_cost_only_program_cannot_run(self):
        prog = Program()
        prog.op("a", "matmul", flops=100)
        with pytest.raises(CompileError):
            LPUExecutor().run(prog)

    def test_unknown_output_rejected(self):
        with pytest.raises(CompileError):
            LPUExecutor().run(linear_program(), inputs={"in": np.zeros(1)}, output="zz")

    def test_compile_only_path(self):
        compiled = LPUExecutor().compile(linear_program())
        assert compiled.total_cycles > 0


class TestGnnProgram:
    def test_lpu_gnn_runtime_matches_paper(self):
        from repro.experiments._gnn import lpu_gnn_inference_us

        t = lpu_gnn_inference_us(
            n_nodes=2708, n_directed_edges=2 * 5429,
            n_features=1433, hidden=16, n_classes=7,
        )
        # Paper Table 8: 0.066 ms; we land within ~20%.
        assert t / 1e3 == pytest.approx(0.066, rel=0.25)
