"""Static compiler: op graph → cycle-exact schedule.

The compiler performs dependency-respecting list scheduling onto the four
functional units (MXM/VXM/SXM/MEM).  Because the schedule is a pure
function of the program, the reported cycle count — and the execution
order — is identical on every run: this is the "runtime reported as a
fixed number" property of the paper's Table 6/8 LPU columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CompileError
from .device import CYCLE_COSTS, LPU_CLOCK_GHZ, UNITS, op_cycle_cost

__all__ = ["OpNode", "Program", "ScheduledOp", "CompiledProgram", "LPUCompiler"]


@dataclass(frozen=True)
class OpNode:
    """One operation in an LPU program.

    Attributes
    ----------
    name:
        Unique node id within the program.
    kind:
        Cost-model kind (key of :data:`repro.lpu.device.CYCLE_COSTS`).
    deps:
        Names of producer nodes this op consumes.
    n_elements:
        Element count driving the per-element cycle term.
    flops:
        Floating-point operation count (matmul term).
    fn:
        Optional callable ``fn(env) -> value`` executed by the runtime
        (``env`` maps node names to computed values); cost-only programs
        omit it.
    """

    name: str
    kind: str
    deps: tuple[str, ...] = ()
    n_elements: int = 0
    flops: int = 0
    fn: object = None


@dataclass
class Program:
    """An ordered collection of :class:`OpNode` forming a DAG."""

    nodes: list[OpNode] = field(default_factory=list)

    def add(self, node: OpNode) -> OpNode:
        """Append a node; names must be unique and deps already present."""
        names = {n.name for n in self.nodes}
        if node.name in names:
            raise CompileError(f"duplicate node name {node.name!r}")
        for d in node.deps:
            if d not in names:
                raise CompileError(f"node {node.name!r} depends on unknown {d!r}")
        if node.kind not in CYCLE_COSTS:
            raise CompileError(f"unknown op kind {node.kind!r}")
        self.nodes.append(node)
        return node

    def op(self, name: str, kind: str, deps=(), *, n_elements: int = 0, flops: int = 0, fn=None) -> OpNode:
        """Convenience builder."""
        return self.add(
            OpNode(name=name, kind=kind, deps=tuple(deps), n_elements=n_elements, flops=flops, fn=fn)
        )


@dataclass(frozen=True)
class ScheduledOp:
    """A node with its assigned unit and cycle window."""

    node: OpNode
    unit: str
    start_cycle: float
    end_cycle: float


@dataclass(frozen=True)
class CompiledProgram:
    """The static schedule: ops, unit assignments, total cycles."""

    schedule: tuple[ScheduledOp, ...]
    total_cycles: float
    clock_ghz: float = LPU_CLOCK_GHZ

    @property
    def runtime_us(self) -> float:
        """Deterministic wall-clock prediction, microseconds."""
        return self.total_cycles / (self.clock_ghz * 1e3)


class LPUCompiler:
    """Dependency-respecting list scheduler over the functional units."""

    def compile(self, program: Program) -> CompiledProgram:
        """Produce the static schedule for ``program``.

        Ops issue in program order (the input order is the tie-break, so
        compilation is deterministic); each starts at the max of its unit's
        free cycle and its producers' end cycles.
        """
        if not program.nodes:
            raise CompileError("cannot compile an empty program")
        unit_free = {u: 0.0 for u in UNITS}
        end_of: dict[str, float] = {}
        scheduled: list[ScheduledOp] = []
        for node in program.nodes:
            unit = CYCLE_COSTS[node.kind]["unit"]
            ready = max((end_of[d] for d in node.deps), default=0.0)
            start = max(ready, unit_free[unit])
            dur = op_cycle_cost(node.kind, n_elements=node.n_elements, flops=node.flops)
            end = start + dur
            unit_free[unit] = end
            end_of[node.name] = end
            scheduled.append(ScheduledOp(node=node, unit=unit, start_cycle=start, end_cycle=end))
        total = max(s.end_cycle for s in scheduled)
        return CompiledProgram(schedule=tuple(scheduled), total_cycles=total)
