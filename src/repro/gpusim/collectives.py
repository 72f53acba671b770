"""Multi-device collective reductions: ring / tree / butterfly allreduce.

The paper's FPNA story is single-kernel; this module models the next layer
up — a collective reduction across the device registry — at exactly the
fidelity the FPNA lens needs: **the result bits are decided by the
sequential order in which the per-device partials fold into the
accumulator** (the same abstraction as :func:`repro.gpusim.atomics.
atomic_fold`, one level up the hierarchy).

This is the package's one multi-device (MPI-style, multi-rank) allreduce
model — the paper's "future work" on inter-node variation.  Its in-order
arrival policy is the fixed-order mitigation: it pins the combine order
to rank order, so the result is one value at any rank count and for every
topology, the collective counterpart of OpenMP's ``ordered`` construct.

Model
-----
``P`` participating devices (ranks, in list order) each produce a per-run
partial with the established intra-kernel fold primitives
(:func:`device_partial_sums_runs`: per-rank contiguous chunk of the input,
block tree partials, SPA-style atomic combine in a scheduled order).  A
**topology** then delivers those partials to the reducing accumulator as a
DAG of message hops (*edges*):

* ``ring`` — a pipeline chain ``0 → 1 → … → P-1``: rank ``p`` injects its
  partial (edge ``inject:p``) and it traverses the links ``p → p+1 → …``
  to the chain root (edges ``link:k``).
* ``tree`` — a left-heavy binary combine bracket over rank order: each
  internal node receives one message per child subtree.
* ``butterfly`` — recursive doubling: ``log2`` exchange rounds over the
  largest power-of-two core, with excess ranks pre-merged into their
  partner (``pre:e``) — the contribution of rank ``p`` reaches rank 0
  through the round edges selected by ``p``'s set bits.

Every edge of every run gets a non-negative latency draw from a pluggable
:class:`ArrivalPolicy`; a rank's **arrival time** is the sum of the delays
along its delivery path (accumulated left-to-right in float64 — a fixed
association order, so the times are platform-stable bits), and the combine
order is the stable argsort of arrival times with rank order breaking
ties.  The fold itself is :func:`repro.gpusim.atomics.batched_atomic_fold`
(or its step-rounded low-precision variants) over those orders — batched
across the whole run axis.

Determinism properties (pinned in ``tests/test_collectives.py``):

* The **in-order policy draws nothing**: all delays are zero, every rank
  ties at time zero, and the stable tie-break yields the identity order
  for *every* topology — so deterministic-policy collectives agree
  bit-exactly across ring, tree and butterfly at every accumulation
  precision (the topology-equivalence check of the ``collsweep``
  experiment).
* A **two-rank** collective is order-invariant for non-NaN operands:
  IEEE-754 addition is bitwise commutative, and a single combine has no
  association freedom.  Reordering effects need ``P >= 3``.
* A **single-rank** collective returns the rank's partial exactly.

Stream layout (the per-(run, edge) cell contract)
-------------------------------------------------
Edge delays draw from **anchored device-plane streams** under the
engine-wide one-stream-per-cell contract
(:meth:`repro.runtime.RunContext.device_stream`): the plane is named
``coll-edge:<topology>`` and cell ``r * n_edges + e`` belongs to run ``r``
and edge ``e`` (edge enumeration order is part of the topology contract).
Each cell consumes exactly one float32 word for the delay-drawing policies
and zero words for ``inorder`` (no stream is even constructed).  Because
no two (run, edge) cells share a stream, any run window ``[lo, hi)`` is
bit-identical to slicing the full sweep *by construction* — the shard
derivation of ``collsweep`` — and the per-rank partial planes
(``coll-rank:<device>``, cell ``r``, one stream per (device, run)) keep a
device's intra-kernel draws independent of which other devices
participate.

Accumulation precisions
-----------------------
``f64`` and ``f32`` fold natively (compiled backend eligible); ``fp16``
folds as NumPy ``float16`` (each add rounds to nearest-even half —
step-rounded accumulation); ``bf16`` folds through
:func:`repro.fp.lowprec.bf16_fold_runs` (operands quantised
f64 → f32 → bf16, every partial sum re-quantised).  Results are returned
widened to float64 bit-holding the narrow values, so distinctness and ulp
statistics survive unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..fp.lowprec import bf16_fold_runs
from ..fp.summation import block_partials
from .atomics import batched_atomic_fold
from .device import get_device
from .kernel import LaunchConfig
from .scheduler import WaveSchedulerBatch

__all__ = [
    "Edge",
    "Topology",
    "RingAllReduce",
    "TreeAllReduce",
    "ButterflyAllReduce",
    "TOPOLOGIES",
    "get_topology",
    "ArrivalPolicy",
    "InOrderArrival",
    "UniformArrival",
    "LoadSkewedArrival",
    "ARRIVAL_POLICIES",
    "get_arrival_policy",
    "PRECISIONS",
    "arrival_orders",
    "collective_fold_runs",
    "device_partial_sums_runs",
    "allreduce_runs",
]

#: Supported accumulation precisions of the combine step.
PRECISIONS = ("f64", "f32", "bf16", "fp16")


@dataclass(frozen=True)
class Edge:
    """One message hop of a topology's delivery DAG.

    ``label`` is unique and stable within the topology (part of the
    stream-cell contract); ``source`` is the lowest rank whose
    contribution crosses the edge first — the load attribute the skewed
    arrival policy reads.
    """

    label: str
    source: int


def _check_ranks(n_ranks: int) -> int:
    if not isinstance(n_ranks, (int, np.integer)) or n_ranks < 1:
        raise ConfigurationError(f"n_ranks must be an int >= 1, got {n_ranks!r}")
    return int(n_ranks)


class Topology(ABC):
    """A collective reduction schedule: edges plus per-rank delivery paths.

    ``edges(P)`` enumerates the message hops in a fixed order (the order
    *is* the stream-cell numbering); ``paths(P)[p]`` lists the edge
    indices rank ``p``'s contribution traverses to reach the accumulator.
    Injection edges come first, one per rank in rank order, so every rank
    has at least one jitter source under a delay-drawing policy.
    """

    name: str

    @abstractmethod
    def edges(self, n_ranks: int) -> tuple[Edge, ...]:
        """Message hops, in stream-cell order."""

    @abstractmethod
    def paths(self, n_ranks: int) -> tuple[tuple[int, ...], ...]:
        """Per-rank delivery paths as edge-index tuples."""


class RingAllReduce(Topology):
    """Pipeline chain ``0 → 1 → … → P-1``: rank ``p`` injects, then
    traverses links ``p, p+1, …, P-2``.  With zero delays the chain
    incorporates contributions in rank order — exactly the physical ring
    reduce's accumulation order."""

    name = "ring"

    def edges(self, n_ranks: int) -> tuple[Edge, ...]:
        p = _check_ranks(n_ranks)
        inject = [Edge(f"inject:{r}", r) for r in range(p)]
        links = [Edge(f"link:{k}", k) for k in range(p - 1)]
        return tuple(inject + links)

    def paths(self, n_ranks: int) -> tuple[tuple[int, ...], ...]:
        p = _check_ranks(n_ranks)
        return tuple(
            (r, *range(p + r, p + p - 1)) for r in range(p)
        )


class TreeAllReduce(Topology):
    """Left-heavy binary combine bracket over rank order: each internal
    node covering ranks ``[lo, hi)`` splits at ``lo + ceil(size / 2)`` and
    receives one message per child subtree."""

    name = "tree"

    def _build(self, n_ranks: int):
        p = _check_ranks(n_ranks)
        edges = [Edge(f"inject:{r}", r) for r in range(p)]
        paths: list[list[int]] = [[r] for r in range(p)]

        def descend(lo: int, hi: int) -> None:
            if hi - lo < 2:
                return
            mid = lo + ((hi - lo) + 1) // 2
            for clo, chi in ((lo, mid), (mid, hi)):
                e = len(edges)
                edges.append(Edge(f"up:{clo}:{chi}", clo))
                for r in range(clo, chi):
                    paths[r].append(e)
                descend(clo, chi)

        descend(0, p)
        return tuple(edges), tuple(tuple(path) for path in paths)

    def edges(self, n_ranks: int) -> tuple[Edge, ...]:
        return self._build(n_ranks)[0]

    def paths(self, n_ranks: int) -> tuple[tuple[int, ...], ...]:
        return self._build(n_ranks)[1]


class ButterflyAllReduce(Topology):
    """Recursive doubling over the largest power-of-two core: at round
    ``k`` node ``v`` (low ``k`` bits clear, bit ``k`` set) sends its
    accumulated value to ``v - 2**k``; excess ranks ``e >= core``
    pre-merge into partner ``e - core``.  Rank ``p``'s contribution
    reaches rank 0 through the round edges its set bits select."""

    name = "butterfly"

    def _build(self, n_ranks: int):
        p = _check_ranks(n_ranks)
        core = 1 << (p.bit_length() - 1)
        rounds = core.bit_length() - 1
        edges = [Edge(f"inject:{r}", r) for r in range(p)]
        index: dict[str, int] = {}
        for k in range(rounds):
            for v in range(1 << k, core, 1 << (k + 1)):
                index[f"r{k}:{v}"] = len(edges)
                edges.append(Edge(f"r{k}:{v}", v))
        for e in range(core, p):
            index[f"pre:{e}"] = len(edges)
            edges.append(Edge(f"pre:{e}", e))

        def core_path(rank: int) -> list[int]:
            path, v = [], rank
            for k in range(rounds):
                if v & (1 << k):
                    path.append(index[f"r{k}:{v}"])
                    v -= 1 << k
            return path

        paths = []
        for r in range(p):
            if r < core:
                paths.append((r, *core_path(r)))
            else:
                paths.append((r, index[f"pre:{r}"], *core_path(r - core)))
        return tuple(edges), tuple(paths)

    def edges(self, n_ranks: int) -> tuple[Edge, ...]:
        return self._build(n_ranks)[0]

    def paths(self, n_ranks: int) -> tuple[tuple[int, ...], ...]:
        return self._build(n_ranks)[1]


TOPOLOGIES: dict[str, Topology] = {
    t.name: t for t in (RingAllReduce(), TreeAllReduce(), ButterflyAllReduce())
}


def get_topology(topology: str | Topology) -> Topology:
    """Resolve a topology name (or pass an instance through)."""
    if isinstance(topology, Topology):
        return topology
    try:
        return TOPOLOGIES[topology]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown collective topology {topology!r}; "
            f"known: {sorted(TOPOLOGIES)}"
        ) from None


class ArrivalPolicy(ABC):
    """Pluggable per-edge message timing.

    ``edge_delay`` receives the edge's own anchored stream (one
    generator per (run, edge) cell) plus the edge's source rank and the
    rank count, and returns a non-negative float32 latency.  Policies
    with ``draws_delay = False`` consume **no** stream words — callers
    skip stream construction entirely, which is the documented in-order
    draw contract (deterministic hardware draws nothing).
    """

    name: str
    draws_delay: bool = True

    @abstractmethod
    def edge_delay(self, rng: np.random.Generator, source: int, n_ranks: int) -> float:
        """One latency draw for one (run, edge) cell."""


class InOrderArrival(ArrivalPolicy):
    """Deterministic in-order delivery: every delay is zero, so the
    stable tie-break reduces every topology to the identity combine
    order.  Draws nothing."""

    name = "inorder"
    draws_delay = False

    def edge_delay(self, rng, source, n_ranks) -> float:
        return 0.0


class UniformArrival(ArrivalPolicy):
    """Uniform-random latency: one ``random(dtype=float32)`` word per
    (run, edge) cell."""

    name = "uniform"

    def edge_delay(self, rng, source, n_ranks) -> float:
        return rng.random(dtype=np.float32)


class LoadSkewedArrival(ArrivalPolicy):
    """Load-skewed latency: the uniform draw scaled (in float32) by
    ``1 + skew * source / (P - 1)`` — higher-ranked sources model more
    heavily loaded devices and deliver later on average.  Consumes the
    same single word per cell as :class:`UniformArrival`."""

    name = "skewed"

    def __init__(self, skew: float = 1.0) -> None:
        if not np.isfinite(skew) or skew < 0:
            raise ConfigurationError(f"skew must be finite and >= 0, got {skew!r}")
        self.skew = float(skew)

    def edge_delay(self, rng, source, n_ranks) -> float:
        u = np.float32(rng.random(dtype=np.float32))
        load = np.float32(source) / np.float32(max(n_ranks - 1, 1))
        return u * (np.float32(1.0) + np.float32(self.skew) * load)


ARRIVAL_POLICIES = ("inorder", "uniform", "skewed")


def get_arrival_policy(policy: str | ArrivalPolicy, *, skew: float = 1.0) -> ArrivalPolicy:
    """Resolve an arrival-policy name (or pass an instance through)."""
    if isinstance(policy, ArrivalPolicy):
        return policy
    if policy == "inorder":
        return InOrderArrival()
    if policy == "uniform":
        return UniformArrival()
    if policy == "skewed":
        return LoadSkewedArrival(skew=skew)
    raise ConfigurationError(
        f"unknown arrival policy {policy!r}; known: {ARRIVAL_POLICIES}"
    )


def _run_window(n_runs: int, run_lo: int, run_hi: int | None) -> tuple[int, int]:
    if run_hi is None:
        run_hi = n_runs
    if not 0 <= run_lo <= run_hi <= n_runs:
        raise ConfigurationError(
            f"run window [{run_lo}, {run_hi}) outside [0, {n_runs}]"
        )
    return run_lo, run_hi


def arrival_orders(
    topology: str | Topology,
    n_ranks: int,
    n_runs: int,
    ctx,
    *,
    policy: str | ArrivalPolicy = "uniform",
    skew: float = 1.0,
    anchor: int = 0,
    run_lo: int = 0,
    run_hi: int | None = None,
    plane: str | None = None,
) -> np.ndarray:
    """Combine orders of ``[run_lo, run_hi)`` under a topology + policy.

    One anchored stream per (run, edge) cell on plane
    ``coll-edge:<topology>`` (cell ``r * n_edges + e``); arrival time of
    rank ``p`` in run ``r`` is the left-to-right float64 sum of its path's
    delays; the order is the stable argsort (ties break in rank order).
    The in-order policy constructs no streams and returns the identity
    order for every topology — the deterministic limit of the same
    arithmetic (all-zero times under a stable sort).

    Returns ``(run_hi - run_lo, n_ranks)`` int64 combine orders.
    """
    topo = get_topology(topology)
    pol = get_arrival_policy(policy, skew=skew)
    p = _check_ranks(n_ranks)
    run_lo, run_hi = _run_window(n_runs, run_lo, run_hi)
    window = run_hi - run_lo
    if not pol.draws_delay:
        return np.tile(np.arange(p, dtype=np.int64), (window, 1))
    edges = topo.edges(p)
    paths = topo.paths(p)
    n_edges = len(edges)
    plane_name = plane or f"coll-edge:{topo.name}"
    delays = np.zeros((window, n_edges), dtype=np.float32)
    for i, r in enumerate(range(run_lo, run_hi)):
        for e, edge in enumerate(edges):
            rng = ctx.device_stream(plane_name, r * n_edges + e, anchor=anchor)
            delays[i, e] = pol.edge_delay(rng, edge.source, p)
    d64 = delays.astype(np.float64)
    times = np.zeros((window, p), dtype=np.float64)
    for rank, path in enumerate(paths):
        col = np.zeros(window, dtype=np.float64)
        for e in path:
            col += d64[:, e]
        times[:, rank] = col
    return np.argsort(times, axis=1, kind="stable").astype(np.int64)


def collective_fold_runs(
    partials: np.ndarray, orders: np.ndarray, precision: str = "f64"
) -> np.ndarray:
    """Fold per-rank partials in per-run combine orders at a precision.

    ``partials`` is ``(P,)`` shared or ``(R, P)`` per-run float64;
    ``orders`` is ``(R, P)``.  ``f64``/``f32`` run the batched atomic
    fold natively (compiled backend eligible); ``fp16`` folds as NumPy
    ``float16`` (step-rounded half adds); ``bf16`` folds through
    :func:`repro.fp.lowprec.bf16_fold_runs`.  Returns ``(R,)`` float64
    bit-holding the chosen precision's values.
    """
    arr = np.asarray(partials, dtype=np.float64)
    if precision == "f64":
        return batched_atomic_fold(arr, orders)
    if precision == "f32":
        return batched_atomic_fold(arr.astype(np.float32), orders)
    if precision == "fp16":
        return batched_atomic_fold(arr.astype(np.float16), orders)
    if precision == "bf16":
        return bf16_fold_runs(arr.astype(np.float32), orders)
    raise ConfigurationError(
        f"unknown accumulation precision {precision!r}; choose from {PRECISIONS}"
    )


def device_partial_sums_runs(
    x: np.ndarray,
    devices,
    n_runs: int,
    ctx,
    *,
    threads_per_block: int = 64,
    run_lo: int = 0,
    run_hi: int | None = None,
    anchor: int = 0,
) -> np.ndarray:
    """Per-run per-rank partials: rank ``p`` SPA-sums its chunk of ``x``.

    The input splits into ``P`` near-equal contiguous chunks
    (``numpy.array_split``); each rank computes block tree partials on
    its own device geometry and combines them atomically in a scheduled
    order drawn from the rank's **run-granular device plane**
    (``coll-rank:<device>``, one anchored stream per (device, run) cell
    — rotation draw then float32 block vector, the scalar per-run
    sequence).  Keying the plane by device name alone makes a rank's
    order draws independent of which other devices participate;
    deterministic devices draw nothing and pool their single schedule
    across the run axis.

    Returns ``(run_hi - run_lo, P)`` float64 partials.
    """
    arr = np.asarray(x, dtype=np.float64).ravel()
    names = tuple(devices)
    if not names:
        raise ConfigurationError("devices must name at least one participant")
    lowered = [str(n).lower() for n in names]
    dupes = sorted({n for n in lowered if lowered.count(n) > 1})
    if dupes:
        raise ConfigurationError(
            f"collective ranks must be distinct devices; duplicated: {dupes} "
            "(rank partial streams are keyed by device name)"
        )
    p = len(names)
    if arr.size < p:
        raise ConfigurationError(
            f"need at least one element per rank: {arr.size} elements for {p} ranks"
        )
    run_lo, run_hi = _run_window(n_runs, run_lo, run_hi)
    window = run_hi - run_lo
    chunks = np.array_split(arr, p)
    out = np.empty((window, p), dtype=np.float64)
    for rank, device in enumerate(names):
        dev = get_device(device)
        chunk = chunks[rank]
        tpb = min(threads_per_block, dev.max_threads_per_block)
        nb = (chunk.size + tpb - 1) // tpb
        launch = LaunchConfig(
            device=dev, n_blocks=nb, threads_per_block=tpb,
            shared_mem_bytes=min(tpb * 8, dev.shared_mem_per_block),
        )
        bp = block_partials(chunk, launch.n_blocks)
        batch = WaveSchedulerBatch(launch, None)
        if not batch.needs_rotation and not batch.needs_block_draw(0.0):
            order = batch.block_completion_orders_from_draws(
                np.zeros(1, dtype=np.int64), None, 0.0
            )
            out[:, rank] = batched_atomic_fold(bp, order)[0]
            continue
        rngs = [
            ctx.device_stream(f"coll-rank:{device}", r, anchor=anchor)
            for r in range(run_lo, run_hi)
        ]
        orders = batch.block_completion_orders(window, contention=0.0, rngs=rngs)
        out[:, rank] = batched_atomic_fold(bp, orders)
    return out


def allreduce_runs(
    x: np.ndarray,
    devices,
    n_runs: int,
    ctx,
    *,
    topology: str | Topology = "ring",
    precision: str = "f64",
    policy: str | ArrivalPolicy = "uniform",
    skew: float = 1.0,
    threads_per_block: int = 64,
    run_lo: int = 0,
    run_hi: int | None = None,
    anchor: int = 0,
) -> np.ndarray:
    """End-to-end batched collective: partials, combine orders, fold.

    Composes :func:`device_partial_sums_runs`, :func:`arrival_orders` and
    :func:`collective_fold_runs` for one (topology, precision, policy)
    configuration; returns the ``(run_hi - run_lo,)`` float64 allreduce
    results.  Stream consumption is the union of the two plane layouts
    documented above, so any run window and any topology/precision subset
    replays bit-identically.
    """
    partials = device_partial_sums_runs(
        x, devices, n_runs, ctx,
        threads_per_block=threads_per_block,
        run_lo=run_lo, run_hi=run_hi, anchor=anchor,
    )
    orders = arrival_orders(
        topology, len(tuple(devices)), n_runs, ctx,
        policy=policy, skew=skew, anchor=anchor,
        run_lo=run_lo, run_hi=run_hi,
    )
    return collective_fold_runs(partials, orders, precision)
