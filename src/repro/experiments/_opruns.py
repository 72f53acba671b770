"""Shared machinery for the kernel-variability experiments (Table 5, Figs 3-5).

Implements the paper's §IV protocol: when a deterministic kernel exists,
its output is the reference ``A``; otherwise the first non-deterministic
run is (``A = B_0``).  The run axis executes through the batched engine:
each configuration reuses a single
:class:`~repro.ops.segmented.SegmentPlan` and folds all runs via the
contention-sparse :meth:`~repro.ops.segmented.SegmentPlan.fold_runs_sparse`
(one canonical fold shared by every run, only raced segments re-folded) —
bit-identical to looping the scalar kernels, but without re-paying the
fold or setup per run.

The **configuration axis** is batched too: :func:`sweep_variability` takes
the whole (dims × ratios) grid of a figure, builds every cell's workload
and :class:`SegmentPlan` up front (data streams are run-counter
independent, so the pre-build is invisible to the RNG contract), then
evaluates the cells in sweep order with stacked run batches and the
vectorised :func:`_summarise_batch` — no per-run Python in the metric
loop.  Cell evaluation order is exactly the scalar sweep's, so scheduler
draws (and therefore every statistic) match a cell-by-cell loop
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ops import index_add, index_add_runs, scatter_reduce_runs
from ..ops.nondet import OP_CONTENTION
from ..ops.scatter import _finalize_scatter_reduce
from ..ops.segmented import _IDENTITY, _UFUNC, SegmentPlan, _stratified_refold
from ..runtime import RunContext
from .sharding import RunConcat, RunList, run_digests

__all__ = [
    "OpVariability",
    "SweepCell",
    "sweep_variability",
    "sweep_run_payloads",
    "variability_from_payload",
    "scatter_reduce_variability",
    "index_add_variability",
]


@dataclass(frozen=True)
class OpVariability:
    """Per-configuration variability statistics over N runs.

    ``vc_*`` / ``ermv_*`` are statistics of the per-run metrics against the
    reference; ``n_unique`` counts bitwise-distinct outputs.
    """

    n_runs: int
    vc_mean: float
    vc_std: float
    ermv_mean: float
    ermv_std: float
    ermv_max: float
    n_unique: int


@dataclass(frozen=True)
class SweepCell:
    """One configuration of a Figs 3–5 sweep grid.

    Attributes
    ----------
    op:
        ``"scatter_reduce"`` or ``"index_add"``.
    n:
        Input dimension (1-D length for scatter_reduce, square side for
        index_add).
    ratio:
        Reduction ratio ``R = n_targets / n``.
    reduce:
        Reduction name (scatter_reduce only).
    """

    op: str
    n: int
    ratio: float
    reduce: str = "sum"


def _summarise_batch(reference: np.ndarray, batch: np.ndarray) -> OpVariability:
    """Vectorised :class:`OpVariability` over a stacked ``(R, ...)`` batch.

    Per-run values are bit-identical to calling
    :func:`repro.metrics.array.count_variability` /
    :func:`repro.metrics.array.ermv` run by run: the relative-deviation
    transform is elementwise, and the per-run means reduce contiguous rows
    of the same length as the scalar calls' flattened inputs (NumPy's
    pairwise reduction depends only on length and contiguity).
    """
    n_runs = batch.shape[0]
    reference = np.asarray(reference)
    # Value inequality in the native dtype: float64 widening is exact, so
    # this matches count_variability's widened compare bit for bit.
    vcs = (reference != batch).reshape(n_runs, -1).mean(axis=1)
    ref64 = reference.astype(np.float64, copy=False)
    # Mixed-precision subtract widens batch elements on the fly — exact,
    # like count_variability/ermv's explicit float64 casts, without
    # materialising a float64 copy of the whole batch.
    diff = np.subtract(ref64, batch, dtype=np.float64)
    np.abs(diff, out=diff)
    denom = np.abs(ref64)
    zero_ref = denom == 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not zero_ref.any():
            # No zero references (the usual case): the plain in-place
            # quotient equals the masked divide bit for bit.
            rel = np.divide(diff, denom, out=diff)
        else:
            rel = np.divide(diff, denom, out=np.zeros_like(diff), where=~zero_ref)
            rel = np.where(zero_ref & (diff != 0), np.inf, rel)
    ermvs = rel.reshape(n_runs, -1).mean(axis=1)
    finite = ermvs[np.isfinite(ermvs)]
    uniq = len({batch[r].tobytes() for r in range(n_runs)})
    return OpVariability(
        n_runs=n_runs,
        vc_mean=float(vcs.mean()),
        vc_std=float(vcs.std()),
        ermv_mean=float(finite.mean()) if finite.size else float("inf"),
        ermv_std=float(finite.std()) if finite.size else float("nan"),
        ermv_max=float(finite.max()) if finite.size else float("inf"),
        n_unique=uniq,
    )


#: Cross-figure workload cache.  Workloads are pure functions of
#: (seed, cell, dtype) — data streams never advance the run counter — and
#: Figs 3–5 / Table 5 share many grid cells, so one regeneration session
#: builds each cell's arrays and :class:`SegmentPlan` exactly once.
_WORKLOAD_CACHE: dict = {}
_WORKLOAD_CACHE_MAX = 96


def _per_run_stats_sparse(
    reference: np.ndarray,
    batch: np.ndarray,
    run_ids: np.ndarray,
    row_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-run ``(vcs, ermvs)`` given the superset of differing rows.

    ``(run_ids, row_ids)`` must cover every leading-axis row of ``batch``
    that is not bit-identical to the reference row (duplicates and
    equal-bits rows are fine).  The ``rel``/``neq`` arrays are then filled
    sparsely; because every untouched element is exactly the ``+0.0`` /
    ``False`` the dense transform produces for bit-equal rows (finite
    data), the materialised arrays — and therefore every per-run value's
    bits — are identical to :func:`_summarise_batch`'s.  Each row's value
    depends only on that row, so the vectors slice cleanly along any run
    window — the property the sharded sweep payloads rely on.
    """
    n_runs = batch.shape[0]
    ref_rows = np.asarray(reference)[row_ids]
    sub = batch[run_ids, row_ids]
    neq = np.zeros(batch.shape, dtype=bool)
    neq[run_ids, row_ids] = ref_rows != sub
    vcs = neq.reshape(n_runs, -1).mean(axis=1)
    ref64 = ref_rows.astype(np.float64, copy=False)
    diff = np.subtract(ref64, sub, dtype=np.float64)
    np.abs(diff, out=diff)
    denom = np.abs(ref64)
    zero_ref = denom == 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not zero_ref.any():
            rr = np.divide(diff, denom, out=diff)
        else:
            rr = np.divide(diff, denom, out=np.zeros_like(diff), where=~zero_ref)
            rr = np.where(zero_ref & (diff != 0), np.inf, rr)
    rel = np.zeros(batch.shape, dtype=np.float64)
    rel[run_ids, row_ids] = rr
    ermvs = rel.reshape(n_runs, -1).mean(axis=1)
    return vcs, ermvs


def variability_from_payload(payload: dict) -> OpVariability:
    """:class:`OpVariability` from one cell's merged shard payload.

    The payload carries per-run vectors (``vcs``/``ermvs``) and per-run
    output digests; the summary statistics reduce them exactly like
    :func:`_summarise_batch` reduces its per-run columns, so serial and
    merged-shard payloads yield bit-identical statistics.
    """
    vcs = np.asarray(payload["vcs"])
    ermvs = np.asarray(payload["ermvs"])
    finite = ermvs[np.isfinite(ermvs)]
    return OpVariability(
        n_runs=int(vcs.size),
        vc_mean=float(vcs.mean()),
        vc_std=float(vcs.std()),
        ermv_mean=float(finite.mean()) if finite.size else float("inf"),
        ermv_std=float(finite.std()) if finite.size else float("nan"),
        ermv_max=float(finite.max()) if finite.size else float("inf"),
        n_unique=len(set(payload["digests"])),
    )


def _build_workload(cell: SweepCell, ctx: RunContext, dtype):
    """Generate one cell's inputs and fold plan (data streams only).

    Normals are drawn natively in the target dtype (``standard_normal``'s
    float32 ziggurat path) rather than drawn in float64 and cast — half the
    generation work for byte-different but statistically identical
    workloads; the golden pins capture the native-draw outputs.
    """
    key = (ctx.seed, cell, np.dtype(dtype))
    hit = _WORKLOAD_CACHE.pop(key, None)
    if hit is not None:
        _WORKLOAD_CACHE[key] = hit  # refresh LRU position
        return hit
    n = cell.n
    n_targets = max(1, round(cell.ratio * n))
    if cell.op == "scatter_reduce":
        rng = ctx.data(stream=(n * 1009 + int(cell.ratio * 1000)) % 2**31)
        idx = rng.integers(0, n_targets, size=n)
        src = rng.standard_normal(n, dtype=dtype)
        # Nonzero destination values (include_self): with a zero init, two-
        # contribution segments could never vary (a + b == b + a exactly);
        # real workloads reduce onto live accumulators.
        inp = rng.standard_normal(n_targets, dtype=dtype)
    elif cell.op == "index_add":
        rng = ctx.data(stream=(n * 2003 + int(cell.ratio * 1000)) % 2**31)
        idx = rng.integers(0, n_targets, size=n)
        src = rng.standard_normal((n, n), dtype=dtype)
        # Nonzero destination rows; see above.
        inp = rng.standard_normal((n_targets, n), dtype=dtype)
    else:
        raise ValueError(f"unknown sweep op {cell.op!r}")
    for arr in (idx, src, inp):
        arr.setflags(write=False)
    workload = SegmentPlan(idx, n_targets), inp, idx, src
    while len(_WORKLOAD_CACHE) >= _WORKLOAD_CACHE_MAX:
        _WORKLOAD_CACHE.pop(next(iter(_WORKLOAD_CACHE)))
    _WORKLOAD_CACHE[key] = workload
    return workload


def _evaluate(cell: SweepCell, workload, n_runs: int, ctx: RunContext) -> OpVariability:
    plan, inp, idx, src = workload
    if cell.op == "scatter_reduce":
        # No deterministic kernel exists (§IV): the reference is the first
        # non-deterministic run — exactly the paper's protocol.
        batch = scatter_reduce_runs(
            inp, 0, idx, src, cell.reduce, n_runs + 1, plan=plan, ctx=ctx, stacked=True
        )
        return _summarise_batch(batch[0], batch[1:])
    reference = index_add(inp, 0, idx, src, plan=plan, deterministic=True)
    batch = index_add_runs(inp, 0, idx, src, n_runs, plan=plan, ctx=ctx, stacked=True)
    return _summarise_batch(reference, batch)


def _pooled_refold(group: list[dict]) -> None:
    """Raced re-fold pooled across a group of same-payload cells.

    Each entry carries a plan, fold values, init, its per-run draws and a
    pre-filled canonical ``out`` batch; this replaces the raced rows of
    every entry's batch in one stratified pass over the union of all
    entries' raced segments.  Bit-identical per cell to
    :meth:`SegmentPlan.fold_runs_sparse`: the strata are additionally
    split on whether a segment is at its own cell's ``k_max`` (no trailing
    identity pad) or below it (one pad slot, standing in for any number of
    scalar pads), so pooling cells with different fold widths never
    changes a fold.  The group must share one reduce family (the caller
    groups by payload shape *and* fold operator).
    """
    reduce = group[0]["cell"].reduce
    seg_t_parts: list[np.ndarray] = []
    seg_run_parts: list[np.ndarray] = []
    key_parts: list[np.ndarray] = []
    ent_sizes = []
    for e in group:
        size = 0
        for r, (raced, keys) in enumerate(e["draws"]):
            if raced.size:
                seg_t_parts.append(raced)
                seg_run_parts.append(np.full(raced.size, r, dtype=np.int64))
                key_parts.append(keys)
                size += raced.size
        ent_sizes.append(size)
    if not seg_t_parts:
        return
    seg_t = np.concatenate(seg_t_parts)
    seg_run = np.concatenate(seg_run_parts)
    keys = np.concatenate(key_parts)
    n_seg = seg_t.size
    seg_ent = np.repeat(np.arange(len(group)), ent_sizes)
    plans = [e["plan"] for e in group]
    toff = np.concatenate([[0], np.cumsum([p.n_targets for p in plans])[:-1]])
    soff = np.concatenate([[0], np.cumsum([p.n_sources for p in plans])[:-1]])
    counts_cat = np.concatenate([p.counts for p in plans])
    starts_cat = np.concatenate(
        [p.segment_starts + off for p, off in zip(plans, soff)]
    )
    order_cat = np.concatenate([p.order + off for p, off in zip(plans, soff)])
    kmax_per_ent = np.array([p.k_max for p in plans])
    dtype = group[0]["vals"].dtype
    vals_cat = np.concatenate([e["vals"] for e in group])
    init_cat = np.concatenate([e["init"] for e in group])
    gt = seg_t + toff[seg_ent]  # global target ids
    seg_counts = counts_cat[gt]
    seg_pad = seg_counts < kmax_per_ent[seg_ent]
    pos_off = np.zeros(n_seg, dtype=np.int64)
    np.cumsum(seg_counts[:-1], out=pos_off[1:])
    folded = _stratified_refold(
        seg_start=starts_cat[gt],
        seg_count=seg_counts,
        seg_pad=seg_pad,
        pos_off=pos_off,
        keys=keys,
        order=order_cat,
        vals=vals_cat,
        init_rows=init_cat[gt],
        ufunc=_UFUNC[reduce],
        identity=np.asarray(_IDENTITY[reduce], dtype=dtype)[()],
    )
    lo = 0
    for e, size in zip(group, ent_sizes):
        span = slice(lo, lo + size)
        e["out"][seg_run[span], seg_t[span]] = folded[span]
        # Remember which (run, target) rows were re-folded: every other row
        # is a bit-copy of the canonical fold, which the sparse summariser
        # exploits.
        e["raced_rows"] = (seg_run[span], seg_t[span])
        lo += size


def sweep_run_payloads(
    cells: list[SweepCell],
    n_runs: int,
    ctx: RunContext,
    *,
    lo: int = 0,
    hi: int | None = None,
    dtype=np.float32,
) -> list[dict]:
    """Evaluate runs ``[lo, hi)`` of a sweep grid; return per-cell payloads.

    The shard kernel of the Figs 3–5 / Table 5 sweeps.  The serial stream
    layout assigns each cell a contiguous block of scheduler streams
    starting at the context's current ladder position (``runs_eff`` per
    cell: ``n_runs`` for ``index_add``, ``n_runs + 1`` for
    ``scatter_reduce``, whose global run 0 is the reference).  A shard
    draws, per cell, exactly the window's streams — the reference stream
    plus ``[lo, hi)`` of the comparison runs — by seeking the ladder to
    each block's absolute position, so per-run outputs are bit-identical
    to rows ``[lo, hi)`` of the full sweep.  The ladder is left at the end
    of the last cell's *full* block, exactly where a serial sweep leaves
    it.

    Each payload carries the window's per-run ``vcs``/``ermvs`` vectors
    (:class:`~repro.experiments.sharding.RunConcat`) and per-run output
    digests (:class:`~repro.experiments.sharding.RunList`); merged
    payloads feed :func:`variability_from_payload`.
    """
    hi = n_runs if hi is None else hi
    if not 0 <= lo <= hi <= n_runs:
        raise ValueError(f"bad run window [{lo}, {hi}) for n_runs={n_runs}")
    r = hi - lo
    base = ctx.peek_run_counter()
    entries = []
    for cell in cells:
        plan, inp, idx, src = _build_workload(cell, ctx, dtype)
        model = OP_CONTENTION[cell.op]
        if cell.op == "scatter_reduce":
            # Global run 0 is the reference (§IV: no deterministic kernel);
            # every shard reproduces it from stream ``base`` before drawing
            # its own comparison window.
            ctx.seek_runs(base)
            draws = plan.sample_run_draws(1, model, ctx)
            ctx.seek_runs(base + 1 + lo)
            draws += plan.sample_run_draws(r, model, ctx)
            runs_eff_full = n_runs + 1
        else:
            ctx.seek_runs(base + lo)
            draws = plan.sample_run_draws(r, model, ctx)
            runs_eff_full = n_runs
        base += runs_eff_full
        vals = src.astype(dtype, copy=False)
        canonical = plan.fold(vals, reduce=cell.reduce, init=inp)
        out = np.empty((len(draws),) + canonical.shape, dtype=canonical.dtype)
        out[:] = canonical
        entries.append(
            {
                "cell": cell, "plan": plan, "inp": inp, "vals": vals,
                "draws": draws, "out": out, "canonical": canonical,
                "init": np.asarray(inp, dtype=vals.dtype),
            }
        )
    ctx.seek_runs(base)
    groups: dict[tuple, list[dict]] = {}
    for e in entries:
        # Pool only cells that share both the payload shape and the fold
        # operator (sum/mean share +/0; amax etc. get their own group).
        reduce = e["cell"].reduce
        key = (e["vals"].shape[1:], _UFUNC[reduce], _IDENTITY[reduce])
        groups.setdefault(key, []).append(e)
    for group in groups.values():
        _pooled_refold(group)
    empty = np.empty(0, dtype=np.int64)
    payloads = []
    for e in entries:
        cell, out, inp, plan = e["cell"], e["out"], e["inp"], e["plan"]
        runs, rows = e.get("raced_rows", (empty, empty))
        if cell.op == "scatter_reduce":
            final = _finalize_scatter_reduce(
                out, inp, plan, cell.reduce, True, inp.ndim - 1
            )
            # Rows can differ from the reference (= run 0) only where run 0
            # raced or the compared run raced; shift into batch[1:] frame.
            n_cmp = final.shape[0] - 1
            ref_raced = rows[runs == 0]
            later = runs != 0
            run_ids = np.concatenate(
                [runs[later] - 1, np.repeat(np.arange(n_cmp), ref_raced.size)]
            )
            row_ids = np.concatenate([rows[later], np.tile(ref_raced, n_cmp)])
            reference, cmp_rows = final[0], final[1:]
        else:
            cmp_rows = out.astype(inp.dtype, copy=False)
            # The deterministic index_add reference is exactly the
            # canonical fold every un-raced row already equals.
            reference = e["canonical"].astype(inp.dtype, copy=False)
            run_ids, row_ids = runs, rows
        vcs, ermvs = _per_run_stats_sparse(reference, cmp_rows, run_ids, row_ids)
        payloads.append(
            {
                "vcs": RunConcat(vcs),
                "ermvs": RunConcat(ermvs),
                "digests": RunList(run_digests(cmp_rows)),
            }
        )
    return payloads


def sweep_variability(
    cells: list[SweepCell],
    n_runs: int,
    ctx: RunContext,
    *,
    dtype=np.float32,
) -> list[OpVariability]:
    """Evaluate a whole sweep grid through the batched engine.

    Workloads and :class:`SegmentPlan`s for every cell are built first
    (run-counter-independent data streams), all cells' per-run draws are
    sampled in cell order (the scheduler-stream order of a scalar
    cell-by-cell sweep), and the raced re-folds are then pooled across
    same-payload cells (:func:`_pooled_refold`) — whole sweep columns fold
    as one batch.  Results are bit-identical to calling
    :func:`scatter_reduce_variability` / :func:`index_add_variability`
    per cell.  Internally this is the full-window ``[0, n_runs)`` special
    case of :func:`sweep_run_payloads` — the same kernel the sharded
    executor partitions across processes.
    """
    payloads = sweep_run_payloads(cells, n_runs, ctx, lo=0, hi=n_runs, dtype=dtype)
    return [
        variability_from_payload({k: v.finish() for k, v in p.items()})
        for p in payloads
    ]


def scatter_reduce_variability(
    n: int,
    reduction_ratio: float,
    reduce: str,
    n_runs: int,
    ctx: RunContext,
    *,
    dtype=np.float32,
) -> OpVariability:
    """Paper workload: 1-D scatter_reduce of ``n`` sources into
    ``round(R * n)`` targets with uniform random indices.

    ``scatter_reduce`` has no deterministic kernel (§IV), so the reference
    is the first non-deterministic run — exactly the paper's protocol.
    """
    cell = SweepCell("scatter_reduce", n, reduction_ratio, reduce)
    return _evaluate(cell, _build_workload(cell, ctx, dtype), n_runs, ctx)


def index_add_variability(
    n: int,
    reduction_ratio: float,
    n_runs: int,
    ctx: RunContext,
    *,
    dtype=np.float32,
) -> OpVariability:
    """Paper workload: 2-D ``n x n`` source rows added into
    ``round(R * n)`` target rows.

    ``index_add`` has a deterministic kernel; it provides the reference.
    """
    cell = SweepCell("index_add", n, reduction_ratio)
    return _evaluate(cell, _build_workload(cell, ctx, dtype), n_runs, ctx)
