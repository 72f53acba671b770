"""Shared machinery for the kernel-variability experiments (Table 5, Figs 3-5).

Implements the paper's §IV protocol: when a deterministic kernel exists,
its output is the reference ``A``; otherwise the first non-deterministic
run is (``A = B_0``).  The run axis executes through the batched engine:
each configuration reuses a single
:class:`~repro.ops.segmented.SegmentPlan`, folds canonically once, and per
run re-folds only the raced segments (the contention-sparse scheme of
:meth:`~repro.ops.segmented.SegmentPlan.fold_runs_sparse`) —
bit-identical to looping the scalar kernels, but without re-paying the
fold or setup per run.

The **configuration axis** is batched too: :func:`sweep_run_payloads`
takes the whole (dims × ratios) grid of a figure, builds every cell's
workload and :class:`SegmentPlan` up front (data streams are run-counter
independent, so the pre-build is invisible to the RNG contract) and pools
the raced re-folds of same-payload cells into one stratified pass.

The run window streams through **run chunks** of about
``_RUN_CHUNK_BYTES`` of output rows per pooled cell group (at least one
run): per chunk, every cell draws its chunk's runs (seeking its own
block of scheduler streams), the pooled re-fold returns sparse
``(run, target, value)`` triples, and each cell rebuilds only that
chunk's rows from its canonical fold to take per-run statistics and
digests.  No array is sized by the window except the
per-run result vectors, so memory stays flat as ``n_runs`` grows.  Every
per-run value is computed on one contiguous row of the same length
whatever the chunking, and scheduler streams are pure functions of their
ladder position, so every statistic matches a cell-by-cell scalar sweep
bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..ops import index_add, index_add_runs, scatter_reduce_runs
from ..ops.nondet import OP_CONTENTION
from ..ops.scatter import _finalize_scatter_reduce
from ..ops.segmented import _IDENTITY, _UFUNC, RaceDraws, SegmentPlan, _stratified_refold
from ..runtime import RunContext
from .sharding import RunConcat, RunList

__all__ = [
    "OpVariability",
    "SweepCell",
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
    """Per-run ``(vcs, ermvs)`` of one run chunk, given the superset of
    differing rows.

    ``batch`` is a chunk of rebuilt run outputs; ``(run_ids, row_ids)``
    (chunk-relative run indices) must cover every leading-axis row of
    ``batch`` that is not bit-identical to the reference row (duplicates
    and equal-bits rows are fine).  The ``rel``/``neq`` arrays are then
    filled sparsely; because every untouched element is exactly the
    ``+0.0`` / ``False`` the dense transform produces for bit-equal rows
    (finite data), the materialised arrays — and therefore every per-run
    value's bits — are identical to :func:`_summarise_batch`'s.  Each
    run's value is a mean over that run's own contiguous row, so it does
    not depend on which chunk or shard window the run lands in.
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


def _refold_pool(group: list[dict]) -> dict:
    """Run-invariant inputs of :func:`_pooled_refold` for one cell group.

    The group's plans, fold values and inits concatenated once per
    window, with per-cell target/source offsets into them.
    """
    plans = [e["plan"] for e in group]
    reduce = group[0]["cell"].reduce
    dtype = group[0]["vals"].dtype
    soff = np.concatenate([[0], np.cumsum([p.n_sources for p in plans])[:-1]])
    return {
        "toff": np.concatenate([[0], np.cumsum([p.n_targets for p in plans])[:-1]]),
        "counts": np.concatenate([p.counts for p in plans]),
        "starts": np.concatenate([p.segment_starts + off for p, off in zip(plans, soff)]),
        "order": np.concatenate([p.order + off for p, off in zip(plans, soff)]),
        "kmax": np.array([p.k_max for p in plans]),
        "vals": np.concatenate([e["vals"] for e in group]),
        "init": np.concatenate([e["init"] for e in group]),
        "ufunc": _UFUNC[reduce],
        "identity": np.asarray(_IDENTITY[reduce], dtype=dtype)[()],
    }


def _pooled_refold(pool: dict, draws: list[RaceDraws]) -> list[tuple]:
    """Raced re-fold pooled across a group of same-payload cells.

    ``draws[i]`` is cell ``i``'s :class:`~repro.ops.segmented.RaceDraws`
    (one run chunk); ``pool`` is the group's :func:`_refold_pool`.  All
    cells' raced segments fold in one stratified pass, and each cell gets
    back sparse ``(runs, targets, values)`` triples: chunk-relative run
    index, raced target, and that target's re-folded row.  Every other
    ``(run, target)`` row is a bit-copy of the cell's canonical fold.
    Bit-identical per cell to :meth:`SegmentPlan.fold_runs_sparse`: the
    strata are additionally split on whether a segment is at its own
    cell's ``k_max`` (no trailing identity pad) or below it (one pad slot,
    standing in for any number of scalar pads), so pooling cells with
    different fold widths never changes a fold.  The group must share one
    reduce family (the caller groups by payload shape *and* fold operator).
    """
    ent_sizes = [d.targets.size for d in draws]
    if not sum(ent_sizes):
        none = np.empty(0, dtype=np.int64)
        return [(none, none, pool["vals"][:0])] * len(draws)
    seg_t = np.concatenate([d.targets for d in draws])
    seg_run = np.concatenate([d.runs for d in draws])
    keys = np.concatenate([d.keys for d in draws])
    n_seg = seg_t.size
    seg_ent = np.repeat(np.arange(len(draws)), ent_sizes)
    gt = seg_t + pool["toff"][seg_ent]  # global target ids
    seg_counts = pool["counts"][gt]
    seg_pad = seg_counts < pool["kmax"][seg_ent]
    pos_off = np.zeros(n_seg, dtype=np.int64)
    np.cumsum(seg_counts[:-1], out=pos_off[1:])
    folded = _stratified_refold(
        seg_start=pool["starts"][gt],
        seg_count=seg_counts,
        seg_pad=seg_pad,
        pos_off=pos_off,
        keys=keys,
        order=pool["order"],
        vals=pool["vals"],
        init_rows=pool["init"][gt],
        ufunc=pool["ufunc"],
        identity=pool["identity"],
    )
    bounds = np.cumsum(ent_sizes)[:-1]
    return list(
        zip(np.split(seg_run, bounds), np.split(seg_t, bounds), np.split(folded, bounds))
    )


#: Run-chunk size of :func:`sweep_run_payloads`: bytes of output rows one
#: chunk rebuilds, summed over a pooled cell group.  The chunk's working
#: set (draws, rows, finalised rows, float64 ``rel``, bool ``neq``) is a
#: small multiple of it, whatever the window.  On the Figs 3-5 grids
#: (2-CPU x86-64) 2-16 MiB timed the same within noise while peak RSS
#: grew with the size (~127/134/151/183 MB); 4 MiB keeps runs per chunk
#: in the tens on fig3's widest group.
_RUN_CHUNK_BYTES = 4 << 20


def _rebuild_rows(e: dict, n: int, triples: tuple) -> np.ndarray:
    """``n`` runs' final output rows of a cell from its canonical fold and
    :func:`_pooled_refold` triples."""
    runs, targets, folded = triples
    canonical = e["canonical"]
    rows = np.empty((n,) + canonical.shape, dtype=canonical.dtype)
    rows[:] = canonical
    if runs.size:
        rows[runs, targets] = folded
    cell, inp = e["cell"], e["inp"]
    if cell.op == "scatter_reduce":
        return _finalize_scatter_reduce(
            rows, inp, e["plan"], cell.reduce, True, inp.ndim - 1
        )
    return rows.astype(inp.dtype, copy=False)


def _draw_chunk(group: list[dict], starts: list[int], n: int, ctx: RunContext) -> list[RaceDraws]:
    """Each cell's draws for ``n`` runs, starting at its stream in ``starts``."""
    draws = []
    for e, start in zip(group, starts):
        ctx.seek_runs(start)
        draws.append(e["plan"].sample_run_draws(n, e["model"], ctx))
    return draws


def _delta_digests(rows: np.ndarray, canon: np.ndarray, runs, targets) -> list[str]:
    """Per-run digests of each run's delta from the canonical rows.

    Run ``r`` hashes the ``dtype``/row-``shape`` prefix, then the sorted
    ids of its rows whose bytes differ from ``canon`` and those rows'
    bytes.  Every other row of a run equals ``canon`` by construction
    (only the ``(runs, targets)`` rows can differ), so two runs share a
    digest exactly when their outputs share their bits (up to SHA-256
    collisions) — all the distinct-output count needs, at the cost of
    hashing the changed rows only.  ``runs`` is ascending with ascending
    ``targets`` within a run.
    """
    n = len(rows)
    width = canon[0].nbytes
    got = np.ascontiguousarray(rows[runs, targets]).view(np.uint8).reshape(-1, width)
    base = np.ascontiguousarray(canon[targets]).view(np.uint8).reshape(-1, width)
    diff = (got != base).any(axis=1)
    runs, targets, got = runs[diff], targets[diff].astype("<i8"), got[diff]
    bounds = np.searchsorted(runs, np.arange(n + 1)).tolist()
    prefix = hashlib.sha256()
    prefix.update(str(rows.dtype).encode())
    prefix.update(str(rows.shape[1:]).encode())
    canonical = prefix.hexdigest()
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            out.append(canonical)
            continue
        h = prefix.copy()
        h.update(targets[lo:hi])
        h.update(got[lo:hi])
        out.append(h.hexdigest())
    return out


def _sweep_group(group: list[dict], n: int, ctx: RunContext) -> None:
    """Stream ``n`` runs of a same-payload cell group through run chunks.

    Fills each entry's ``vcs``/``ermvs``/``digests``.  The reference (for
    ``scatter_reduce``, global run 0 — drawn, re-folded and finalised
    once) and the pooled concatenations are run-invariant and hoisted out
    of the chunk loop.
    """
    pool = _refold_pool(group)
    none = np.empty(0, dtype=np.int64)
    if group[0]["cell"].op == "scatter_reduce":
        ref_draws = _draw_chunk(group, [e["ref_stream"] for e in group], 1, ctx)
        for e, d, triples in zip(group, ref_draws, _pooled_refold(pool, ref_draws)):
            e["reference"] = _rebuild_rows(e, 1, triples)[0]
            # Rows can differ from the reference only where it raced or
            # the compared run raced.
            e["ref_raced"] = d.targets
    else:
        for e in group:
            # The deterministic index_add reference is exactly the
            # canonical fold every un-raced row already equals.
            e["reference"] = e["canonical"].astype(e["inp"].dtype, copy=False)
            e["ref_raced"] = none
    for e in group:
        e["vcs"] = np.empty(n)
        e["ermvs"] = np.empty(n)
        e["digests"] = []
        e["canon_rows"] = _rebuild_rows(e, 1, (none, none, None))[0]
    step = max(1, _RUN_CHUNK_BYTES // sum(e["canonical"].nbytes for e in group))
    for lo in range(0, n, step):
        size = min(step, n - lo)
        draws = _draw_chunk(group, [e["stream"] + lo for e in group], size, ctx)
        for e, triples in zip(group, _pooled_refold(pool, draws)):
            rows = _rebuild_rows(e, size, triples)
            ref_raced = e["ref_raced"]
            run_ids = np.concatenate([triples[0], np.repeat(np.arange(size), ref_raced.size)])
            row_ids = np.concatenate([triples[1], np.tile(ref_raced, size)])
            span = slice(lo, lo + size)
            e["vcs"][span], e["ermvs"][span] = _per_run_stats_sparse(
                e["reference"], rows, run_ids, row_ids
            )
            e["digests"] += _delta_digests(rows, e["canon_rows"], triples[0], triples[1])


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
    to rows ``[lo, hi)`` of the full sweep.  The window streams through
    run chunks (see the module docstring), so memory does not grow with
    it beyond the per-run result vectors.  The ladder is left at the end
    of the last cell's *full* block, exactly where a serial sweep leaves
    it.

    Each payload carries the window's per-run ``vcs``/``ermvs`` vectors
    (:class:`~repro.experiments.sharding.RunConcat`) and per-run output
    digests (:class:`~repro.experiments.sharding.RunList`); merged
    payloads feed :func:`variability_from_payload`.  An empty window
    yields empty vectors.
    """
    if n_runs < 1:
        raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
    hi = n_runs if hi is None else hi
    if not 0 <= lo <= hi <= n_runs:
        raise ValueError(f"bad run window [{lo}, {hi}) for n_runs={n_runs}")
    base = ctx.peek_run_counter()
    entries = []
    for cell in cells:
        plan, inp, idx, src = _build_workload(cell, ctx, dtype)
        vals = src.astype(dtype, copy=False)
        e = {
            "cell": cell, "plan": plan, "inp": inp, "vals": vals,
            "model": OP_CONTENTION[cell.op],
            "init": np.asarray(inp, dtype=vals.dtype),
            "canonical": plan.fold(vals, reduce=cell.reduce, init=inp),
        }
        if cell.op == "scatter_reduce":
            # Global run 0 is the reference (§IV: no deterministic kernel);
            # every shard reproduces it from the block's first stream.
            e["ref_stream"] = base
            e["stream"] = base + 1 + lo
            base += n_runs + 1
        else:
            e["stream"] = base + lo
            base += n_runs
        entries.append(e)
    groups: dict[tuple, list[dict]] = {}
    for e in entries:
        # Pool only cells that share both the payload shape and the fold
        # operator (sum/mean share +/0; amax etc. get their own group).
        reduce = e["cell"].reduce
        key = (e["vals"].shape[1:], _UFUNC[reduce], _IDENTITY[reduce])
        groups.setdefault(key, []).append(e)
    for group in groups.values():
        _sweep_group(group, hi - lo, ctx)
    ctx.seek_runs(base)
    return [
        {
            "vcs": RunConcat(e["vcs"]),
            "ermvs": RunConcat(e["ermvs"]),
            "digests": RunList(e["digests"]),
        }
        for e in entries
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
