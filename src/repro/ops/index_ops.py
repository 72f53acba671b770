"""``index_add``, ``index_copy`` and ``index_put`` kernels (paper §IV-A).

``index_add`` updates rows of the output by *adding* rows of a source
routed through an index array::

    Y[I[k], :] += alpha * X[k, :]

On GPUs this is implemented with ``atomicAdd`` — the fold order per output
row is schedule dependent, making it the paper's canonical
non-deterministic kernel (it is the *only* ND source in their GraphSAGE
model).  A deterministic sort-based fallback exists but costs ~12x on H100
(Table 6); our cost model carries that penalty.

``index_copy`` / ``index_put`` have copy semantics (last writer wins) with
``index_put(accumulate=True)`` behaving like ``index_add``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..runtime import RunContext, get_context
from .nondet import OP_CONTENTION, ContentionModel
from .registry import resolve_determinism
from .segmented import SegmentPlan, sampled_copy_runs, sampled_fold_runs

__all__ = [
    "index_add",
    "index_add_runs",
    "index_add_batch",
    "index_copy",
    "index_copy_runs",
    "index_put",
    "index_put_runs",
]


def _validate(input_, index, source, dim):
    if dim != 0:
        raise ConfigurationError("only dim=0 index ops are supported (move the axis first)")
    inp = np.asarray(input_)
    idx = np.asarray(index)
    src = np.asarray(source)
    if idx.ndim != 1:
        raise ShapeError(f"index must be 1-D, got shape {idx.shape}")
    if src.shape[:1] != idx.shape:
        raise ShapeError(f"source first axis {src.shape[:1]} must match index {idx.shape}")
    if src.shape[1:] != inp.shape[1:]:
        raise ShapeError(
            f"source payload {src.shape[1:]} must match input payload {inp.shape[1:]}"
        )
    return inp, idx, src


def index_add(
    input_,
    dim: int,
    index,
    source,
    *,
    alpha: float = 1.0,
    deterministic: bool | None = None,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Return ``input_`` with ``alpha * source`` rows added at ``index``.

    The fold per target row starts from the input value (``include_self``
    is inherent to ``+=`` semantics) and proceeds in canonical order on the
    deterministic path, or with raced segments shuffled on the ND path.
    """
    inp, idx, src = _validate(input_, index, source, dim)
    det = resolve_determinism("index_add", deterministic)
    if plan is None:
        plan = SegmentPlan(idx, inp.shape[0])
    order = None
    if not det:
        if rng is None:
            rng = (ctx or get_context()).scheduler()
        raced = (model or OP_CONTENTION["index_add"]).sample_raced(
            plan.multi_targets, plan.n_sources, plan.n_targets, rng
        )
        order = plan.source_order(raced, rng)
    vals = src if alpha == 1.0 else src * np.asarray(alpha, dtype=src.dtype)
    folded = plan.fold(vals, order=order, reduce="sum", init=inp)
    return folded.astype(inp.dtype, copy=False)


def index_add_runs(
    input_,
    dim: int,
    index,
    source,
    n_runs: int,
    *,
    alpha: float = 1.0,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    stacked: bool = False,
):
    """``n_runs`` non-deterministic :func:`index_add` executions.

    The batched run-axis engine for the Table 5 / Figs 3–5 sweeps: the
    per-run randomness (raced-target Bernoulli + segment shuffle, one
    scheduler stream per run) is drawn exactly like ``n_runs`` scalar
    calls, while the per-target folds run through the contention-sparse
    :meth:`SegmentPlan.fold_runs_sparse`.  Each returned array is
    bit-identical to the corresponding scalar
    ``index_add(..., deterministic=False)`` call.  ``stacked=True``
    returns one ``(n_runs, *out_shape)`` array instead of a list.
    """
    inp, idx, src = _validate(input_, index, source, dim)
    if plan is None:
        plan = SegmentPlan(idx, inp.shape[0])
    model = model or OP_CONTENTION["index_add"]
    ctx = ctx or get_context()
    vals = src if alpha == 1.0 else src * np.asarray(alpha, dtype=src.dtype)
    return sampled_fold_runs(
        plan, vals, n_runs, model, ctx,
        reduce="sum",
        init=inp,
        finalize=lambda folded: folded.astype(inp.dtype, copy=False),
        stacked=stacked,
    )


def index_add_batch(
    input_,
    dim: int,
    index,
    source,
    *,
    alpha: float = 1.0,
    deterministic: bool | None = None,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    rngs=None,
    ctx: RunContext | None = None,
    n_runs: int | None = None,
) -> np.ndarray:
    """Run-batched :func:`index_add` over **per-run** (or shared) sources.

    The GNN training kernel of the batched run-axis engine: ``source`` may
    carry a leading run axis (``(R, n, *payload)`` — every lockstep run
    contributes its own diverged values), or be shared (``(n, *payload)``)
    with the runs diverging through the sampled fold orders alone.  On the
    non-deterministic path each run's randomness comes from its own
    generator in ``rngs`` (the one-stream-per-run training contract; see
    :mod:`repro.gpusim.scheduler`) or, when ``rngs`` is omitted, from one
    fresh context stream per run in run order.  Row ``r`` of the result is
    bit-identical to the scalar
    ``index_add(input_, dim, index, source[r], rng=rngs[r])`` call.

    ``input_`` is the shared ``include_self`` base (``(T, *payload)``).
    """
    src = np.asarray(source)
    if n_runs is None:
        if rngs is None:
            raise ConfigurationError("index_add_batch needs n_runs or rngs")
        n_runs = len(rngs)
    # input_ is always the shared (T, *payload) base, so the source is
    # run-batched exactly when it carries one extra leading axis.
    batched_src = src.ndim == np.asarray(input_).ndim + 1
    if batched_src and src.shape[0] != n_runs:
        raise ShapeError(
            f"batched source leading axis {src.shape[0]} != n_runs {n_runs}"
        )
    inp, idx, _ = _validate(input_, index, src[0] if batched_src else src, dim)
    det = resolve_determinism("index_add", deterministic)
    if plan is None:
        plan = SegmentPlan(idx, inp.shape[0])
    vals = src if alpha == 1.0 else src * np.asarray(alpha, dtype=src.dtype)
    draws = None
    if not det:
        model = model or OP_CONTENTION["index_add"]
        if rngs is not None:
            if len(rngs) != n_runs:
                raise ConfigurationError(f"expected {n_runs} rngs, got {len(rngs)}")
            draws = plan.sample_run_draws_rngs(rngs, model)
        else:
            draws = plan.sample_run_draws(n_runs, model, ctx or get_context())
    if batched_src:
        folded = plan.fold_runs_values(vals, draws, reduce="sum", init=inp)
    elif draws is None:
        folded = np.repeat(
            plan.fold(vals, reduce="sum", init=inp)[None], n_runs, axis=0
        )
    else:
        folded = plan.fold_runs_sparse(vals, draws, reduce="sum", init=inp)
    return folded.astype(inp.dtype, copy=False)


def index_copy(
    input_,
    dim: int,
    index,
    source,
    *,
    deterministic: bool | None = None,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Copy ``source`` rows into ``input_`` at ``index`` (last writer wins).

    Unique indices are fully deterministic; duplicates race exactly like
    :func:`repro.ops.scatter.scatter`.
    """
    inp, idx, src = _validate(input_, index, source, dim)
    det = resolve_determinism("index_copy", deterministic)
    if plan is None:
        plan = SegmentPlan(idx, inp.shape[0])
    order = plan.order
    if not det:
        if rng is None:
            rng = (ctx or get_context()).scheduler()
        raced = (model or OP_CONTENTION["index_copy"]).sample_raced(
            plan.multi_targets, plan.n_sources, plan.n_targets, rng
        )
        order = plan.source_order(raced, rng)
    out = np.array(inp, copy=True)
    if plan.n_sources:
        vals = src[order]
        has = plan.counts > 0
        ends = plan.segment_ends[has] - 1
        out[np.flatnonzero(has)] = vals[ends]
    return out


def index_put(
    input_,
    index,
    values,
    *,
    accumulate: bool = False,
    deterministic: bool | None = None,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """``out[index[k]] = values[k]`` (or ``+=`` with ``accumulate=True``).

    ``accumulate=True`` is ``index_add`` with alpha 1; ``False`` is
    last-writer-wins copy.  Both share the contention model under the
    ``index_put`` calibration key.
    """
    model = model or OP_CONTENTION["index_put"]
    if accumulate:
        return index_add(
            input_, 0, index, values,
            deterministic=deterministic, plan=plan, model=model, ctx=ctx, rng=rng,
        )
    return index_copy(
        input_, 0, index, values,
        deterministic=deterministic, plan=plan, model=model, ctx=ctx, rng=rng,
    )


def index_copy_runs(
    input_,
    dim: int,
    index,
    source,
    n_runs: int,
    *,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    stacked: bool = False,
):
    """``n_runs`` non-deterministic :func:`index_copy` executions.

    The batched run-axis engine for the Table 5 winner races: per-run
    randomness is drawn exactly like ``n_runs`` scalar calls (one scheduler
    stream per run — raced-target Bernoulli, then the segment shuffle
    keys), but only the raced segments' winning writers are recomputed on
    top of one shared canonical output
    (:func:`repro.ops.segmented.sampled_copy_runs`).  Each returned array
    is bit-identical to the corresponding scalar
    ``index_copy(..., deterministic=False)`` call.
    """
    inp, idx, src = _validate(input_, index, source, dim)
    if plan is None:
        plan = SegmentPlan(idx, inp.shape[0])
    return sampled_copy_runs(
        plan, src, n_runs, model or OP_CONTENTION["index_copy"],
        ctx or get_context(), init=inp, stacked=stacked,
    )


def index_put_runs(
    input_,
    index,
    values,
    n_runs: int,
    *,
    accumulate: bool = False,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    stacked: bool = False,
):
    """``n_runs`` non-deterministic :func:`index_put` executions.

    ``accumulate=True`` routes to :func:`index_add_runs`; ``False`` to the
    last-writer-wins engine of :func:`index_copy_runs`, both under the
    ``index_put`` contention calibration.
    """
    model = model or OP_CONTENTION["index_put"]
    if accumulate:
        return index_add_runs(
            input_, 0, index, values, n_runs,
            plan=plan, model=model, ctx=ctx, stacked=stacked,
        )
    return index_copy_runs(
        input_, 0, index, values, n_runs,
        plan=plan, model=model, ctx=ctx, stacked=stacked,
    )
