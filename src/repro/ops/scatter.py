"""``scatter`` and ``scatter_reduce`` kernels (paper §IV-A).

``scatter_reduce`` updates an output array by applying a reduction over
values from a source array routed by an index array::

    Y[i] = reduce({X[j] | I[j] = i})            (1-D, dim 0)

generalised to an arbitrary payload (trailing axes are carried along).
``scatter`` is the copy-semantics special case: the *last* routed writer
wins, so duplicate indices race.

Determinism: the canonical fold order is ascending source position; the
non-deterministic path shuffles the fold order of "raced" targets per the
contention model.  ``scatter_reduce`` has **no** working deterministic
path — requesting one raises, reproducing the paper's PyTorch runtime
error — while ``scatter`` falls back to the canonical winner.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..runtime import RunContext, get_context
from .nondet import OP_CONTENTION, ContentionModel
from .registry import resolve_determinism
from .segmented import SegmentPlan, sampled_copy_runs, sampled_fold_runs

__all__ = ["scatter", "scatter_runs", "scatter_reduce", "scatter_reduce_runs"]

_REDUCES = ("sum", "mean", "prod", "amax", "amin")


def _validate(input_, index, src, dim):
    if dim != 0:
        raise ConfigurationError("only dim=0 scatter is supported (move the axis first)")
    inp = np.asarray(input_)
    idx = np.asarray(index)
    s = np.asarray(src)
    if idx.ndim != 1:
        raise ShapeError(f"index must be 1-D, got shape {idx.shape}")
    if s.shape[:1] != idx.shape:
        raise ShapeError(f"src first axis {s.shape[:1]} must match index {idx.shape}")
    if s.shape[1:] != inp.shape[1:]:
        raise ShapeError(
            f"src payload {s.shape[1:]} must match input payload {inp.shape[1:]}"
        )
    return inp, idx, s


def _raced_targets(plan: SegmentPlan, model: ContentionModel, rng: np.random.Generator):
    return model.sample_raced(plan.multi_targets, plan.n_sources, plan.n_targets, rng)


def scatter_reduce(
    input_,
    dim: int,
    index,
    src,
    reduce: str,
    *,
    include_self: bool = True,
    deterministic: bool | None = None,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Scatter-reduce ``src`` into a copy of ``input_`` along ``dim=0``.

    Parameters
    ----------
    input_:
        ``(T, *payload)`` destination values.
    dim:
        Must be 0.
    index:
        ``(n,)`` target ids in ``[0, T)``.
    src:
        ``(n, *payload)`` contributions.
    reduce:
        ``"sum" | "mean" | "prod" | "amax" | "amin"``.
    include_self:
        Fold the destination value in first (PyTorch default).
    deterministic:
        Explicit path selection; ``None`` defers to the global switch.
        **Requesting determinism raises** — see module docstring.
    plan:
        Optional pre-built :class:`SegmentPlan` (reused across runs by the
        sweep harness).
    model, ctx, rng:
        Contention model and randomness overrides for the ND path.
    """
    if reduce not in _REDUCES:
        raise ConfigurationError(f"unknown reduce {reduce!r}; choose from {_REDUCES}")
    inp, idx, s = _validate(input_, index, src, dim)
    det = resolve_determinism("scatter_reduce", deterministic)
    if plan is None:
        plan = SegmentPlan(idx, inp.shape[0])
    order = None
    if not det:
        if rng is None:
            rng = (ctx or get_context()).scheduler()
        raced = _raced_targets(plan, model or OP_CONTENTION["scatter_reduce"], rng)
        order = plan.source_order(raced, rng)
    init = inp if include_self else None
    folded = plan.fold(s, order=order, reduce=reduce, init=init)
    return _finalize_scatter_reduce(folded, inp, plan, reduce, include_self, s.ndim - 1)


def _finalize_scatter_reduce(folded, inp, plan, reduce, include_self, payload_ndim):
    """Shared post-fold arithmetic of the scalar and batched paths.

    ``folded`` may carry a leading run axis; every operation below is
    elementwise (or a broadcast), so the batched results stay bit-identical
    to the per-run scalar ones.
    """
    lead = folded.ndim - (1 + payload_ndim)  # 0 scalar, 1 batched
    counts = plan.counts.reshape((1,) * lead + (-1,) + (1,) * payload_ndim)
    has = counts > 0
    if reduce == "mean":
        denom = counts + (1 if include_self else 0)
        out = np.where(denom > 0, folded / np.maximum(denom, 1), inp)
        out = out.astype(inp.dtype, copy=False)
        if not include_self:
            out = np.where(has, out, inp)
        return out
    if include_self:
        return folded.astype(inp.dtype, copy=False)
    # include_self=False: untouched rows keep their input values (and
    # amax/amin identity rows must not leak +-inf).
    return np.where(has, folded, inp).astype(inp.dtype, copy=False)


def scatter_reduce_runs(
    input_,
    dim: int,
    index,
    src,
    reduce: str,
    n_runs: int,
    *,
    include_self: bool = True,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    stacked: bool = False,
):
    """``n_runs`` non-deterministic :func:`scatter_reduce` executions.

    The batched run-axis engine for the Table 5 / Figs 3–5 sweeps: per-run
    randomness is drawn exactly like ``n_runs`` scalar calls (one scheduler
    stream per run — raced-target Bernoulli then segment shuffle), while
    the segmented folds run through the contention-sparse
    :meth:`SegmentPlan.fold_runs_sparse` (canonical fold shared, only the
    raced segments re-folded per run).  Each returned array is
    bit-identical to the corresponding scalar
    ``scatter_reduce(..., deterministic=False)`` call.  ``stacked=True``
    returns one ``(n_runs, *out_shape)`` array instead of a list.
    """
    if reduce not in _REDUCES:
        raise ConfigurationError(f"unknown reduce {reduce!r}; choose from {_REDUCES}")
    inp, idx, s = _validate(input_, index, src, dim)
    if plan is None:
        plan = SegmentPlan(idx, inp.shape[0])
    model = model or OP_CONTENTION["scatter_reduce"]
    ctx = ctx or get_context()
    return sampled_fold_runs(
        plan, s, n_runs, model, ctx,
        reduce=reduce,
        init=inp if include_self else None,
        finalize=lambda folded: _finalize_scatter_reduce(
            folded, inp, plan, reduce, include_self, s.ndim - 1
        ),
        stacked=stacked,
    )


def scatter(
    input_,
    dim: int,
    index,
    src,
    *,
    deterministic: bool | None = None,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Copy-semantics scatter: ``out[index[j]] = src[j]`` along ``dim=0``.

    Duplicate indices race: deterministically the highest source position
    wins (the canonical order's last writer); non-deterministically a raced
    target's winner is sampled.
    """
    inp, idx, s = _validate(input_, index, src, dim)
    det = resolve_determinism("scatter", deterministic)
    if plan is None:
        plan = SegmentPlan(idx, inp.shape[0])
    order = plan.order
    if not det:
        if rng is None:
            rng = (ctx or get_context()).scheduler()
        raced = _raced_targets(plan, model or OP_CONTENTION["scatter"], rng)
        order = plan.source_order(raced, rng)
    out = np.array(inp, copy=True)
    if plan.n_sources:
        vals = s[order]
        has = plan.counts > 0
        ends = plan.segment_ends[has] - 1
        out[np.flatnonzero(has)] = vals[ends]
    return out


def scatter_runs(
    input_,
    dim: int,
    index,
    src,
    n_runs: int,
    *,
    plan: SegmentPlan | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    stacked: bool = False,
):
    """``n_runs`` non-deterministic :func:`scatter` executions.

    The batched run-axis engine for the Table 5 winner races: per-run
    randomness is drawn exactly like ``n_runs`` scalar calls, but only the
    raced segments' winning writers are recomputed on top of one shared
    canonical output (:func:`repro.ops.segmented.sampled_copy_runs`).
    Each returned array is bit-identical to the corresponding scalar
    ``scatter(..., deterministic=False)`` call.  ``stacked=True`` returns
    one ``(n_runs, *out_shape)`` array instead of a list.
    """
    inp, idx, s = _validate(input_, index, src, dim)
    if plan is None:
        plan = SegmentPlan(idx, inp.shape[0])
    return sampled_copy_runs(
        plan, s, n_runs, model or OP_CONTENTION["scatter"],
        ctx or get_context(), init=inp, stacked=stacked,
    )
