"""Bit-exact segmented folds: the engine under every scatter-style kernel.

A scatter/index update is, per output element ("target"), a sequential fold
of its contributions.  FPNA means the fold *order* decides the bits.  This
module evaluates such folds with the order under explicit control:

1. :class:`SegmentPlan` — a reusable sort-based plan for a fixed index
   array: canonical order (ascending source position within each target),
   segment boundaries, per-source ranks, and the set of multiply-hit
   targets (the only ones whose fold order can matter).
2. :meth:`SegmentPlan.source_order` — the canonical order with the raced
   segments shuffled, sampled per run.
3. :meth:`SegmentPlan.fold` — a vectorised, **bit-exact** left fold per
   segment: contributions are placed into a zero-padded
   ``(targets, k_max+1, *payload)`` matrix and reduced with
   ``np.add.accumulate`` along the contribution axis.  Padding with the
   fold identity is exact in IEEE-754, so the result equals the sequential
   per-target fold in the given order, while all targets fold in lockstep.

The plan is built once per index array and reused across runs — the
argsort dominates setup, the per-run cost is one lexsort over raced
segments plus the fold.

Run-batched entry points: :meth:`SegmentPlan.fold_runs_sparse` (shared
values, contention-sparse raced refold), :meth:`SegmentPlan.
fold_runs_values` (per-run values — the GNN training case) and
:func:`sampled_copy_runs` (last-writer-wins winner races), all drawing
per run in run order via :meth:`SegmentPlan.sample_run_draws` /
:meth:`SegmentPlan.sample_run_draws_rngs`.  Only the raced-segment
re-fold has a compiled twin (``stratified_refold``); the canonical folds
run NumPy under either backend: :meth:`SegmentPlan.fold`'s lockstep fold
matrix, and its rank-by-rank twin in :meth:`SegmentPlan.fold_runs_values`
(the same adds on a ``(targets, runs, *payload)`` accumulator, with no
identity padding to materialise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import backend as _backend
from ..errors import ConfigurationError, ShapeError
from ..runtime import RunStreams

__all__ = ["RaceDraws", "SegmentPlan", "segmented_fold"]

_IDENTITY = {
    "sum": 0.0,
    "mean": 0.0,
    "prod": 1.0,
    "amax": -np.inf,
    "amin": np.inf,
}

_UFUNC = {
    "sum": np.add,
    "mean": np.add,
    "prod": np.multiply,
    "amax": np.maximum,
    "amin": np.minimum,
}

#: Fold-strategy crossover: up to this segment width the per-step Python
#: loop (one vectorised ufunc call per contribution slot, no prefix-matrix
#: materialisation) beats ``ufunc.accumulate``; beyond it the k_max
#: dispatches dominate (skewed index distributions) and the single C-level
#: accumulate wins.  Both produce bit-identical folds.
_FOLD_LOOP_MAX_K = 256


def _stratified_refold(
    *,
    seg_start: np.ndarray,
    seg_count: np.ndarray,
    seg_pad: np.ndarray,
    pos_off: np.ndarray,
    keys: np.ndarray,
    order: np.ndarray,
    vals: np.ndarray,
    init_rows: np.ndarray | None,
    ufunc: np.ufunc,
    identity,
    run_of_seg: np.ndarray | None = None,
) -> np.ndarray:
    """Bit-exact re-fold of an arbitrary batch of raced segments.

    The single definition of the engine's stratified fold, shared by
    :meth:`SegmentPlan.fold_runs_sparse` (one plan) and the sweep
    harness's pooled column folds (many plans concatenated).  Segments are
    stratified by contribution count ``k`` — a ``(n_k, k + 1 + pad)`` fold
    matrix and one small axis-1 stable argsort per stratum instead of one
    ``k_max``-wide matrix and a global lexsort.  Bit-exactness: (a) a
    stable within-segment key sort performs exactly the comparisons the
    scalar path's ``lexsort((keys, targets))`` performs inside each
    segment; (b) for padded segments one trailing identity slot stands in
    for however many identity pads the scalar fold appends — folding the
    identity once is equivalent to folding it any number of times for
    every supported reduce (``x + 0.0`` normalises ``-0.0`` on the first
    add and is then a fixed point; ``* 1.0`` and ``max/min`` with
    ``+-inf`` are fixed points outright).

    Parameters
    ----------
    seg_start:
        ``(S,)`` start position of each segment's span in ``order``.
    seg_count:
        ``(S,)`` contribution count ``k`` of each segment.
    seg_pad:
        ``(S,)`` bool: segment is below its plan's ``k_max`` (the scalar
        fold pads it), so its stratum carries one trailing identity slot.
    pos_off:
        ``(S,)`` offset of each segment's keys in ``keys``.
    keys:
        Concatenated shuffle keys, segment-major in rank order.
    order:
        Source ids in canonical (target, rank) order; segment spans index
        into it.
    vals:
        ``(n_sources, *payload)`` contributions in the fold dtype — or,
        with ``run_of_seg``, ``(n_runs, n_sources, *payload)`` per-run
        contributions (the run-batched GNN training case, where every run
        folds its own diverged values).
    init_rows:
        Optional ``(S, *payload)`` slot-0 (include-self) values.
    ufunc, identity:
        The reduce's fold operator and identity element.
    run_of_seg:
        Optional ``(S,)`` run index of each segment; selects the run's row
        of per-run ``vals``.

    Returns
    -------
    numpy.ndarray
        ``(S, *payload)`` folded segment values.
    """
    if ufunc is np.add:
        impl = _backend.resolve("stratified_refold")
        if impl is not None:
            res = impl(
                seg_start=seg_start,
                seg_count=seg_count,
                seg_pad=seg_pad,
                pos_off=pos_off,
                keys=keys,
                order=order,
                vals=vals,
                init_rows=init_rows,
                run_of_seg=run_of_seg,
            )
            if res is not NotImplemented:
                return res
    payload = vals.shape[2:] if run_of_seg is not None else vals.shape[1:]
    dtype = vals.dtype
    folded = np.empty((seg_count.size,) + payload, dtype=dtype)
    for k in np.unique(seg_count):
        k = int(k)
        in_k = seg_count == k
        for pad in (False, True):
            sel = np.flatnonzero(in_k & (seg_pad == pad))
            if not sel.size:
                continue
            lane = np.arange(k)
            src_k = order[seg_start[sel, None] + lane]
            keys_k = keys[pos_off[sel, None] + lane]
            if k == 2:
                # Stable sort of two keys: swap iff the second strictly
                # wins.
                swap = keys_k[:, 1] < keys_k[:, 0]
                if swap.any():
                    src_k[swap] = src_k[swap, ::-1]
            else:
                src_k = np.take_along_axis(
                    src_k, np.argsort(keys_k, axis=1, kind="stable"), axis=1
                )
            width = k + 1 + (1 if pad else 0)
            mat = np.full((sel.size, width) + payload, identity, dtype=dtype)
            if init_rows is not None:
                mat[:, 0] = init_rows[sel]
            if run_of_seg is None:
                mat[:, 1 : k + 1] = vals[src_k]
            else:
                mat[:, 1 : k + 1] = vals[run_of_seg[sel, None], src_k]
            folded[sel] = _fold_axis(mat, ufunc, axis=1)
    return folded


def _fold_axis(mat: np.ndarray, ufunc: np.ufunc, axis: int) -> np.ndarray:
    """Left fold of ``mat`` along ``axis``, bit-identical to
    ``ufunc.accumulate(mat, axis=axis)`` sliced at the last position."""
    k = mat.shape[axis]
    if k - 1 > _FOLD_LOOP_MAX_K:
        return np.take(ufunc.accumulate(mat, axis=axis), -1, axis=axis)
    sl = [slice(None)] * mat.ndim
    sl[axis] = 0
    acc = mat[tuple(sl)].copy()
    for i in range(1, k):
        sl[axis] = i
        # In-place: ufunc(a, b, out=a) computes the identical IEEE result
        # without allocating a fresh accumulator per step.
        ufunc(acc, mat[tuple(sl)], out=acc)
    return acc


@dataclass(frozen=True)
class RaceDraws:
    """A run batch's raced segments and shuffle keys, run-major.

    Segment ``s`` is target ``targets[s]`` of run ``runs[s]``, with
    ``counts[s]`` contributions; its keys are the next ``counts[s]``
    entries of ``keys`` (segments in run, then target order, keys in rank
    order).
    """

    n_runs: int
    runs: np.ndarray
    targets: np.ndarray
    counts: np.ndarray
    keys: np.ndarray

    def __len__(self) -> int:
        return self.n_runs

    def key_offsets(self) -> np.ndarray:
        """Offset of each segment's keys in :attr:`keys`."""
        off = np.zeros(self.counts.size, dtype=np.int64)
        np.cumsum(self.counts[:-1], out=off[1:])
        return off


class SegmentPlan:
    """Reusable fold plan for one (index, n_targets) pair.

    Parameters
    ----------
    index:
        1-D integer array mapping each source position to a target.
    n_targets:
        Number of output elements along the scatter axis.

    Attributes
    ----------
    order:
        Canonical source order: stable argsort of ``index`` — ascending
        source position within each target (the deterministic kernels' fold
        order).
    counts:
        Contributions per target.
    multi_targets:
        Targets with >= 2 contributions; only these can race.
    k_max:
        Largest segment size (fold-matrix width).
    """

    def __init__(self, index, n_targets: int) -> None:
        idx = np.asarray(index)
        if idx.ndim != 1:
            raise ShapeError(f"index must be 1-D, got shape {idx.shape}")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ConfigurationError(f"index must be integer, got dtype {idx.dtype}")
        if n_targets < 1:
            raise ConfigurationError(f"n_targets must be >= 1, got {n_targets}")
        if idx.size and (idx.min() < 0 or idx.max() >= n_targets):
            raise ConfigurationError(
                f"index values must be in [0, {n_targets}); "
                f"got range [{idx.min()}, {idx.max()}]"
            )
        self.index = idx
        self.n_sources = int(idx.size)
        self.n_targets = int(n_targets)
        self.order = np.argsort(idx, kind="stable")
        self.sorted_targets = idx[self.order]
        self.counts = np.bincount(idx, minlength=n_targets)
        self.k_max = int(self.counts.max()) if idx.size else 0
        starts = np.zeros(n_targets + 1, dtype=np.int64)
        np.cumsum(self.counts, out=starts[1:])
        self._starts = starts
        self.ranks = np.arange(self.n_sources, dtype=np.int64) - starts[self.sorted_targets]
        self.multi_targets = np.flatnonzero(self.counts >= 2)

    @property
    def segment_starts(self) -> np.ndarray:
        """Start position of each target's segment in the sorted order
        (``(n_targets,)``; equals the previous segment's end)."""
        return self._starts[:-1]

    @property
    def segment_ends(self) -> np.ndarray:
        """End position (exclusive) of each target's segment in the sorted
        order (``(n_targets,)``).  ``order[segment_ends[t] - 1]`` is the
        last — canonically winning — source of target ``t`` (empty targets
        have ``segment_ends[t] == segment_starts[t]``)."""
        return self._starts[1:]

    # ------------------------------------------------------------- ordering
    def source_order(
        self,
        raced_targets: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Return a fold order: canonical, with raced segments shuffled.

        Parameters
        ----------
        raced_targets:
            Target ids whose contribution order is randomised this run
            (``None``/empty → canonical order, no randomness consumed).
        rng:
            Required when ``raced_targets`` is non-empty.
        """
        if raced_targets is None or len(raced_targets) == 0:
            return self.order
        if rng is None:
            raise ConfigurationError("rng is required to shuffle raced segments")
        t_mask = np.zeros(self.n_targets, dtype=bool)
        t_mask[np.asarray(raced_targets)] = True
        pos_mask = t_mask[self.sorted_targets]
        keys = self.ranks.astype(np.float64)
        keys[pos_mask] = rng.random(int(pos_mask.sum()))
        resort = np.lexsort((keys, self.sorted_targets))
        return self.order[resort]

    def sample_run_draws(self, n_runs: int, model, ctx) -> RaceDraws:
        """Draw ``n_runs`` runs' raced targets and shuffle keys — the
        front end of the batched folds.

        One scheduler stream per run, in run order, consuming exactly the
        per-call sequence of the scalar scatter/index kernels (what keeps
        the batched runs bit-identical to a scalar loop): the raced-target
        Bernoulli over :attr:`multi_targets`, then one uniform key per
        position of every raced segment, in ascending target-then-rank
        order — the keys :meth:`source_order` sorts by.
        """
        return self._draw_runs(ctx.schedulers(n_runs), model)

    def sample_run_draws_rngs(self, rngs, model) -> RaceDraws:
        """:meth:`sample_run_draws` over *explicit* per-run streams (a
        :class:`~repro.runtime.RunStreams` window or Generators).

        The persistent-stream mode of the batched scatter front end (the
        GNN training contract): each simulated run owns one scheduler
        stream for its whole kernel *sequence*, and every batched kernel
        invocation consumes each run's stream exactly like the scalar
        kernel would.
        """
        return self._draw_runs(RunStreams.wrap(rngs), model)

    def _draw_runs(self, streams: RunStreams, model) -> RaceDraws:
        # The Bernoulli compare is exactly ContentionModel.sample_raced's,
        # drawn for the whole window in one batched pass.
        mt = self.multi_targets
        counts = self.counts[mt]
        runs, cand, keys = streams.raced_keys(
            model.race_probability(self.n_sources, self.n_targets), counts
        )
        return RaceDraws(len(streams), runs, mt[cand], counts[cand], keys)

    # ----------------------------------------------------------------- fold
    def fold(
        self,
        values: np.ndarray,
        *,
        order: np.ndarray | None = None,
        reduce: str = "sum",
        init: np.ndarray | None = None,
    ) -> np.ndarray:
        """Bit-exact per-target left fold of ``values`` in ``order``.

        Parameters
        ----------
        values:
            ``(n_sources, *payload)`` contributions (any float dtype; the
            fold runs in that dtype).
        order:
            Global source order (a permutation in which segments stay
            grouped, e.g. from :meth:`source_order`); default canonical.
        reduce:
            ``sum``/``mean`` (mean is folded as sum; divide at the op
            layer), ``prod``, ``amax``, ``amin``.
        init:
            Optional ``(n_targets, *payload)`` initial value folded first
            (``include_self`` semantics).  Targets with zero contributions
            return ``init`` (or the identity when absent).

        Returns
        -------
        numpy.ndarray
            ``(n_targets, *payload)`` folded values.
        """
        if reduce not in _UFUNC:
            raise ConfigurationError(
                f"unknown reduce {reduce!r}; choose from {sorted(_UFUNC)}"
            )
        vals = np.asarray(values)
        if vals.shape[:1] != (self.n_sources,):
            raise ShapeError(
                f"values first axis must be n_sources={self.n_sources}, "
                f"got shape {vals.shape}"
            )
        payload = vals.shape[1:]
        dtype = vals.dtype if np.issubdtype(vals.dtype, np.floating) else np.float64
        ufunc = _UFUNC[reduce]
        identity = np.asarray(_IDENTITY[reduce], dtype=dtype)[()]

        if order is None:
            order = self.order
        init_arr = None
        if init is not None:
            init_arr = np.asarray(init, dtype=dtype)
            if init_arr.shape != (self.n_targets,) + payload:
                raise ShapeError(
                    f"init shape {init_arr.shape} != {(self.n_targets,) + payload}"
                )
        vals_sorted = vals[order].astype(dtype, copy=False)

        mat = np.full((self.n_targets, self.k_max + 1) + payload, identity, dtype=dtype)
        if init_arr is not None:
            mat[:, 0] = init_arr
        if self.n_sources:
            mat[self.sorted_targets, self.ranks + 1] = vals_sorted
        folded = _fold_axis(mat, ufunc, axis=1)
        # Zero-contribution rows hold the identity (or init); for amax/amin
        # that is +-inf — the op layer substitutes the input values there.
        return folded

    def fold_runs_sparse(
        self,
        values: np.ndarray,
        draws: RaceDraws,
        *,
        reduce: str = "sum",
        init: np.ndarray | None = None,
        canonical: np.ndarray | None = None,
    ) -> np.ndarray:
        """Contention-sparse batched fold: re-fold only the raced segments.

        A run's fold differs from the canonical fold **only** at the
        targets that raced that run, so the batch is evaluated as one
        canonical fold (shared by every run) plus one fold-matrix pass over
        the union of all runs' raced segments.  Bit-identical per run to
        :meth:`fold` with the order :meth:`source_order` would build from
        the same draws: raced rows use the same ``k_max + 1`` fold width,
        the same identity padding and the same stable within-segment key
        sort as the scalar lexsort, and un-raced rows are byte-copies of
        the canonical rows.  Because race probabilities are well below one
        in the calibrated contention models, this does a small fraction of
        the work of one dense fold per run.

        Parameters
        ----------
        values:
            ``(n_sources, *payload)`` contributions, shared by all runs.
        draws:
            The batch's :class:`RaceDraws` from :meth:`sample_run_draws`.
        reduce, init:
            As in :meth:`fold`.
        canonical:
            Precomputed ``self.fold(values, reduce=reduce, init=init)``
            (computed here when omitted; pass it when folding several
            chunks of one run batch).

        Returns
        -------
        numpy.ndarray
            ``(len(draws), n_targets, *payload)`` folded values.
        """
        if reduce not in _UFUNC:
            raise ConfigurationError(
                f"unknown reduce {reduce!r}; choose from {sorted(_UFUNC)}"
            )
        vals = np.asarray(values)
        if vals.shape[:1] != (self.n_sources,):
            raise ShapeError(
                f"values first axis must be n_sources={self.n_sources}, "
                f"got shape {vals.shape}"
            )
        if canonical is None:
            canonical = self.fold(vals, reduce=reduce, init=init)
        out = np.empty((len(draws),) + canonical.shape, dtype=canonical.dtype)
        out[:] = canonical
        if not draws.targets.size:
            return out
        seg_targets, seg_counts = draws.targets, draws.counts
        payload = vals.shape[1:]
        dtype = vals.dtype if np.issubdtype(vals.dtype, np.floating) else np.float64
        ufunc = _UFUNC[reduce]
        identity = np.asarray(_IDENTITY[reduce], dtype=dtype)[()]
        init_arr = None
        if init is not None:
            init_arr = np.asarray(init, dtype=dtype)
            if init_arr.shape != (self.n_targets,) + payload:
                raise ShapeError(
                    f"init shape {init_arr.shape} != {(self.n_targets,) + payload}"
                )
        folded = _stratified_refold(
            seg_start=self.segment_starts[seg_targets],
            seg_count=seg_counts,
            seg_pad=seg_counts < self.k_max,
            pos_off=draws.key_offsets(),
            keys=draws.keys,
            order=self.order,
            vals=vals.astype(dtype, copy=False),
            init_rows=None if init_arr is None else init_arr[seg_targets],
            ufunc=ufunc,
            identity=identity,
        )
        out[draws.runs, seg_targets] = folded
        return out

    def fold_runs_values(
        self,
        values: np.ndarray,
        draws: RaceDraws | None = None,
        *,
        reduce: str = "sum",
        init: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched fold of **per-run values**: row ``r`` folds ``values[r]``.

        The per-run-values half of the batched run-axis engine — the GNN
        training case, where after the first non-deterministic kernel every
        run's contributions have diverged, so the runs share the *plan* but
        not the *values*.  Each run's fold is bit-identical to
        ``self.fold(values[r], order=source_order(<draws[r]>), init=init)``:
        the canonical fold of all runs is evaluated rank by rank into one
        ``(targets, runs, *payload)`` accumulator, and the raced segments
        of each run are then re-folded with that run's own values through
        the same stratified machinery as :meth:`fold_runs_sparse`.

        Parameters
        ----------
        values:
            ``(n_runs, n_sources, *payload)`` per-run contributions.
        draws:
            :class:`RaceDraws` from :meth:`sample_run_draws` /
            :meth:`sample_run_draws_rngs`; ``None`` folds every run in canonical order (the deterministic
            lockstep path).
        reduce, init:
            As in :meth:`fold` (``init`` is shared by all runs).

        Returns
        -------
        numpy.ndarray
            ``(n_runs, n_targets, *payload)`` folded values.
        """
        if reduce not in _UFUNC:
            raise ConfigurationError(
                f"unknown reduce {reduce!r}; choose from {sorted(_UFUNC)}"
            )
        vals = np.asarray(values)
        if vals.ndim < 2 or vals.shape[1] != self.n_sources:
            raise ShapeError(
                f"values must be (runs, n_sources={self.n_sources}, *payload), "
                f"got shape {vals.shape}"
            )
        n_runs = vals.shape[0]
        if draws is not None and len(draws) != n_runs:
            raise ConfigurationError(
                f"got {len(draws)} draws for {n_runs} runs"
            )
        payload = vals.shape[2:]
        dtype = vals.dtype if np.issubdtype(vals.dtype, np.floating) else np.float64
        ufunc = _UFUNC[reduce]
        identity = np.asarray(_IDENTITY[reduce], dtype=dtype)[()]
        vals = vals.astype(dtype, copy=False)
        init_arr = None
        if init is not None:
            init_arr = np.asarray(init, dtype=dtype)
            if init_arr.shape != (self.n_targets,) + payload:
                raise ShapeError(
                    f"init shape {init_arr.shape} != {(self.n_targets,) + payload}"
                )
        # The fold matrix of :meth:`fold`, one rank at a time: targets in
        # descending-count order, so the targets holding a rank-``i``
        # contribution are a prefix of the accumulator.  The same adds in
        # the same order, plus one explicit identity for every target the
        # matrix pads (below ``k_max``; rule 2 of repro.backend.csrc).
        perm = np.argsort(-self.counts, kind="stable")
        counts = self.counts[perm]
        starts = self.segment_starts[perm]
        by_source = np.moveaxis(vals, 1, 0)
        acc = np.empty((self.n_targets, n_runs) + payload, dtype=dtype)
        if init_arr is None:
            acc[:] = identity
        else:
            acc[:] = init_arr[perm][:, None]
        for i in range(self.k_max):
            m = int(np.count_nonzero(counts > i))
            part = acc[:m]
            ufunc(part, by_source[self.order[starts[:m] + i]], out=part)
        padded = acc[np.count_nonzero(counts == self.k_max):]
        if padded.size:
            ufunc(padded, identity, out=padded)
        out = np.empty((n_runs, self.n_targets) + payload, dtype=dtype)
        out[:, perm] = np.moveaxis(acc, 0, 1)
        if draws is None or not draws.targets.size:
            return out
        seg_targets, seg_counts = draws.targets, draws.counts
        folded = _stratified_refold(
            seg_start=self.segment_starts[seg_targets],
            seg_count=seg_counts,
            seg_pad=seg_counts < self.k_max,
            pos_off=draws.key_offsets(),
            keys=draws.keys,
            order=self.order,
            vals=vals,
            init_rows=None if init_arr is None else init_arr[seg_targets],
            ufunc=ufunc,
            identity=identity,
            run_of_seg=draws.runs,
        )
        out[draws.runs, seg_targets] = folded
        return out

    def winner_sources_runs(
        self, draws: RaceDraws
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-run last-writer winners of the raced segments.

        The copy-semantics (``scatter`` / ``index_copy`` /
        ``index_put(accumulate=False)``) half of the batched engine: a
        raced target's winner is the source occupying the *last* position
        of its segment after the stable shuffle-key sort — exactly the
        writer the scalar kernels' global
        ``lexsort((keys, targets))`` puts last.  Un-raced targets keep the
        canonical winner and are not returned.

        Returns
        -------
        (seg_runs, seg_targets, winners):
            Parallel arrays: for each raced ``(run, target)`` pair, the
            winning source id.
        """
        if not draws.targets.size:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        seg_targets, seg_runs, keys = draws.targets, draws.runs, draws.keys
        seg_counts = draws.counts
        pos_off = draws.key_offsets()
        seg_start = self.segment_starts[seg_targets]
        winners = np.empty(seg_targets.size, dtype=np.int64)
        for k in np.unique(seg_counts):
            k = int(k)
            sel = np.flatnonzero(seg_counts == k)
            lane = np.arange(k)
            src_k = self.order[seg_start[sel, None] + lane]
            keys_k = keys[pos_off[sel, None] + lane]
            if k == 2:
                # Stable sort of two keys: the second wins unless the first
                # strictly beats it (ties keep canonical order, so the
                # later writer still wins — lexsort semantics).
                winners[sel] = np.where(
                    keys_k[:, 1] < keys_k[:, 0], src_k[:, 0], src_k[:, 1]
                )
            else:
                last = np.argsort(keys_k, axis=1, kind="stable")[:, -1]
                winners[sel] = np.take_along_axis(src_k, last[:, None], axis=1)[:, 0]
        return seg_runs, seg_targets, winners


def sampled_copy_runs(
    plan: SegmentPlan,
    values,
    n_runs: int,
    model,
    ctx,
    *,
    init,
    stacked: bool = False,
):
    """``n_runs`` copy-semantics (last-writer-wins) scatter executions.

    The batched twin of looping ``scatter`` / ``index_copy`` with
    ``deterministic=False``: per-run randomness is drawn exactly like the
    scalar calls (one scheduler stream per run — raced-target Bernoulli,
    then the segment shuffle keys), but instead of materialising and
    sorting ``(R, n)`` order matrices, only the raced segments' *winners*
    are recomputed (:meth:`SegmentPlan.winner_sources_runs`) on top of one
    shared canonical output.  Each returned array is bit-identical to the
    corresponding scalar call.  ``stacked=True`` returns one
    ``(n_runs, *out_shape)`` array instead of a list.
    """
    vals = np.asarray(values)
    inp = np.asarray(init)
    canonical = np.array(inp, copy=True)
    if plan.n_sources:
        has = plan.counts > 0
        ends = plan.segment_ends[has] - 1
        canonical[np.flatnonzero(has)] = vals[plan.order[ends]]
    draws = plan.sample_run_draws(n_runs, model, ctx)
    outs = np.repeat(canonical[None], n_runs, axis=0)
    seg_runs, seg_targets, winners = plan.winner_sources_runs(draws)
    if seg_runs.size:
        outs[seg_runs, seg_targets] = vals[winners]
    if stacked:
        return outs
    return [np.array(outs[r]) for r in range(n_runs)]


def sampled_fold_runs(
    plan: SegmentPlan,
    values,
    n_runs: int,
    model,
    ctx,
    *,
    reduce: str = "sum",
    init: np.ndarray | None = None,
    finalize=None,
    stacked: bool = False,
):
    """Chunked sample→fold→emit loop shared by the batched scatter/index ops.

    Samples each chunk's raced-segment draws (one scheduler stream per
    run, in run order — chunk boundaries are invisible to the RNG
    contract), folds them via the contention-sparse
    :meth:`SegmentPlan.fold_runs_sparse` (one shared canonical fold plus a
    re-fold of just the raced segments), applies ``finalize`` to the chunk
    batch (elementwise post-fold arithmetic, so per-run bits are
    unaffected), and emits per-run **copies** so neither the draw buffers
    nor the fold batch outlives its chunk and a retained single run never
    pins a whole batch in memory.  With ``stacked=True`` the runs are
    returned as one ``(n_runs, n_targets, *payload)`` array instead (the
    sweep harness' layout — fed straight into the vectorised variability
    summaries).
    """
    from ..fp.summation import iter_run_chunks

    vals = np.asarray(values)
    payload = int(np.prod(vals.shape[1:], dtype=np.int64) or 1)
    elems_per_run = plan.n_targets * payload * (plan.k_max + 1)
    canonical = plan.fold(vals, reduce=reduce, init=init)
    outs: list[np.ndarray] = []
    batch: np.ndarray | None = None
    for lo, hi in iter_run_chunks(n_runs, elems_per_run):
        draws = plan.sample_run_draws(hi - lo, model, ctx)
        folded = plan.fold_runs_sparse(
            vals, draws, reduce=reduce, init=init, canonical=canonical
        )
        if finalize is not None:
            folded = finalize(folded)
        if stacked:
            if batch is None:
                batch = np.empty((n_runs,) + folded.shape[1:], dtype=folded.dtype)
            batch[lo:hi] = folded
        else:
            outs.extend(np.array(folded[r]) for r in range(hi - lo))
    if not stacked:
        return outs
    if batch is None:  # n_runs == 0: preserve the post-finalize shape/dtype
        probe = canonical[None][:0]
        return probe if finalize is None else finalize(probe)
    return batch


def segmented_fold(
    values,
    index,
    n_targets: int,
    *,
    reduce: str = "sum",
    order: np.ndarray | None = None,
    init: np.ndarray | None = None,
) -> np.ndarray:
    """One-shot convenience wrapper: build a plan and fold once."""
    plan = SegmentPlan(index, n_targets)
    return plan.fold(np.asarray(values), order=order, reduce=reduce, init=init)
