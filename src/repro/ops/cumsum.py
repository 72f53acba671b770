"""``cumsum`` kernel with a blocked-scan non-deterministic path.

A GPU prefix sum is a blocked scan: per-block inclusive scans, a scan of
block totals, then an offset add.  Every chunk size defines a different
association order, and the runtime's kernel/occupancy heuristics choose the
chunk at launch time based on transient state — the paper's "optimal
computational kernel at runtime" source of non-determinism.  Our ND path
samples the chunk size per run from a plausible occupancy ladder; the
deterministic path pins the strict serial scan.

The Table 5 entry has ``min(Vermv) = 0``: many hyperparameter settings
round identically under every chunking — this kernel reproduces that, since
small arrays or low-dynamic-range inputs often agree bit-for-bit across
chunk choices.

The batched run-axis engine
---------------------------
:func:`cumsum_runs` repeats the ND path ``R`` times under the engine-wide
RNG contract (one scheduler stream per run, in run order; each stream
contributes exactly one ``integers(len(chunk_ladder))`` draw).  All ``R``
chunk choices are drawn up front, runs are grouped by chunk, and each
distinct chunk's blocked scan is evaluated **once** — the input is shared
by every run, so a chunk group's runs are bitwise copies of one scan.  The
scan itself (:func:`_blocked_cumsum_rows`) is vectorised across rows as a
``(rows, n_chunks, chunk)`` tensor, which also serves the multi-row scalar
:func:`cumsum` path.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..runtime import RunContext, get_context
from .registry import resolve_determinism

__all__ = ["cumsum", "cumsum_runs", "blocked_cumsum", "DEFAULT_CHUNK_LADDER"]

#: Chunk sizes the simulated runtime chooses among (occupancy ladder).
DEFAULT_CHUNK_LADDER: tuple[int, ...] = (128, 256, 512, 1024, 2048)


def _blocked_cumsum_rows(rows: np.ndarray, chunk: int) -> np.ndarray:
    """Blocked inclusive scan of every row of a ``(rows, n)`` matrix.

    The batched :func:`blocked_cumsum`: rows are padded to a whole number
    of chunks and scanned as one ``(rows, n_chunks, chunk)`` tensor —
    within-chunk inclusive scans, an exclusive serial scan of chunk totals,
    one offset add — with chunk 0 kept pristine (adding an exact 0 can
    still flip ``-0.0``).  Every operation is a per-row sequential scan or
    an elementwise add, so each output row is bit-identical to the scalar
    :func:`blocked_cumsum` of that row.
    """
    n_rows, n = rows.shape
    if n == 0:
        return rows.copy()
    dtype = rows.dtype if np.issubdtype(rows.dtype, np.floating) else np.float64
    rows = rows.astype(dtype, copy=False)
    if chunk >= n:
        return np.add.accumulate(rows, axis=1)
    n_chunks = (n + chunk - 1) // chunk
    buf = np.zeros((n_rows, n_chunks * chunk), dtype=dtype)
    buf[:, :n] = rows
    buf = buf.reshape(n_rows, n_chunks, chunk)
    within = np.add.accumulate(buf, axis=2)
    totals = within[:, :, -1]
    # Exclusive serial scan of chunk totals (the single-block second pass).
    offsets = np.zeros((n_rows, n_chunks), dtype=dtype)
    np.add.accumulate(totals[:, :-1], axis=1, out=offsets[:, 1:])
    out = within + offsets[:, :, None]
    out[:, 0] = within[:, 0]  # keep chunk 0 pristine (-0.0 safe)
    return out.reshape(n_rows, -1)[:, :n]


def blocked_cumsum(x, chunk: int) -> np.ndarray:
    """Inclusive prefix sum with a fixed chunked association order.

    Bit-exact model of a two-level scan: ``chunk``-wide inclusive scans,
    then each chunk's elements receive the serial fold of preceding chunk
    totals (a single add per element — the offset add of the GPU kernel).
    """
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ShapeError(f"blocked_cumsum expects 1-D input, got shape {arr.shape}")
    if chunk < 1:
        raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
    return _blocked_cumsum_rows(arr[None, :], chunk)[0]


def _as_rows(moved: np.ndarray) -> np.ndarray:
    """Flatten leading axes to a ``(rows, n)`` matrix (robust to ``n = 0``)."""
    lead = int(np.prod(moved.shape[:-1], dtype=np.int64))
    return moved.reshape(lead, moved.shape[-1])


def _validated_moved(x, dim: int) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim == 0:
        raise ShapeError("cumsum needs at least one axis")
    if not -arr.ndim <= dim < arr.ndim:
        raise ConfigurationError(f"dim {dim} out of range for {arr.ndim}-D input")
    return np.moveaxis(arr, dim, -1)


def cumsum(
    x,
    dim: int = 0,
    *,
    deterministic: bool | None = None,
    chunk_ladder: tuple[int, ...] = DEFAULT_CHUNK_LADDER,
    ctx: RunContext | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Inclusive prefix sum along ``dim``.

    Deterministic path: strict serial scan (``np.add.accumulate``).
    Non-deterministic path: a chunk size sampled from ``chunk_ladder``
    decides the association order for this run.
    """
    arr = np.asarray(x)
    moved = _validated_moved(arr, dim)
    det = resolve_determinism("cumsum", deterministic)
    if det:
        out = np.add.accumulate(
            moved.astype(moved.dtype if np.issubdtype(moved.dtype, np.floating) else np.float64),
            axis=-1,
        )
        return np.moveaxis(out, -1, dim)
    if rng is None:
        rng = (ctx or get_context()).scheduler()
    if not chunk_ladder:
        raise ConfigurationError("chunk_ladder must be non-empty")
    chunk = int(chunk_ladder[int(rng.integers(len(chunk_ladder)))])
    out = _blocked_cumsum_rows(_as_rows(moved), chunk).reshape(moved.shape)
    return np.moveaxis(out, -1, dim)


def cumsum_runs(
    x,
    dim: int = 0,
    n_runs: int = 1,
    *,
    chunk_ladder: tuple[int, ...] = DEFAULT_CHUNK_LADDER,
    ctx: RunContext | None = None,
) -> list[np.ndarray]:
    """``n_runs`` non-deterministic :func:`cumsum` executions.

    The batched run-axis engine for the chunk-ladder sweeps (Table 5): all
    ``n_runs`` chunk choices are drawn up front (one scheduler stream per
    run, in run order — the engine's draw contract), runs are grouped by
    chunk, and each distinct chunk's blocked scan is evaluated once via the
    row-vectorised :func:`_blocked_cumsum_rows`.  Each returned array is
    bit-identical to — and independent of — the corresponding scalar
    ``cumsum(..., deterministic=False)`` call on the same context.
    """
    if n_runs < 0:
        raise ConfigurationError(f"n_runs must be >= 0, got {n_runs}")
    if not chunk_ladder:
        raise ConfigurationError("chunk_ladder must be non-empty")
    moved = _validated_moved(x, dim)
    ctx = ctx or get_context()
    chunks = [
        int(chunk_ladder[int(rng.integers(len(chunk_ladder)))])
        for rng in ctx.schedulers(n_runs)
    ]
    flat = _as_rows(moved)
    per_chunk: dict[int, np.ndarray] = {}
    for c in dict.fromkeys(chunks):  # first-occurrence order
        per_chunk[c] = np.moveaxis(
            _blocked_cumsum_rows(flat, c).reshape(moved.shape), -1, dim
        )
    return [per_chunk[c].copy() for c in chunks]
