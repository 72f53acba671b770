"""Functional NN operations."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..tensor import Tensor

__all__ = ["relu", "log_softmax", "nll_loss"]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def log_softmax(x: Tensor, dim: int = -1) -> Tensor:
    """Log-softmax along ``dim``."""
    return x.log_softmax(dim=dim)


def nll_loss(log_probs: Tensor, target, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of integer targets.

    Parameters
    ----------
    log_probs:
        ``(N, C)`` log-probabilities (output of :func:`log_softmax`).
    target:
        ``(N,)`` integer class ids.
    reduction:
        ``"mean"`` or ``"sum"``.
    """
    t = np.asarray(target)
    lead = 1 if log_probs.runs is not None else 0
    if log_probs.ndim != 2 + lead:
        raise ShapeError(f"log_probs must be (N, C), got {log_probs.shape}")
    n, c = log_probs.shape[lead:]
    if t.shape != (n,):
        raise ShapeError(f"target must be ({n},), got {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= c):
        raise ConfigurationError(f"target classes must be in [0, {c})")
    if reduction not in ("mean", "sum"):
        raise ConfigurationError(f"unknown reduction {reduction!r}")
    if lead:
        # Lockstep runs: pick each run's target log-probs and reduce to one
        # scalar per run — bit-identical per run to the scalar loss.  The
        # pick's mixed basic/advanced indexing returns a stride-transposed
        # copy; contiguous() restores the scalar twin's row layout so the
        # per-run pairwise sums fold identically.
        picked = log_probs[(slice(None), np.arange(n), t)].contiguous()
        loss = -(picked.sum(dim=-1))
    else:
        picked = log_probs[np.arange(n), t]
        loss = -(picked.sum())
    if reduction == "mean":
        loss = loss * (1.0 / max(n, 1))
    return loss
