"""Read-only indexing kernel (deterministic).

``gather_rows`` (PyTorch's ``index_select``) only *reads* — it is
deterministic on any hardware.  It matters for the reproduction because
its **gradient** is a scatter-add: the backward of ``gather_rows`` is
``index_add``, which is how non-determinism enters
training even when the forward pass is clean (paper §V: the GraphSAGE
model's only ND source is ``index_add``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ShapeError

__all__ = ["gather_rows"]


def gather_rows(input_, index) -> np.ndarray:
    """Select rows: ``out[k] = input_[index[k]]`` (``index_select`` dim 0)."""
    inp = np.asarray(input_)
    idx = np.asarray(index)
    if idx.ndim != 1:
        raise ShapeError(f"index must be 1-D, got shape {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ConfigurationError(f"index must be integer, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= inp.shape[0]):
        raise ConfigurationError(
            f"index values must be in [0, {inp.shape[0]}); got "
            f"[{idx.min()}, {idx.max()}]"
        )
    return inp[idx]
