"""Parameter initialisation schemes.

All initialisers take an explicit generator; modules default to the active
run context's **init stream**, which is stable across runs — matching the
paper's controlled setup, where seeds are fixed so the only residual
variability is kernel non-determinism.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..runtime import get_context

__all__ = ["default_rng", "glorot_uniform", "zeros", "uniform"]


def default_rng(stream: int = 0) -> np.random.Generator:
    """The run-context init stream (run-stable)."""
    return get_context().init(stream)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ConfigurationError("cannot infer fans from a 0-D shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def glorot_uniform(shape, rng: np.random.Generator | None = None, dtype=np.float32) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    rng = rng or default_rng()
    fan_in, fan_out = _fans(tuple(shape))
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape).astype(dtype)


def uniform(shape, low: float, high: float, rng: np.random.Generator | None = None, dtype=np.float32) -> np.ndarray:
    """Plain uniform initialisation."""
    if high < low:
        raise ConfigurationError(f"high {high} < low {low}")
    rng = rng or default_rng()
    return rng.uniform(low, high, size=shape).astype(dtype)


def zeros(shape, dtype=np.float32) -> np.ndarray:
    """All-zeros initialisation (biases)."""
    return np.zeros(shape, dtype=dtype)
