"""Optimizers: Adam over a parameter list.

Updates are plain elementwise NumPy operations — deterministic given the
gradients.  Any run-to-run weight divergence therefore traces back to the
kernels that produced the gradients, which is the causal isolation the
paper's Section V experiment needs.

Run-batched (lockstep) training: when parameters carry a leading run axis
(:meth:`repro.nn.module.Module.expand_runs`), every state buffer — the
first/second Adam moments — is allocated as the matching
``(R, *shape)`` stack, and one ``step()`` advances all ``R`` simulated
runs at once.  Because the update arithmetic is purely elementwise, run
``r``'s slice of every state and parameter stays bit-identical to a
scalar optimizer driving run ``r`` alone — the optimizer half of the
batched run-axis engine's bit-exactness contract.  Construct the
optimizer *after* ``expand_runs`` (state shapes are captured at
construction; ``step()`` checks the match).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .module import Parameter

__all__ = ["Optimizer", "Adam"]


def _check_state_shape(p, state: np.ndarray) -> None:
    """Catch parameters re-shaped (e.g. ``expand_runs``) after the
    optimizer captured its state buffers."""
    if state.shape != p.data.shape:
        raise ConfigurationError(
            f"optimizer state shape {state.shape} does not match parameter "
            f"shape {p.data.shape}; expand the run axis before constructing "
            "the optimizer"
        )


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ConfigurationError("optimizer received no parameters")

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update; subclass responsibility."""
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {lr}")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ConfigurationError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        t = self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            _check_state_shape(p, m)
            g = p.grad.astype(np.float64)
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * (g * g)
            m_hat = m / (1 - self.b1**t)
            v_hat = v / (1 - self.b2**t)
            update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.data = (p.data - update).astype(p.data.dtype)
