"""Module base class: parameter registration, state dicts, train/eval."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError
from ..tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor registered as a trainable module attribute."""

    def __init__(self, data, dtype=None) -> None:
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes in
    ``__init__`` and implement :meth:`forward`.  Registration happens via
    ``__setattr__``, mirroring PyTorch.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ---------------------------------------------------------------- params
    def parameters(self) -> Iterator[Parameter]:
        """All trainable parameters (depth-first, registration order)."""
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """(name, parameter) pairs with dotted paths."""
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mname, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mname}.")

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for p in self.parameters():
            p.zero_grad()

    def expand_runs(self, n_runs: int) -> "Module":
        """Tile every parameter with a leading run axis (lockstep runs).

        Each parameter's data becomes the ``(n_runs, *shape)`` stack of
        ``n_runs`` initially identical, independently trainable copies —
        the R-lockstep training mode of the batched run-axis engine, where
        one optimizer step advances every simulated run at once.  Must be
        called before constructing the optimizer (state buffers mirror the
        parameter shapes at construction).
        """
        if n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
        for p in self.parameters():
            if p.runs is not None:
                raise ConfigurationError("parameters already carry a run axis")
            p.data = np.repeat(p.data[None], n_runs, axis=0)
            p.runs = int(n_runs)
            p.grad = None
        return self

    def flat_weights(self) -> np.ndarray:
        """All parameters concatenated into one vector — the unit of
        comparison for the paper's model-weight variability metrics.

        Run-batched modules return the ``(R, P)`` per-run weight matrix
        instead; row ``r`` is byte-identical to the flat weights of run
        ``r``'s scalar twin.
        """
        params = list(self.parameters())
        if not params:
            return np.empty(0, dtype=np.float32)
        runs = params[0].runs
        if runs is not None:
            return np.concatenate([p.data.reshape(runs, -1) for p in params], axis=1)
        return np.concatenate([p.data.reshape(-1) for p in params])

    # ----------------------------------------------------------------- mode
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively."""
        object.__setattr__(self, "training", mode)
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    # ----------------------------------------------------------------- call
    def forward(self, *args, **kwargs):
        """Compute the module output; subclass responsibility."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
