"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library-specific failures with a single ``except`` clause.  The
hierarchy mirrors the subsystems described in ``DESIGN.md``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DeviceError",
    "LaunchError",
    "SchedulerError",
    "NondeterministicError",
    "ShapeError",
    "DTypeError",
    "AutogradError",
    "GraphError",
    "CompileError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """Raised for invalid global or per-call configuration values."""


class DeviceError(ReproError):
    """Raised when a device model is unknown or misconfigured."""


class LaunchError(ReproError):
    """Raised for invalid simulated kernel-launch parameters.

    Examples include a non-positive block size, a grid exceeding the device
    limits, or shared-memory requests larger than the per-SM capacity.
    """


class SchedulerError(ReproError):
    """Raised when the execution-order sampler is asked for an impossible
    schedule (e.g. zero resident blocks)."""


class NondeterministicError(ReproError):
    """Raised when an operation with no deterministic implementation is
    executed while deterministic algorithms are required.

    This mirrors the ``RuntimeError`` the paper reports for PyTorch's
    ``scatter_reduce`` under ``torch.use_deterministic_algorithms(True)``.
    """


class ShapeError(ReproError, ValueError):
    """Raised when tensor/array operands have incompatible shapes."""


class DTypeError(ReproError, TypeError):
    """Raised when tensor/array operands have unsupported dtypes."""


class AutogradError(ReproError):
    """Raised for invalid autograd usage (backward on non-scalar without
    gradient, double backward through freed graph, etc.)."""


class GraphError(ReproError):
    """Raised for malformed graph data (edge indices out of range, ...)."""


class CompileError(ReproError):
    """Raised by the LPU static compiler when an op graph cannot be
    scheduled (unsupported op, cyclic graph, ...)."""


class ExperimentError(ReproError):
    """Raised by the experiment harness (unknown experiment id, bad scale)."""
