"""Determinism metadata for every kernel (reproduces the paper's §IV notes).

Each :class:`OpSpec` records two distinct facts the paper contrasts:

* ``documented_deterministic_available`` — what the (PyTorch) documentation
  claims;
* ``has_deterministic`` — what actually works.

The two disagree for ``scatter_reduce``: documented as supporting a
deterministic implementation, but the paper "received a runtime error when
trying to obtain a deterministic result for scatter_reduce".  Our kernel
reproduces that: requesting determinism raises
:class:`~repro.errors.NondeterministicError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import check_deterministic_allowed
from ..errors import ConfigurationError, NondeterministicError

__all__ = ["OpSpec", "op_spec", "resolve_determinism"]


@dataclass(frozen=True)
class OpSpec:
    """Static determinism facts about one kernel.

    Attributes
    ----------
    name:
        Kernel name as used in Table 5.
    documented_nondeterministic:
        Listed in PyTorch's non-deterministic-operations documentation.
    documented_deterministic_available:
        The documentation claims a deterministic implementation exists.
    has_deterministic:
        A deterministic implementation actually runs.
    notes:
        Provenance / paper reference.
    """

    name: str
    documented_nondeterministic: bool
    documented_deterministic_available: bool
    has_deterministic: bool
    notes: str = ""


_SPECS: dict[str, OpSpec] = {
    s.name: s
    for s in [
        OpSpec("conv_transpose1d", True, True, True, "cuDNN atomics; deterministic algo selectable"),
        OpSpec("conv_transpose2d", True, True, True, "cuDNN atomics; deterministic algo selectable"),
        OpSpec("conv_transpose3d", True, True, True, "cuDNN atomics; deterministic algo selectable"),
        OpSpec("cumsum", True, True, True, "parallel scan; deterministic fallback"),
        OpSpec("index_add", True, True, True, "atomicAdd; sort-based deterministic fallback (slow, Table 6)"),
        OpSpec("index_copy", True, True, True, "duplicate-index write race"),
        OpSpec("index_put", True, True, True, "accumulate=True uses atomics"),
        OpSpec("scatter", True, True, True, "duplicate-index write race"),
        OpSpec(
            "scatter_reduce",
            True,
            True,   # the docs say a deterministic path exists...
            False,  # ...but requesting it raises, as the paper found (§IV)
            "paper: runtime error when requesting deterministic scatter_reduce",
        ),
        OpSpec("gather", False, True, True, "reads only; deterministic"),
        OpSpec("matmul", False, True, True, "fixed blocking; deterministic on one device"),
    ]
}


def op_spec(name: str) -> OpSpec:
    """Look up the determinism spec for a kernel."""
    try:
        return _SPECS[name]
    except KeyError:
        raise ConfigurationError(f"unknown op {name!r}; known: {sorted(_SPECS)}") from None


def resolve_determinism(op_name: str, deterministic: bool | None) -> bool:
    """Decide which path a kernel takes.

    ``deterministic=None`` defers to the global switch
    (:func:`repro.use_deterministic_algorithms`); an explicit ``True`` for
    an op without a working deterministic implementation raises — the
    paper's ``scatter_reduce`` failure mode.
    """
    spec = op_spec(op_name)
    if deterministic is None:
        return check_deterministic_allowed(op_name, has_deterministic=spec.has_deterministic)
    if deterministic and not spec.has_deterministic:
        raise NondeterministicError(
            f"{op_name} has no working deterministic implementation "
            "(documented otherwise; see paper §IV)"
        )
    return bool(deterministic)
