"""Tensor kernels with deterministic and non-deterministic implementations.

This package reproduces the PyTorch operations the paper's Table 5 lists as
non-deterministic, each with:

* a **deterministic** path — contributions to every output element are
  folded in a canonical order (ascending source position), bitwise
  reproducible; and
* a **non-deterministic** path — the fold order is perturbed by the
  contention-serialization scheduler model
  (:mod:`repro.ops.nondet`), sampled per run from the active
  :class:`~repro.runtime.RunContext`.

Selection follows PyTorch semantics: the global switch
:func:`repro.use_deterministic_algorithms` (or each kernel's explicit
``deterministic=`` argument) chooses the path; ops *without* a
deterministic implementation raise
:class:`~repro.errors.NondeterministicError` — notably ``scatter_reduce``,
which is exactly where the paper hit PyTorch's runtime error.

Kernels operate on plain NumPy arrays; the autograd layer in
:mod:`repro.tensor` wraps them.
"""

from .segmented import SegmentPlan
from .nondet import ContentionModel, OP_CONTENTION
from .registry import OpSpec, op_spec
from .scatter import scatter, scatter_runs, scatter_reduce, scatter_reduce_runs
from .index_ops import (
    index_add,
    index_add_batch,
    index_add_runs,
    index_copy,
    index_copy_runs,
    index_put,
    index_put_runs,
)
from .cumsum import cumsum, cumsum_runs
from .conv_transpose import (
    conv_transpose1d,
    conv_transpose2d,
    conv_transpose_runs,
)
from .gather import gather_rows

__all__ = [
    "SegmentPlan",
    "ContentionModel",
    "OP_CONTENTION",
    "OpSpec",
    "op_spec",
    "scatter",
    "scatter_runs",
    "scatter_reduce",
    "scatter_reduce_runs",
    "index_add",
    "index_add_batch",
    "index_add_runs",
    "index_copy",
    "index_copy_runs",
    "index_put",
    "index_put_runs",
    "cumsum",
    "cumsum_runs",
    "conv_transpose1d",
    "conv_transpose2d",
    "conv_transpose_runs",
    "gather_rows",
]
