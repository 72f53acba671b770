"""NumPy-backed tensor with reverse-mode autograd.

A deliberately small but complete autograd engine in the PyTorch idiom:
float32 default dtype, ``requires_grad`` / ``backward()`` / ``no_grad``,
broadcasting-aware gradients, and — the part that matters for this paper —
indexing ops whose *backward* passes route through the non-deterministic
scatter kernels of :mod:`repro.ops`, so training pipelines inherit exactly
the run-to-run variability the paper measures (§V: the GraphSAGE model's
only ND source is ``index_add``).

Tensors may carry a leading **run axis** (``runs=R``): ``R`` simulated
runs advancing in lockstep through one batched computation, bit-identical
per run to ``R`` scalar executions — the autograd face of the batched
run-axis engine.  :mod:`repro.tensor.runbatch` holds the per-batch state
(one scheduler stream per run, plan cache) and the scalar twin's pinned
kernel stream.
"""

from .tensor import Tensor, no_grad, is_grad_enabled
from .runbatch import (
    RunBatch,
    active_run_batch,
    current_kernel_stream,
    run_batch,
    use_kernel_stream,
)
from .gradcheck import gradcheck

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "gradcheck",
    "RunBatch",
    "run_batch",
    "active_run_batch",
    "use_kernel_stream",
    "current_kernel_stream",
]
