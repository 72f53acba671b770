"""The :class:`Tensor` class and its differentiable operations.

Reverse-mode autograd over a dynamically-built DAG: every differentiable
op records its parents and a closure computing parent gradients from the
output gradient.  ``backward()`` runs a topological sort and accumulates.

Determinism note: host-side gradient *accumulation* (a parameter used
twice) is a fixed-order fold here — the paper's variability enters through
the kernels themselves, specifically :func:`repro.ops.index_add` in the
backward pass of :meth:`Tensor.gather_rows` and in forward aggregations.

The run axis
------------
A tensor may carry a leading **run axis** (``runs=R``): its data is the
``(R, *logical_shape)`` stack of ``R`` simulated runs advancing in
lockstep, one independent training/inference run per row.  Everything
downstream stays bit-identical per row to ``R`` scalar executions: the
elementwise ops, broadcast reductions and stacked matmuls all perform the
same per-slice IEEE arithmetic, and the non-deterministic kernels draw
each run's randomness from that run's own scheduler stream (the
one-stream-per-run contract; see :mod:`repro.tensor.runbatch` and the
draw-contract catalogue in :mod:`repro.gpusim.scheduler`).  Axis
arguments (``sum(dim=...)``, ``log_softmax(dim=...)``) address the
*logical* shape — the run axis is implicit and is never reduced.  The run
axis propagates through ops whenever the output's leading axis still
holds the runs; reductions to one scalar per run yield ``(R,)`` tensors,
on which ``backward()`` seeds one unit gradient per run.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

from .. import ops as _ops
from ..errors import AutogradError, ConfigurationError, ShapeError
from .runbatch import active_run_batch, current_kernel_stream

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Whether autograd graph recording is currently on."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording in the enclosed block (inference mode)."""
    prev = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


def _as_data(value, dtype=None) -> np.ndarray:
    arr = np.asarray(value)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float32, copy=False) if arr.dtype == np.float64 else arr
    if np.issubdtype(arr.dtype, np.integer) or arr.dtype == bool:
        return arr.astype(np.float32)
    raise ShapeError(f"unsupported tensor dtype {arr.dtype}")


def _validate_gather_index(idx: np.ndarray, n_rows: int) -> None:
    """The scalar :func:`repro.ops.gather_rows` checks, applied to the
    run-batched gather (whose data path is a plain fancy index)."""
    if idx.ndim != 1:
        raise ShapeError(f"index must be 1-D, got shape {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ConfigurationError(f"index must be integer, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ConfigurationError(
            f"index values must be in [0, {n_rows}); got [{idx.min()}, {idx.max()}]"
        )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with optional gradient tracking.

    Parameters
    ----------
    data:
        Array-like; float64 inputs are narrowed to float32 (the PyTorch
        default dtype, and the precision regime of the paper's Table 5).
    requires_grad:
        Track operations for reverse-mode differentiation.
    dtype:
        Optional explicit dtype (float32/float64).
    runs:
        Optional run-axis length: ``data`` is the ``(runs, *logical)``
        stack of that many lockstep runs (see the module docstring).
    """

    __slots__ = ("data", "grad", "requires_grad", "runs", "_parents", "_grad_fn", "_op_name")

    def __init__(self, data, requires_grad: bool = False, dtype=None, runs: int | None = None) -> None:
        self.data = _as_data(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        if runs is not None and (self.data.ndim < 1 or self.data.shape[0] != runs):
            raise ShapeError(
                f"run-batched data must lead with the run axis ({runs}), "
                f"got shape {self.data.shape}"
            )
        self.runs: int | None = None if runs is None else int(runs)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._op_name: str = "leaf"

    # ------------------------------------------------------------- plumbing
    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        grad_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
        op_name: str,
    ) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        track = is_grad_enabled() and any(p.requires_grad for p in parents)
        out.requires_grad = track
        # The run axis survives any op whose output still leads with it.
        runs = next((p.runs for p in parents if p.runs is not None), None)
        if runs is not None and (data.ndim < 1 or data.shape[0] != runs):
            runs = None
        out.runs = runs
        out._parents = parents if track else ()
        out._grad_fn = grad_fn if track else None
        out._op_name = op_name
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of axes."""
        return self.data.ndim

    @property
    def dtype(self):
        """NumPy dtype."""
        return self.data.dtype

    @property
    def size(self) -> int:
        """Total element count."""
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Scalar value of a one-element tensor."""
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got {self.shape}")
        return float(self.data.reshape(())[()])

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, threshold=8)}{grad})"

    # ------------------------------------------------------------- backward
    def backward(self, grad=None) -> None:
        """Accumulate gradients of this tensor w.r.t. graph leaves.

        ``grad`` defaults to 1 for scalar tensors — including run-batched
        ``(R,)`` tensors holding one scalar per lockstep run, which seed a
        unit gradient per run; other non-scalar roots require an explicit
        output gradient (PyTorch semantics).
        """
        if not self.requires_grad:
            raise AutogradError("backward() on a tensor that does not require grad")
        if grad is None:
            per_run_scalar = self.runs is not None and self.data.shape == (self.runs,)
            if self.data.size != 1 and not per_run_scalar:
                raise AutogradError("grad must be given for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise AutogradError(f"grad shape {grad.shape} != tensor shape {self.shape}")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._grad_fn is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            parent_grads = node._grad_fn(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                pg = np.asarray(pg, dtype=p.data.dtype)
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg

    # ----------------------------------------------------------- arithmetic
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(
            np.asarray(other, dtype=self.data.dtype)
        )

    def __add__(self, other) -> "Tensor":
        o = self._coerce(other)
        data = self.data + o.data
        return Tensor._from_op(
            data,
            (self, o),
            lambda g: (_unbroadcast(g, self.shape), _unbroadcast(g, o.shape)),
            "add",
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        o = self._coerce(other)
        data = self.data - o.data
        return Tensor._from_op(
            data,
            (self, o),
            lambda g: (_unbroadcast(g, self.shape), _unbroadcast(-g, o.shape)),
            "sub",
        )

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        o = self._coerce(other)
        data = self.data * o.data
        return Tensor._from_op(
            data,
            (self, o),
            lambda g: (
                _unbroadcast(g * o.data, self.shape),
                _unbroadcast(g * self.data, o.shape),
            ),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        o = self._coerce(other)
        data = self.data / o.data
        return Tensor._from_op(
            data,
            (self, o),
            lambda g: (
                _unbroadcast(g / o.data, self.shape),
                _unbroadcast(-g * self.data / (o.data * o.data), o.shape),
            ),
            "div",
        )

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._from_op(-self.data, (self,), lambda g: (-g,), "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise AutogradError("only scalar exponents are supported")
        data = self.data**exponent
        return Tensor._from_op(
            data,
            (self,),
            lambda g: (g * exponent * self.data ** (exponent - 1),),
            "pow",
        )

    def __matmul__(self, other) -> "Tensor":
        o = self._coerce(other)
        if self.data.ndim < 1 or o.data.ndim < 1:
            raise ShapeError("matmul requires at least 1-D operands")
        data = self.data @ o.data

        def grad_fn(g: np.ndarray):
            a, b = self.data, o.data
            if a.ndim == 2 and b.ndim == 2:
                return (g @ b.T, a.T @ g)
            if a.ndim == 1 and b.ndim == 2:
                return (g @ b.T, np.outer(a, g))
            if a.ndim == 2 and b.ndim == 1:
                return (np.outer(g, b), a.T @ g)
            if a.ndim >= 2 and b.ndim >= 2:
                # Stacked (run-batched) operands: the 2-D rules applied per
                # leading slice, with each grad unbroadcast back to its
                # operand (a shared 2-D operand gets its run-axis grads
                # summed in run order).
                return (
                    _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape),
                    _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape),
                )
            raise AutogradError(f"matmul backward unsupported for {a.shape} @ {b.shape}")

        return Tensor._from_op(data, (self, o), grad_fn, "matmul")

    # ----------------------------------------------------------- reductions
    def _reduce_axes(self, dim: int | tuple[int, ...] | None) -> tuple[int, ...]:
        """Data axes a reduction over ``dim`` touches.

        ``dim`` addresses the logical shape; on run-batched tensors the run
        axis is implicit — ``dim=None`` reduces every logical axis (one
        scalar per run) and explicit dims shift past the run axis.
        """
        lead = 1 if self.runs is not None else 0
        if dim is None:
            return tuple(range(lead, self.ndim))
        logical_ndim = self.ndim - lead
        if logical_ndim == 0:
            raise ShapeError(
                "cannot reduce over an explicit dim on a per-run scalar "
                "tensor (the run axis is not addressable)"
            )
        axes = (dim,) if isinstance(dim, int) else tuple(dim)
        for a in axes:
            if not -logical_ndim <= a < logical_ndim:
                raise ShapeError(
                    f"dim {a} out of range for logical shape {self.shape[lead:]}"
                )
        return tuple(sorted(a % logical_ndim + lead for a in axes))

    def sum(self, dim: int | tuple[int, ...] | None = None, keepdim: bool = False) -> "Tensor":
        """Sum over ``dim`` (all *logical* axes when None)."""
        axes = self._reduce_axes(dim)
        data = self.data.sum(axis=axes, keepdims=keepdim)

        def grad_fn(g: np.ndarray):
            gg = g
            if not keepdim:
                for ax in axes:
                    gg = np.expand_dims(gg, ax)
            return (np.broadcast_to(gg, self.shape).astype(self.data.dtype),)

        return Tensor._from_op(np.asarray(data), (self,), grad_fn, "sum")

    def mean(self, dim: int | tuple[int, ...] | None = None, keepdim: bool = False) -> "Tensor":
        """Arithmetic mean over ``dim`` (logical axes; run axis carried)."""
        count = int(np.prod([self.shape[a] for a in self._reduce_axes(dim)]))
        return self.sum(dim=dim, keepdim=keepdim) * (1.0 / count)

    # -------------------------------------------------------------- shaping
    def reshape(self, *shape) -> "Tensor":
        """Reshape (view semantics on data)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        src_shape = self.shape
        return Tensor._from_op(
            data, (self,), lambda g: (g.reshape(src_shape),), "reshape"
        )

    def transpose(self) -> "Tensor":
        """2-D transpose (per-run on run-batched tensors)."""
        if self.runs is not None:
            if self.ndim != 3:
                raise ShapeError(
                    "transpose() on run-batched tensors needs a 2-D logical "
                    f"shape, got {self.shape} with runs={self.runs}"
                )
            return Tensor._from_op(
                self.data.swapaxes(-1, -2),
                (self,),
                lambda g: (np.swapaxes(g, -1, -2),),
                "transpose",
            )
        if self.ndim != 2:
            raise ShapeError(f"transpose() supports 2-D tensors, got {self.shape}")
        return Tensor._from_op(self.data.T, (self,), lambda g: (g.T,), "transpose")

    @property
    def T(self) -> "Tensor":
        """Alias for :meth:`transpose`."""
        return self.transpose()

    # ------------------------------------------------------------ nonlinear
    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        mask = self.data > 0
        return Tensor._from_op(
            self.data * mask, (self,), lambda g: (g * mask,), "relu"
        )

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        data = np.exp(self.data)
        return Tensor._from_op(data, (self,), lambda g: (g * data,), "exp")

    def log(self) -> "Tensor":
        """Elementwise natural log."""
        return Tensor._from_op(
            np.log(self.data), (self,), lambda g: (g / self.data,), "log"
        )

    def tanh(self) -> "Tensor":
        """Elementwise tanh."""
        data = np.tanh(self.data)
        return Tensor._from_op(data, (self,), lambda g: (g * (1 - data * data),), "tanh")

    def log_softmax(self, dim: int = -1) -> "Tensor":
        """Numerically stable log-softmax along logical ``dim``."""
        if self.runs is not None and dim >= 0:
            dim += 1  # logical dims skip the run axis
        x = self.data
        m = x.max(axis=dim, keepdims=True)
        z = x - m
        lse = np.log(np.exp(z).sum(axis=dim, keepdims=True))
        out = z - lse

        def grad_fn(g: np.ndarray):
            soft = np.exp(out)
            return (g - soft * g.sum(axis=dim, keepdims=True),)

        return Tensor._from_op(out, (self,), grad_fn, "log_softmax")

    # -------------------------------------------------------------- indexing
    def gather_rows(self, index) -> "Tensor":
        """Row gather (``index_select`` dim 0, logical rows).

        **The backward pass is** :func:`repro.ops.index_add` — the paper's
        canonical non-deterministic kernel — so differentiating through a
        gather injects run-to-run variability unless deterministic
        algorithms are enabled.  On a run-batched tensor the gather reads
        each run's own rows and the backward scatter-add folds each run
        with its own scheduler stream (captured from the active
        :class:`~repro.tensor.runbatch.RunBatch` at forward time); the
        scalar backward consumes the pinned kernel stream when one is
        installed (the one-stream-per-run contract).
        """
        idx = np.asarray(index)
        if self.runs is not None:
            _validate_gather_index(idx, self.data.shape[1])
            data = self.data[:, idx]
            n_rows = self.data.shape[1]
            batch = active_run_batch()
            n_runs = self.runs

            def grad_fn(g: np.ndarray):
                zeros = np.zeros(self.data.shape[1:], dtype=self.data.dtype)
                plan = batch.plan_for(idx, n_rows) if batch is not None else None
                rngs = batch.rngs if batch is not None else None
                return (
                    _ops.index_add_batch(
                        zeros, 0, idx, g, n_runs=n_runs, plan=plan, rngs=rngs
                    ),
                )

            return Tensor._from_op(data, (self,), grad_fn, "gather_rows")

        data = _ops.gather_rows(self.data, idx)

        def grad_fn(g: np.ndarray):
            zeros = np.zeros_like(self.data)
            return (_ops.index_add(zeros, 0, idx, g, rng=current_kernel_stream()),)

        return Tensor._from_op(data, (self,), grad_fn, "gather_rows")

    def index_add(self, index, source: "Tensor") -> "Tensor":
        """Differentiable :func:`repro.ops.index_add` (dim 0).

        Forward non-determinism follows the global switch; the backward
        w.r.t. ``source`` is a deterministic gather.  Inside an active
        :class:`~repro.tensor.runbatch.RunBatch` (or when ``source`` is
        run-batched) the update runs in lockstep: one fold per run, each
        drawing from its own scheduler stream, bit-identical per run to the
        scalar kernel.  The run-batched input (``self``) must be the shared
        un-batched base (zeros in the aggregation idiom).
        """
        src = source if isinstance(source, Tensor) else Tensor(source)
        idx = np.asarray(index)
        batch = active_run_batch()
        n_runs = src.runs if src.runs is not None else (
            batch.n_runs if batch is not None else None
        )
        if n_runs is not None:
            if self.runs is not None:
                raise ConfigurationError(
                    "run-batched index_add needs a shared (un-batched) input; "
                    "got a run-batched input tensor"
                )
            plan = (
                batch.plan_for(idx, self.data.shape[0]) if batch is not None else None
            )
            rngs = batch.rngs if batch is not None else None
            data = _ops.index_add_batch(
                self.data, 0, idx, src.data,
                n_runs=n_runs, plan=plan, rngs=rngs,
            )
            src_batched = src.runs is not None

            def grad_fn(g: np.ndarray):
                g_src = g[:, idx] if src_batched else None
                if not src_batched and src.requires_grad:
                    raise AutogradError(
                        "gradient of a shared source w.r.t. a run-batched "
                        "index_add is undefined; batch the source first"
                    )
                if self.requires_grad:
                    raise AutogradError(
                        "gradient of a shared input w.r.t. a run-batched "
                        "index_add is undefined; batch the input first"
                    )
                return (None, g_src)

            out = Tensor._from_op(data, (self, src), grad_fn, "index_add")
            # A shared-source lockstep update batches the output even when
            # no parent carried the run axis (the first ND kernel of a run
            # batch, where all runs still share their inputs).
            out.runs = n_runs
            return out

        data = _ops.index_add(
            self.data, 0, idx, src.data, rng=current_kernel_stream()
        )

        def grad_fn(g: np.ndarray):
            return (g, _ops.gather_rows(g, idx))

        return Tensor._from_op(data, (self, src), grad_fn, "index_add")

    def contiguous(self) -> "Tensor":
        """C-contiguous copy (autograd identity).

        Normalises the memory layout — mixed basic/advanced indexing can
        return copies with transposed strides, and NumPy's pairwise
        reductions block differently over strided rows, which would break
        the run-batched paths' bit-equivalence with their contiguous
        scalar twins.
        """
        if self.data.flags["C_CONTIGUOUS"]:
            return self
        return Tensor._from_op(
            np.ascontiguousarray(self.data), (self,), lambda g: (g,), "contiguous"
        )

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def grad_fn(g: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            return (full,)

        return Tensor._from_op(np.asarray(data), (self,), grad_fn, "getitem")
