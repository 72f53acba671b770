"""Transposed convolutions with order-controlled accumulation (§IV).

A transposed convolution scatters ``x[i] * w[k]`` products into overlapping
output windows; cuDNN's implementations accumulate the overlaps with
atomics, which makes ``ConvTranspose{1,2,3}d`` the top rows of the paper's
Table 5.  Our kernel makes the accumulation order explicit:

* each output element receives at most ``T = prod(ceil(K_d / stride_d))``
  **tap contributions**, each itself a deterministic dot product over input
  channels (the GEMM order is fixed per device);
* the deterministic path folds taps in ascending kernel-offset order;
* the non-deterministic path shuffles the tap fold order of raced output
  elements per the contention model.

This reproduces the observed magnitudes (fp32, ~1e-7..1e-6 ``Vermv``) and
the zero-minimum rows (``ConvTranspose3d`` settings where every order
rounds identically).

Batched run-axis engine: the tap tensor depends only on ``(x, weight,
geometry)``, so :class:`_ConvTransposePlan` builds it **once** and the
canonical (deterministic) fold once; each non-deterministic run then only
re-folds its *raced* output elements in the sampled order.
:func:`conv_transpose_runs` executes ``n_runs`` such runs against one plan
— per-run randomness drawn exactly like the scalar path (one scheduler
stream per run: raced Bernoulli, then tap keys packed with their tap
index and sorted, so ties keep tap order on every SIMD target; all runs'
draws in one batched pass), so
every output is bit-identical to the corresponding scalar
``conv_transposeNd(..., deterministic=False)`` call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..runtime import TAP_KEY_MASK, RunContext, RunStreams, get_context
from .nondet import OP_CONTENTION, ContentionModel
from .registry import resolve_determinism

__all__ = [
    "conv_transpose1d",
    "conv_transpose2d",
    "conv_transpose3d",
    "conv_transpose_runs",
]


def _normalize(val, nd: int, name: str) -> tuple[int, ...]:
    if isinstance(val, int):
        out = (val,) * nd
    else:
        out = tuple(int(v) for v in val)
    if len(out) != nd:
        raise ConfigurationError(f"{name} must have {nd} entries, got {out}")
    if name == "stride" and any(v < 1 for v in out):
        raise ConfigurationError(f"stride entries must be >= 1, got {out}")
    if name != "stride" and any(v < 0 for v in out):
        raise ConfigurationError(f"{name} entries must be >= 0, got {out}")
    return out


#: Key budget of one run chunk of :meth:`_ConvTransposePlan.nd_outputs`
#: (race candidates x taps, summed over the chunk's runs).
_CHUNK_KEYS = 1 << 18


def _tap_fold(flat: np.ndarray) -> np.ndarray:
    """Left fold over the tap axis (``(rows, T) -> (rows,)``).

    One vectorised add per tap — the same per-element operation sequence
    (and bits) as ``np.add.accumulate(flat, axis=1)[:, -1]``.
    """
    acc = flat[:, 0].copy()
    for t in range(1, flat.shape[1]):
        acc = acc + flat[:, t]
    return acc


class _ConvTransposePlan:
    """Run-invariant state of one transposed convolution.

    Builds the ``(B * C_out * M, T)`` tap-contribution matrix (the
    expensive tensordot/meshgrid stage), the canonical fold, and the
    race-candidate set, all reusable across non-deterministic runs.
    """

    def __init__(self, xa, wa, *, nd, stride, padding, output_padding):
        if xa.ndim != nd + 2:
            raise ShapeError(
                f"input must be (B, C_in, {'x'.join(['L'] * nd)}), got {xa.shape}"
            )
        if wa.ndim != nd + 2:
            raise ShapeError(f"weight must be (C_in, C_out, kernel...), got {wa.shape}")
        B, C_in = xa.shape[:2]
        spatial = xa.shape[2:]
        if wa.shape[0] != C_in:
            raise ShapeError(f"weight C_in {wa.shape[0]} != input C_in {C_in}")
        C_out = wa.shape[1]
        kernel = wa.shape[2:]
        stride = _normalize(stride, nd, "stride")
        padding = _normalize(padding, nd, "padding")
        output_padding = _normalize(output_padding, nd, "output_padding")
        if any(op_ >= s for op_, s in zip(output_padding, stride)):
            raise ConfigurationError("output_padding must be smaller than stride")

        out_spatial = tuple(
            (spatial[d] - 1) * stride[d] - 2 * padding[d] + kernel[d] + output_padding[d]
            for d in range(nd)
        )
        if any(o < 1 for o in out_spatial):
            raise ConfigurationError(
                f"non-positive output size {out_spatial} for input {spatial}, "
                f"kernel {kernel}, stride {stride}, padding {padding}"
            )
        dtype = xa.dtype if np.issubdtype(xa.dtype, np.floating) else np.float64
        xa = xa.astype(dtype, copy=False)
        wa = wa.astype(dtype, copy=False)

        T = 1
        for d in range(nd):
            T *= -(-kernel[d] // stride[d])  # ceil
        M = int(np.prod(out_spatial))
        contribs = np.zeros((B, C_out, M, T), dtype=dtype)
        slots = np.zeros(M, dtype=np.int64)

        for k_multi in itertools.product(*(range(k) for k in kernel)):
            lo: list[int] = []
            hi: list[int] = []
            empty = False
            for d in range(nd):
                # valid input range for this tap: 0 <= i*stride + k - pad < out
                i_min = max(0, math.ceil((padding[d] - k_multi[d]) / stride[d]))
                i_max = min(
                    spatial[d] - 1,
                    (out_spatial[d] - 1 + padding[d] - k_multi[d]) // stride[d],
                )
                if i_max < i_min:
                    empty = True
                    break
                lo.append(i_min)
                hi.append(i_max)
            if empty:
                continue
            x_sel = xa[(slice(None), slice(None)) + tuple(slice(lo[d], hi[d] + 1) for d in range(nd))]
            w_tap = wa[(slice(None), slice(None)) + k_multi]  # (C_in, C_out)
            part = np.tensordot(x_sel, w_tap, axes=([1], [0]))  # (B, sel..., C_out)
            part = np.moveaxis(part, -1, 1)  # (B, C_out, sel...)
            pos_axes = [
                np.arange(lo[d], hi[d] + 1) * stride[d] + k_multi[d] - padding[d]
                for d in range(nd)
            ]
            mesh = np.meshgrid(*pos_axes, indexing="ij")
            flat_pos = np.ravel_multi_index([m.ravel() for m in mesh], out_spatial)
            s = slots[flat_pos]
            contribs[:, :, flat_pos, s] = part.reshape(B, C_out, -1)
            slots[flat_pos] = s + 1

        self.dtype = dtype
        self.out_shape = (B, C_out) + out_spatial
        self.n_taps = T
        self.flat = contribs.reshape(B * C_out * M, T)
        #: Canonical (ascending kernel-offset) fold — the deterministic
        #: kernel's output, and the shared value of every un-raced element.
        self.det_flat = _tap_fold(self.flat)
        # Elements whose position has >= 2 taps can race.
        self.candidates = np.flatnonzero(np.tile(slots >= 2, B * C_out))

    # ------------------------------------------------------------------ runs
    def det_output(self) -> np.ndarray:
        return self.det_flat.reshape(self.out_shape).copy()

    def nd_outputs(self, streams: RunStreams, model: ContentionModel) -> np.ndarray:
        """Non-deterministic runs, one per stream: shuffle raced elements'
        tap order.  Returns ``(R, *out_shape)``.

        Draw order (per run, one scheduler stream): raced Bernoulli over
        the candidates, then ``(raced, T)`` uniform tap keys — drawn for a
        run chunk at a time in one batched pass.  Each key arrives packed
        with its tap index (:meth:`~repro.runtime.RunStreams.
        raced_tap_keys`), so one plain sort per raced element orders its
        taps by key, ties by tap index: ``np.argsort(keys,
        kind="stable")``'s order on every SIMD target.  A plan with more
        than 2048 taps cannot pack them and raises
        :class:`~repro.errors.ConfigurationError`.  Un-raced elements
        reuse the canonical fold.
        """
        n_elems, T = self.flat.shape
        q = model.race_probability(n_elems, n_elems)
        n_cand = self.candidates.size
        n_runs = len(streams)
        out = np.empty((n_runs, n_elems), dtype=self.det_flat.dtype)
        # Run chunks keep the keys, their sort and the tap gather
        # cache-sized; every run's draws and adds are chunk-independent.
        step = max(1, _CHUNK_KEYS // max(n_cand * T, 1))
        for lo in range(0, n_runs, step):
            hi = min(lo + step, n_runs)
            runs, cand, keys = streams[lo:hi].raced_tap_keys(q, n_cand, T)
            rows = out[lo:hi]
            rows[:] = self.det_flat
            if not runs.size:
                continue
            raced = self.candidates[cand]
            keys = keys.reshape(-1, T)
            keys.sort(axis=1)
            keys &= np.uint64(TAP_KEY_MASK)
            perm = keys.view(np.int64)
            # One flat gather straight into tap-major order: row ``t`` holds
            # every raced element's ``t``-th tap in the sampled order, so the
            # fold below adds contiguous rows — the same per-element adds
            # (and bits) as _tap_fold over the gathered (raced, T) matrix.
            taps = self.flat.reshape(-1).take(perm.T + raced * T)
            acc = taps[0].copy()
            for t in range(1, T):
                acc += taps[t]
            rows[runs, raced] = acc
        return out.reshape((n_runs,) + self.out_shape)


def _add_bias(out: np.ndarray, bias, dtype, C_out: int, nd: int) -> np.ndarray:
    if bias is None:
        return out
    ba = np.asarray(bias, dtype=dtype)
    if ba.shape != (C_out,):
        raise ShapeError(f"bias must have shape ({C_out},), got {ba.shape}")
    return out + ba.reshape((1, C_out) + (1,) * nd)


def _conv_transpose_nd(
    x,
    weight,
    *,
    nd: int,
    bias=None,
    stride=1,
    padding=0,
    output_padding=0,
    deterministic: bool | None = None,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    plan = _ConvTransposePlan(
        np.asarray(x), np.asarray(weight), nd=nd, stride=stride,
        padding=padding, output_padding=output_padding,
    )
    det = resolve_determinism(f"conv_transpose{nd}d", deterministic)
    if det:
        out = plan.det_output()
    else:
        if rng is None:
            rng = (ctx or get_context()).scheduler()
        out = plan.nd_outputs(
            RunStreams.wrap([rng]), model or OP_CONTENTION["conv_transpose"]
        )[0]
    C_out = plan.out_shape[1]
    return _add_bias(out, bias, plan.dtype, C_out, nd)


def conv_transpose_runs(
    x,
    weight,
    *,
    nd: int,
    n_runs: int,
    bias=None,
    stride=1,
    padding=0,
    output_padding=0,
    model: ContentionModel | None = None,
    ctx: RunContext | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Deterministic reference + ``n_runs`` non-deterministic executions.

    Builds the tap plan once and reuses it for every run; each run consumes
    one scheduler stream, exactly like a scalar
    ``conv_transposeNd(..., deterministic=False)`` call, so all outputs are
    bit-identical to the equivalent loop.

    Returns
    -------
    (reference, outputs):
        The deterministic output and the list of ``n_runs`` ND outputs.
    """
    plan = _ConvTransposePlan(
        np.asarray(x), np.asarray(weight), nd=nd, stride=stride,
        padding=padding, output_padding=output_padding,
    )
    model = model or OP_CONTENTION["conv_transpose"]
    ctx = ctx or get_context()
    C_out = plan.out_shape[1]
    ref = _add_bias(plan.det_output(), bias, plan.dtype, C_out, nd)
    outs = [
        _add_bias(out, bias, plan.dtype, C_out, nd)
        for out in plan.nd_outputs(ctx.schedulers(n_runs), model)
    ]
    return ref, outs


def conv_transpose1d(x, weight, bias=None, *, stride=1, padding=0, output_padding=0, **kw):
    """1-D transposed convolution: ``x (B, C_in, L)``, ``weight (C_in,
    C_out, K)`` → ``(B, C_out, L_out)``; keyword args as in PyTorch plus the
    determinism/model/rng controls shared by all kernels."""
    return _conv_transpose_nd(
        x, weight, nd=1, bias=bias, stride=stride, padding=padding,
        output_padding=output_padding, **kw,
    )


def conv_transpose2d(x, weight, bias=None, *, stride=1, padding=0, output_padding=0, **kw):
    """2-D transposed convolution: ``x (B, C_in, H, W)``, ``weight (C_in,
    C_out, KH, KW)`` → ``(B, C_out, H_out, W_out)``."""
    return _conv_transpose_nd(
        x, weight, nd=2, bias=bias, stride=stride, padding=padding,
        output_padding=output_padding, **kw,
    )


def conv_transpose3d(x, weight, bias=None, *, stride=1, padding=0, output_padding=0, **kw):
    """3-D transposed convolution: ``x (B, C_in, D, H, W)``, ``weight
    (C_in, C_out, KD, KH, KW)`` → ``(B, C_out, D_out, H_out, W_out)``."""
    return _conv_transpose_nd(
        x, weight, nd=3, bias=bias, stride=stride, padding=padding,
        output_padding=output_padding, **kw,
    )
