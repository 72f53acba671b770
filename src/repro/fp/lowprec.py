"""Low-precision accumulation: bfloat16 / float16 rounding and folds.

The collective-reduction experiments compare accumulation precisions, and
two of them are narrower than anything NumPy's ufunc machinery hands us
directly:

* **fp16** (IEEE binary16) *is* a NumPy dtype; NumPy evaluates half adds
  by widening, adding and rounding each operation to nearest-even — which
  is exactly the step-rounded accumulator a half-precision ALU implements,
  so fp16 folds simply run :func:`repro.gpusim.atomics.batched_atomic_fold`
  on ``float16`` values.
* **bfloat16** is *not* a NumPy dtype.  bf16 quantities here are carried
  as ``float32`` arrays whose values lie exactly on the bf16 grid (the low
  16 bits of the f32 encoding are zero — every bf16 value is exactly
  representable in f32).  :func:`round_to_bf16` is the round-to-nearest-
  even quantiser onto that grid, and :func:`bf16_fold_runs` is the batched
  sequential fold that re-quantises after every add — the *step-rounded*
  (double-rounding) accumulation a bf16 MAC pipeline performs, observably
  different from accumulating in f32 and rounding once at the end
  (pinned in ``tests/test_collectives.py``).

Rounding trick
--------------
``round_to_bf16`` uses the classic bit manipulation: add ``0x7FFF`` plus
the parity of the keep bit to the f32 encoding, then truncate the low 16
bits.  The carry ripples into the exponent exactly when rounding should
(including overflow to infinity); ties land on an even keep bit.  NaNs
are handled out of line — the carry could flood a small payload into the
exponent field — by truncating the payload and forcing the quiet bit, so
NaN payload high bits survive quantisation.  Signed zeros, infinities and
subnormal truncation all fall out of the same arithmetic.
"""

from __future__ import annotations

import numpy as np

from ..errors import DTypeError

__all__ = [
    "round_to_bf16",
    "bf16_bits",
    "bf16_ulp_distance",
    "bf16_fold_runs",
]

_BF16_MASK = np.uint32(0xFFFF0000)
_BF16_HALF_ULP = np.uint32(0x7FFF)
_BF16_QUIET = np.uint32(0x00400000)


def _as_f32(x) -> np.ndarray:
    """float32 array view-ready copy/cast, preserving shape (0-d stays
    0-d — ``ascontiguousarray`` alone would promote scalars to 1-D)."""
    a = np.asarray(x, dtype=np.float32)
    return a if a.flags["C_CONTIGUOUS"] else np.ascontiguousarray(a)


def round_to_bf16(x) -> np.ndarray:
    """Round float32 value(s) to the nearest bfloat16, ties to even.

    Returns a ``float32`` array (same shape) whose values are exactly
    bf16-representable.  Other float dtypes are first cast to ``float32``
    with NumPy's own round-to-nearest-even cast — the f64 → f32 → bf16
    path a stack that stores f32 and converts on send performs.
    """
    a = _as_f32(x)
    u = a.view(np.uint32)
    r = (u + _BF16_HALF_ULP + ((u >> np.uint32(16)) & np.uint32(1))) & _BF16_MASK
    nan = np.isnan(a)
    if np.any(nan):
        r = np.where(nan, (u | _BF16_QUIET) & _BF16_MASK, r)
    return r.view(np.float32)


def bf16_bits(x) -> np.ndarray:
    """The 16-bit bf16 encodings of bf16-valued float32 input.

    Raises :class:`~repro.errors.DTypeError` when any value is off the
    bf16 grid — encodings of unrounded values would silently truncate.
    """
    a = _as_f32(x)
    u = a.view(np.uint32)
    if np.any(u & np.uint32(0xFFFF)):
        raise DTypeError(
            "bf16_bits requires bf16-valued input; quantise with round_to_bf16 first"
        )
    return (u >> np.uint32(16)).astype(np.uint16)


def bf16_ulp_distance(a, b) -> np.ndarray | int:
    """Representable bf16 values between ``a`` and ``b`` (0 if equal).

    The bf16 twin of :func:`repro.fp.ulp.ulp_distance`: encodings map to a
    monotone integer line (sign-magnitude folded two's-complement style),
    so the distance is a plain integer subtraction.  NaNs raise.
    """
    ba = bf16_bits(a).astype(np.int32)
    bb = bf16_bits(b).astype(np.int32)
    if _any_nan_bits(ba) or _any_nan_bits(bb):
        raise DTypeError("bf16_ulp_distance is undefined for NaN operands")
    oa = np.where(ba & 0x8000, 0x8000 - ba, ba)
    ob = np.where(bb & 0x8000, 0x8000 - bb, bb)
    dist = np.abs(oa - ob)
    return int(dist) if dist.ndim == 0 else dist


def _any_nan_bits(bits: np.ndarray) -> bool:
    return bool(np.any(((bits & 0x7F80) == 0x7F80) & ((bits & 0x007F) != 0)))


def bf16_fold_runs(values: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Step-rounded bf16 sequential folds of every row of ``orders``.

    The bf16 counterpart of
    :func:`repro.gpusim.atomics.batched_atomic_fold`: operands are first
    quantised to bf16 (:func:`round_to_bf16`), then each row folds
    sequentially in its order with every partial sum re-quantised — add in
    f32 (exact embedding), round to bf16, repeat.  ``values`` is ``(n,)``
    shared or ``(R, n)`` per-run; ``orders`` is ``(R, n)``.  Returns
    ``(R,)`` float64 holding the exact bf16-valued results.
    """
    vals = round_to_bf16(np.asarray(values, dtype=np.float32))
    om = np.asarray(orders)
    if om.ndim != 2:
        raise DTypeError(f"orders must be 2-D (runs, n), got shape {om.shape}")
    gathered = (
        np.take_along_axis(vals, om, axis=1) if vals.ndim == 2 else vals[om]
    )
    acc = gathered[:, 0].copy()
    for j in range(1, gathered.shape[1]):
        acc = round_to_bf16(acc + gathered[:, j])
    return acc.astype(np.float64)
