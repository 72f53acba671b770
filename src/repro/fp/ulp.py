"""ULP (unit in the last place) utilities.

Variability from FPNA is best understood in ulps: a single reordering of a
benign sum typically perturbs the result by O(1) ulp, and the paper's
``Vs ~ 1e-16`` values for FP64 are exactly 1–30 ulps of 1.0.  These helpers
let tests and analyses express assertions at that resolution.
"""

from __future__ import annotations

import numpy as np

from ..errors import DTypeError

__all__ = ["ulp", "ulp_distance", "relative_error_in_ulps"]

_INT_FOR = {
    np.dtype(np.float16): np.int16,
    np.dtype(np.float32): np.int32,
    np.dtype(np.float64): np.int64,
}
_UINT_FOR = {
    np.dtype(np.float16): np.uint16,
    np.dtype(np.float32): np.uint32,
    np.dtype(np.float64): np.uint64,
}


def ulp(x) -> np.ndarray | float:
    """Return the ULP of each value: the gap to the next representable
    float away from zero.  ``ulp(0) = smallest subnormal``; inf/NaN → NaN.
    """
    arr = np.asarray(x)
    if arr.dtype not in _INT_FOR:
        arr = arr.astype(np.float64)
    ax = np.abs(arr)
    toward = np.where(np.isfinite(ax), np.inf, np.nan).astype(arr.dtype)
    out = np.nextafter(ax, toward) - ax
    out = np.where(np.isfinite(arr), out, np.nan)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _ordered_ints(arr: np.ndarray) -> np.ndarray:
    """Map float bit patterns to a monotone integer line (two's-complement
    style trick), so ulp distance is a plain integer subtraction."""
    itype = _INT_FOR[arr.dtype]
    bits = arr.view(itype)
    sign_fix = np.array(np.iinfo(itype).min, dtype=itype)
    return np.where(bits < 0, sign_fix - bits, bits)


def ulp_distance(a, b) -> np.ndarray | int:
    """Number of representable floats between ``a`` and ``b`` (0 if equal).

    Both operands must share a float dtype.  NaNs raise, since ulp distance
    is undefined for them.
    """
    aa = np.asarray(a)
    bb = np.asarray(b)
    if aa.dtype != bb.dtype:
        common = np.result_type(aa.dtype, bb.dtype)
        aa = aa.astype(common)
        bb = bb.astype(common)
    if aa.dtype not in _INT_FOR:
        aa = aa.astype(np.float64)
        bb = bb.astype(np.float64)
    if np.any(np.isnan(aa)) or np.any(np.isnan(bb)):
        raise DTypeError("ulp_distance is undefined for NaN operands")
    dist = np.abs(
        _ordered_ints(aa).astype(np.int64) - _ordered_ints(bb).astype(np.int64)
    )
    return int(dist) if dist.ndim == 0 else dist


def relative_error_in_ulps(approx, exact) -> np.ndarray | float:
    """Error of ``approx`` relative to ``exact`` measured in ulps of
    ``exact`` — the natural unit for summation-error assertions."""
    ex = np.asarray(exact, dtype=np.float64)
    ap = np.asarray(approx, dtype=np.float64)
    u = ulp(ex)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs(ap - ex) / u
    return float(out) if np.isscalar(exact) or ex.ndim == 0 else out
