"""Build, load and wrap the compiled hot-path kernels.

The backend is **cffi in ABI mode**: the C source in
:mod:`repro.backend.csrc` is compiled once into a content-addressed shared
library (``repro_kernels_<fingerprint>.so`` under
:func:`build_dir`), loaded with ``ffi.dlopen``, and exposed through thin
NumPy-facing wrappers.  ABI mode keeps the build a single ``cc`` subprocess
call — no setuptools, no API-mode extension build — so the toolchain
surface is exactly {cffi importable, a C compiler on ``$PATH``}.

Every failure mode (cffi missing, no compiler, compile error, dlopen
error) degrades to *unavailable* with a recorded reason:
:func:`available` returns ``False`` and the registry falls back to the
NumPy engine (silently under ``REPRO_BACKEND=auto``, loudly under
``REPRO_BACKEND=compiled``).  Import of this module never raises.

Each wrapper validates dtype/contiguity and returns ``NotImplemented``
for inputs outside the compiled envelope (e.g. ``float16``, non-native
byte order), which makes the call sites fall through to their NumPy
paths — per-call graceful degradation, not per-process.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .csrc import CDEF, CFLAGS, CSRC, KERNEL_FINGERPRINT

__all__ = [
    "available",
    "availability_error",
    "build_dir",
    "load_library",
    "IMPLS",
    "KERNEL_FINGERPRINT",
]

#: Environment variable overriding where the shared library is built.
BUILD_DIR_ENV = "REPRO_BACKEND_BUILD_DIR"

_ffi = None
_lib = None
_error: str | None = None
_tried = False

#: Dtypes the kernels are instantiated for.
_SUFFIX = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}


def build_dir() -> Path:
    """``$REPRO_BACKEND_BUILD_DIR`` or ``~/.cache/repro-backend``."""
    env = os.environ.get(BUILD_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-backend"


def _find_compiler() -> str | None:
    """``$CC`` or the first of ``cc``/``gcc``/``clang`` on ``$PATH``."""
    cc = os.environ.get("CC")
    if cc:
        return cc
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _build_library(so_path: Path) -> None:
    """Compile the kernel source into ``so_path`` (atomic, concurrent-safe).

    Two processes racing the build each compile into a private temp file
    and ``os.replace`` it over the target — dlopen only ever sees a
    complete library.
    """
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler found (set $CC or install cc/gcc/clang)")
    so_path.parent.mkdir(parents=True, exist_ok=True)
    src_path = so_path.with_suffix(".c")
    if not src_path.exists():  # kept next to the .so for debugging
        src_path.write_text(CSRC)
    fd, tmp = tempfile.mkstemp(dir=so_path.parent, prefix=f".{so_path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, str(src_path)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"kernel compilation failed ({cc} exited {proc.returncode}): "
                f"{proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, so_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_library():
    """Return the loaded kernel library, building it on first use.

    Raises on failure; use :func:`available` for the non-raising probe.
    The result is cached for the process (including a cached failure —
    the toolchain does not come and go mid-run).
    """
    global _ffi, _lib, _error, _tried
    if _lib is not None:
        return _lib
    if _tried and _error is not None:
        raise RuntimeError(_error)
    _tried = True
    try:
        from cffi import FFI

        ffi = FFI()
        ffi.cdef(CDEF)
        so_path = build_dir() / f"repro_kernels_{KERNEL_FINGERPRINT[:16]}.so"
        if not so_path.exists():
            _build_library(so_path)
        lib = ffi.dlopen(str(so_path))
    except Exception as exc:  # noqa: BLE001 - any toolchain failure => unavailable
        _error = f"{type(exc).__name__}: {exc}"
        raise RuntimeError(_error) from exc
    _ffi, _lib = ffi, lib
    return lib


def available() -> bool:
    """True iff the compiled kernels can be (or already were) loaded."""
    try:
        load_library()
    except Exception:
        return False
    return True


def availability_error() -> str | None:
    """Why the compiled backend is unavailable (None when it is)."""
    if available():
        return None
    return _error


def _reset_for_tests() -> None:
    """Forget the cached load attempt (tests simulate missing toolchains)."""
    global _ffi, _lib, _error, _tried
    _ffi = _lib = _error = None
    _tried = False


# ------------------------------------------------------------------ wrappers

def _suffix(dtype: np.dtype) -> str | None:
    """Kernel suffix for ``dtype``, or ``None`` when outside the envelope."""
    if not dtype.isnative:
        return None
    return _SUFFIX.get(dtype)


def _f64p(arr: np.ndarray):
    return _ffi.cast("double *", arr.ctypes.data)


def _f32p(arr: np.ndarray):
    return _ffi.cast("float *", arr.ctypes.data)


def _valp(arr: np.ndarray):
    return _f64p(arr) if arr.dtype == np.float64 else _f32p(arr)


def _i64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def _i64p(arr: np.ndarray):
    return _ffi.cast("int64_t *", arr.ctypes.data)


def _u8p(arr: np.ndarray):
    return _ffi.cast("uint8_t *", arr.ctypes.data)


def _u64p(arr: np.ndarray):
    return _ffi.cast("uint64_t *", arr.ctypes.data)


def _rowsp(rows: np.ndarray | None):
    return _ffi.NULL if rows is None else _i64p(rows)


def _batched_atomic_fold(arr: np.ndarray, om: np.ndarray, per_run: bool):
    """Compiled sequential-fold core behind
    :func:`repro.gpusim.atomics.batched_atomic_fold` and
    :func:`repro.fp.summation.permuted_sums` (``n >= 1``).

    Also returns ``NotImplemented`` when an order holds an index outside
    ``[0, n)``: the kernel checks as it reads, and the NumPy path then
    raises the caller's named error.
    """
    sfx = _suffix(arr.dtype)
    if sfx is None:
        return NotImplemented
    lib = load_library()
    arr = np.ascontiguousarray(arr)
    om = _i64(om)
    n_runs, n = om.shape
    out = np.empty(n_runs, dtype=np.float64)
    bad = getattr(lib, f"repro_atomic_fold_{sfx}")(
        _valp(arr), _i64p(om), int(per_run), n_runs, n, _f64p(out)
    )
    return NotImplemented if bad else out


def _stratified_refold(
    *,
    seg_start,
    seg_count,
    seg_pad,
    pos_off,
    keys,
    order,
    vals,
    init_rows,
    run_of_seg,
):
    """Compiled :func:`repro.ops.segmented._stratified_refold` core
    (``ufunc=np.add`` only; the call site checks)."""
    sfx = _suffix(vals.dtype)
    if sfx is None:
        return NotImplemented
    lib = load_library()
    vals = np.ascontiguousarray(vals)
    per_run = run_of_seg is not None
    payload = vals.shape[2:] if per_run else vals.shape[1:]
    m = int(np.prod(payload, dtype=np.int64)) if payload else 1
    if m == 0:
        return NotImplemented
    n_sources = vals.shape[1] if per_run else vals.shape[0]
    seg_start = _i64(seg_start)
    seg_count = _i64(seg_count)
    seg_pad_u8 = np.ascontiguousarray(seg_pad, dtype=np.uint8)
    pos_off = _i64(pos_off)
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    order = _i64(order)
    n_segs = seg_count.size
    k_cap = int(seg_count.max()) if n_segs else 0
    lanes = np.empty(max(k_cap, 1), dtype=np.int64)
    if init_rows is not None:
        init_rows = np.ascontiguousarray(init_rows, dtype=vals.dtype)
        init_ptr = _valp(init_rows)
    else:
        init_ptr = _ffi.NULL
    if per_run:
        run_of_seg = _i64(run_of_seg)
        run_ptr = _i64p(run_of_seg)
    else:
        run_ptr = _ffi.NULL
    out = np.empty((n_segs,) + payload, dtype=vals.dtype)
    getattr(lib, f"repro_stratified_refold_{sfx}")(
        _valp(vals),
        int(per_run),
        run_ptr,
        _i64p(seg_start),
        _i64p(seg_count),
        _u8p(seg_pad_u8),
        _i64p(pos_off),
        _f64p(keys),
        _i64p(order),
        init_ptr,
        n_segs,
        n_sources,
        m,
        _i64p(lanes),
        _valp(out),
    )
    return out


# Run-stream kernels.  ``states`` is a window's C-contiguous ``(R, 6)``
# uint64 PCG64 state array, advanced in place; ``rows`` (int64, or None
# for all of ``0..n-1``) picks the rows one call draws from.  Every
# wrapper returns ``NotImplemented`` when the library was built without
# 128-bit integers.


def _pcg64_seed(words: np.ndarray):
    """``(R, 6)`` PCG64 state rows seeded from ``(R, 4)`` SeedSequence
    words, as ``PCG64(seed_seq)`` seeds itself."""
    lib = load_library()
    words = np.ascontiguousarray(words, dtype=np.uint64)
    states = np.empty((words.shape[0], 6), dtype=np.uint64)
    if lib.repro_pcg64_seed(_u64p(words), words.shape[0], _u64p(states)):
        return NotImplemented
    return states


def _pcg64_bounded(states, rows, n: int, bound: int):
    """One ``integers(bound + 1)`` per row (``1 <= bound < 2**32``)."""
    lib = load_library()
    out = np.empty(n, dtype=np.int64)
    if lib.repro_pcg64_bounded(_u64p(states), _rowsp(rows), n, bound, _i64p(out)):
        return NotImplemented
    return out


def _pcg64_fill_f32(states, rows, n: int, m: int):
    """``(n, m)``: one ``random(m, dtype=float32)`` per row."""
    lib = load_library()
    out = np.empty((n, m), dtype=np.float32)
    if lib.repro_pcg64_fill_f32(_u64p(states), _rowsp(rows), n, m, _f32p(out)):
        return NotImplemented
    return out


def _pcg64_bernoulli(states, rows, n: int, q: float, counts: np.ndarray):
    """``(mask, row_keys)``: ``random(C) < q`` per row as an ``(n, C)``
    bool mask, and each row's key count ``counts[mask[r]].sum()``."""
    lib = load_library()
    counts = _i64(counts)
    mask = np.empty((n, counts.size), dtype=np.uint8)
    row_keys = np.empty(n, dtype=np.int64)
    if lib.repro_pcg64_bernoulli(
        _u64p(states), _rowsp(rows), n, counts.size, float(q), _i64p(counts),
        _u8p(mask), _i64p(row_keys),
    ):
        return NotImplemented
    return mask.view(bool), row_keys


def _pcg64_fill_f64(states, rows, row_counts: np.ndarray):
    """``random(row_counts[r])`` per row, concatenated in row order."""
    lib = load_library()
    row_counts = _i64(row_counts)
    out = np.empty(int(row_counts.sum()), dtype=np.float64)
    if lib.repro_pcg64_fill_f64(
        _u64p(states), _rowsp(rows), row_counts.size, _i64p(row_counts), _f64p(out)
    ):
        return NotImplemented
    return out


def _pcg64_tap_keys(states, rows, row_counts: np.ndarray, taps: int):
    """The draws of :func:`_pcg64_fill_f64` as uint64 keys packed with
    their tap index (``1 <= taps <= 2048``; every ``row_counts[r]`` a
    multiple of ``taps``)."""
    lib = load_library()
    row_counts = _i64(row_counts)
    out = np.empty(int(row_counts.sum()), dtype=np.uint64)
    if lib.repro_pcg64_tap_keys(
        _u64p(states), _rowsp(rows), row_counts.size, _i64p(row_counts), taps,
        _u64p(out),
    ):
        return NotImplemented
    return out


#: Primitive name -> compiled implementation, consumed by the registry.
IMPLS = {
    "batched_atomic_fold": _batched_atomic_fold,
    "stratified_refold": _stratified_refold,
    "pcg64_seed": _pcg64_seed,
    "pcg64_bounded": _pcg64_bounded,
    "pcg64_fill_f32": _pcg64_fill_f32,
    "pcg64_bernoulli": _pcg64_bernoulli,
    "pcg64_fill_f64": _pcg64_fill_f64,
    "pcg64_tap_keys": _pcg64_tap_keys,
}
