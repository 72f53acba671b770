"""Pluggable compiled backend under the engine's fold primitives.

The batched run-axis engine funnels all hot floating-point work through a
narrow waist of fold primitives.  This package puts a compiled kernel
behind the two whose C twin measurably moves an experiment's run time:
the sequential fold (``batched_atomic_fold``, which ``permuted_sums``
also runs on) and the raced-segment re-fold (``stratified_refold``).
The tree folds, the canonical segmented fold (``SegmentPlan.fold``) and
the blocked cumsum scan stay NumPy-only.  Six run-stream kernels
(``pcg64_seed``, ``pcg64_bounded``, ``pcg64_fill_f32``,
``pcg64_bernoulli``, ``pcg64_fill_f64``, ``pcg64_tap_keys``) draw a
whole :class:`~repro.runtime.RunStreams` window's scheduler randomness
in C, bit-identical to NumPy's PCG64 ``Generator`` (``pcg64_tap_keys``
writes ``pcg64_fill_f64``'s draws packed with their tap index).  The package has three
modules:

* :mod:`repro.backend.csrc` — the C kernels (one template, f32/f64);
* :mod:`repro.backend.compiled` — cffi ABI-mode build/load + wrappers;
* :mod:`repro.backend.registry` — selection (``$REPRO_BACKEND`` /
  :func:`set_backend` / ``--backend``) and per-primitive dispatch.

The hard invariant: **backends differ in wall-clock only, never in
bits**.  Compiled kernels execute the exact IEEE-754 operation sequence
of their NumPy twins (same association orders, same f32/f64 intermediate
widths, same −0.0/NaN/inf handling), pinned by the cross-backend parity
suite and by running the full batched↔scalar property tests and all
golden pins under both backends.  Result-cache keys still carry the
backend identity (:func:`cache_identity`) — key hygiene must not depend
on that equality.

When the toolchain (cffi + a C compiler) is unavailable, ``auto`` mode
falls back to the NumPy engine silently; nothing in tier-1 requires the
compiler.
"""

from .registry import (
    BACKEND_ENV,
    MODES,
    active_backend,
    availability_error,
    backend_mode,
    cache_identity,
    compiled_available,
    resolve,
    set_backend,
    use_backend,
    warm_up,
)

__all__ = [
    "BACKEND_ENV",
    "MODES",
    "active_backend",
    "availability_error",
    "backend_mode",
    "cache_identity",
    "compiled_available",
    "resolve",
    "set_backend",
    "use_backend",
    "warm_up",
]
