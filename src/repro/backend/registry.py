"""Backend selection and per-primitive dispatch.

The engine's hot paths — the two fold primitives
(``batched_atomic_fold``, ``stratified_refold``) and the six
``pcg64_*`` run-stream kernels of :mod:`repro.backend.csrc` — each ask
the registry for a compiled implementation at call time::

    impl = registry.resolve("batched_atomic_fold")
    if impl is not None:
        res = impl(arr, om, per_run)
        if res is not NotImplemented:
            return res
    # ... NumPy path ...

``resolve`` returns ``None`` when the NumPy engine should run (mode
``numpy``, or ``auto`` with no toolchain) and the compiled wrapper
otherwise; the wrapper itself may still return ``NotImplemented`` for
inputs outside the compiled envelope (exotic dtypes), dropping that one
call back onto NumPy.  Either way the bits are identical — the backends
differ in wall-clock only, a contract enforced by the cross-backend
parity suite (``tests/test_backend.py``) and by running the full
batched↔scalar property tests and golden pins under both backends.

Selection
---------
``REPRO_BACKEND`` ∈ ``{numpy, compiled, auto}`` (default ``auto``), read
once on first use; :func:`set_backend` overrides it process-wide (the CLI
``--backend`` flag and the sharded executor's worker initializer go
through it), and :func:`use_backend` scopes an override.  ``auto`` uses
the compiled kernels when the toolchain builds them and falls back to
NumPy silently otherwise; explicit ``compiled`` raises
:class:`~repro.errors.ConfigurationError` when the toolchain is
unavailable — a CI leg pinned to the compiled backend must never silently
test NumPy twice.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Iterator

from ..errors import ConfigurationError

__all__ = [
    "BACKEND_ENV",
    "MODES",
    "backend_mode",
    "set_backend",
    "use_backend",
    "active_backend",
    "resolve",
    "compiled_available",
    "availability_error",
    "cache_identity",
    "warm_up",
]

#: Environment variable selecting the backend mode.
BACKEND_ENV = "REPRO_BACKEND"

#: Valid backend modes.
MODES = ("numpy", "compiled", "auto")

_mode: str | None = None  # None => read BACKEND_ENV lazily
_resolved: dict[str, Callable | None] = {}


def _validated(mode: str) -> str:
    m = str(mode).strip().lower()
    if m not in MODES:
        raise ConfigurationError(
            f"unknown backend {mode!r}; choose from {MODES} "
            f"(via ${BACKEND_ENV} or set_backend)"
        )
    return m


def backend_mode() -> str:
    """The *selected* mode: ``numpy``, ``compiled`` or ``auto``.

    Read from ``$REPRO_BACKEND`` on first use (default ``auto``); after
    that, only :func:`set_backend` changes it.
    """
    global _mode
    if _mode is None:
        _mode = _validated(os.environ.get(BACKEND_ENV) or "auto")
    return _mode


def set_backend(mode: str) -> str:
    """Select the backend process-wide; returns the normalised mode.

    Clears the per-primitive resolution cache so the next hot-path call
    re-dispatches under the new mode.
    """
    global _mode
    _mode = _validated(mode)
    _resolved.clear()
    return _mode


@contextlib.contextmanager
def use_backend(mode: str) -> Iterator[str]:
    """Scoped :func:`set_backend` (restores the previous selection)."""
    prev = backend_mode()
    try:
        yield set_backend(mode)
    finally:
        set_backend(prev)


def compiled_available() -> bool:
    """True iff the compiled kernel library loads on this machine."""
    from . import compiled

    return compiled.available()


def availability_error() -> str | None:
    """Why the compiled backend is unavailable (``None`` when it is)."""
    from . import compiled

    return compiled.availability_error()


def active_backend() -> str:
    """The *resolved* backend this process executes with: ``numpy`` or
    ``compiled``.

    ``auto`` resolves to ``compiled`` when the toolchain is available and
    to ``numpy`` otherwise; explicit ``compiled`` raises
    :class:`~repro.errors.ConfigurationError` when it is not.
    """
    mode = backend_mode()
    if mode == "numpy":
        return "numpy"
    if compiled_available():
        return "compiled"
    if mode == "compiled":
        raise ConfigurationError(
            f"{BACKEND_ENV}=compiled but the compiled backend is "
            f"unavailable: {availability_error()}"
        )
    return "numpy"


def resolve(name: str) -> Callable | None:
    """Compiled implementation of primitive ``name``, or ``None`` for the
    NumPy engine.  Cached per name until :func:`set_backend`."""
    try:
        return _resolved[name]
    except KeyError:
        pass
    impl = None
    if active_backend() == "compiled":
        from . import compiled

        impl = compiled.IMPLS.get(name)
    _resolved[name] = impl
    return impl


def cache_identity() -> dict:
    """Backend identity for result-cache keys.

    ``{"name": "numpy"}`` or ``{"name": "compiled", "kernels":
    <source fingerprint>}`` — so a numpy-produced cache entry can never be
    served to a compiled run (or vice versa), and a kernel-source edit
    invalidates every compiled key.  Key hygiene, not a correctness
    dependency: the backends produce identical bits.
    """
    if active_backend() == "compiled":
        from . import compiled

        return {"name": "compiled", "kernels": compiled.KERNEL_FINGERPRINT}
    return {"name": "numpy"}


def warm_up() -> str:
    """Build, load and first-touch every compiled kernel; returns the
    resolved backend name.

    Benchmarks call this before their measured rounds so one-time costs
    (the ``cc`` build, ``dlopen``, first-call paging) never pollute a
    mean; it is a no-op when the NumPy engine is active.
    """
    backend = active_backend()
    if backend != "compiled":
        return backend
    import numpy as np

    from ..ops.segmented import SegmentPlan

    from . import compiled

    x = np.array([1.0, 2.0, 3.0])
    compiled.IMPLS["batched_atomic_fold"](x, np.array([[2, 0, 1]]), False)
    plan = SegmentPlan(np.array([0, 1, 0]), 2)
    compiled.IMPLS["stratified_refold"](
        seg_start=plan.segment_starts[:1],
        seg_count=plan.counts[:1],
        seg_pad=np.zeros(1, dtype=bool),
        pos_off=np.zeros(1, dtype=np.int64),
        keys=np.array([0.5, 0.25]),
        order=plan.order,
        vals=x,
        init_rows=None,
        run_of_seg=None,
    )
    states = compiled.IMPLS["pcg64_seed"](np.zeros((2, 4), dtype=np.uint64))
    compiled.IMPLS["pcg64_bounded"](states, None, 2, 5)
    compiled.IMPLS["pcg64_fill_f32"](states, None, 2, 3)
    _, row_keys = compiled.IMPLS["pcg64_bernoulli"](states, None, 2, 0.5, np.array([2, 3]))
    compiled.IMPLS["pcg64_fill_f64"](states, None, row_keys)
    compiled.IMPLS["pcg64_tap_keys"](states, None, row_keys, 1)
    return backend
