"""Global determinism configuration, mirroring PyTorch's API surface.

The paper studies PyTorch's ``torch.use_deterministic_algorithms`` switch and
found its behaviour (and documentation) incomplete.  This module reproduces
the same control surface for our kernels:

* :func:`use_deterministic_algorithms` — require deterministic kernels; ops
  with no deterministic implementation raise
  :class:`~repro.errors.NondeterministicError` (or warn with
  ``warn_only=True``), exactly the failure mode the paper hit with
  ``scatter_reduce``.
* :class:`deterministic_mode` — scoped override for tests and experiments.

Thread-safety: flags are process-global and guarded by a lock, like
PyTorch's.  Scoped overrides restore the previous state on exit even when an
exception propagates.
"""

from __future__ import annotations

import contextlib
import threading
import warnings
from typing import Iterator

from .errors import ConfigurationError, NondeterministicError

__all__ = [
    "use_deterministic_algorithms",
    "deterministic_mode",
    "DeterminismWarning",
    "check_deterministic_allowed",
]


class DeterminismWarning(UserWarning):
    """Warning emitted in ``warn_only`` mode when a non-deterministic kernel
    runs while deterministic algorithms were requested."""


_lock = threading.Lock()
_deterministic: bool = False
_warn_only: bool = False


def use_deterministic_algorithms(mode: bool, *, warn_only: bool = False) -> None:
    """Globally require (or stop requiring) deterministic kernels.

    Parameters
    ----------
    mode:
        ``True`` to require deterministic implementations.
    warn_only:
        If ``True``, operations without a deterministic implementation emit
        :class:`DeterminismWarning` instead of raising.

    Raises
    ------
    ConfigurationError
        If ``mode`` is not a bool (PyTorch raises ``TypeError`` here; we
        raise our library error which *is* a ``TypeError`` subclass for the
        dtype case but a plain ReproError here, so we accept both styles).
    """
    global _deterministic, _warn_only
    if not isinstance(mode, bool):
        raise ConfigurationError(f"mode must be bool, got {type(mode).__name__}")
    if not isinstance(warn_only, bool):
        raise ConfigurationError(f"warn_only must be bool, got {type(warn_only).__name__}")
    with _lock:
        _deterministic = mode
        _warn_only = warn_only if mode else False


@contextlib.contextmanager
def deterministic_mode(mode: bool = True, *, warn_only: bool = False) -> Iterator[None]:
    """Scoped version of :func:`use_deterministic_algorithms`.

    >>> with deterministic_mode():
    ...     assert check_deterministic_allowed("op", has_deterministic=True)
    """
    with _lock:
        prev = (_deterministic, _warn_only)
    use_deterministic_algorithms(mode, warn_only=warn_only)
    try:
        yield
    finally:
        use_deterministic_algorithms(prev[0], warn_only=prev[1])


def check_deterministic_allowed(op_name: str, *, has_deterministic: bool) -> bool:
    """Gatekeeper used by every kernel with a non-deterministic fast path.

    Returns ``True`` when the caller must take the deterministic path.

    * If deterministic algorithms are not required → returns ``False``.
    * If required and the op has a deterministic implementation → ``True``.
    * If required and the op has **no** deterministic implementation →
      raises :class:`NondeterministicError` (or warns in warn-only mode and
      returns ``False``).
    """
    with _lock:
        det, warn = _deterministic, _warn_only
    if not det:
        return False
    if has_deterministic:
        return True
    if warn:
        warnings.warn(
            f"{op_name} does not have a deterministic implementation; "
            "running the non-deterministic kernel (warn_only=True)",
            DeterminismWarning,
            stacklevel=3,
        )
        return False
    raise NondeterministicError(
        f"{op_name} does not have a deterministic implementation, but "
        "deterministic algorithms were required. You can call "
        "repro.use_deterministic_algorithms(True, warn_only=True) to run it anyway."
    )
