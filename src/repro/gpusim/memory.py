"""Simulated global/shared memory with data-race accounting.

The reductions in this library are *models*, so they cannot corrupt memory
— but the programming patterns they stand for can, and the paper's Table 2
is precisely about which synchronisation mechanism each pattern relies on.
This module provides a small memory model used by tests and teaching
examples to demonstrate the race each mechanism prevents:

* :class:`GlobalMemory` — flat float storage with epoch-tagged reads and
  writes; overlapping unordered write/write or read/write pairs from
  different "threads" inside one epoch are recorded as races (unless
  performed through :meth:`GlobalMemory.atomic_add`).
* :class:`SharedMemory` — per-block scratch with a barrier
  (``__syncthreads``) that closes the epoch; accesses that straddle a
  missing barrier are the classic tree-reduction bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import LaunchError

__all__ = ["RaceRecord", "GlobalMemory", "SharedMemory"]


@dataclass(frozen=True)
class RaceRecord:
    """One detected conflicting access pair."""

    address: int
    first_thread: int
    second_thread: int
    kind: str  # "write-write" or "read-write"


@dataclass
class _Access:
    thread: int
    is_write: bool


@dataclass
class GlobalMemory:
    """Flat float64 storage with per-epoch conflict detection.

    An *epoch* is a span with no ordering guarantees (no fence/barrier/
    stream boundary).  Two accesses to one address from different threads
    within an epoch race unless both are reads or both went through
    :meth:`atomic_add`.
    """

    size: int
    _data: np.ndarray = field(init=False, repr=False)
    _accesses: dict[int, list[_Access]] = field(default_factory=dict, repr=False)
    races: list[RaceRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise LaunchError(f"size must be >= 1, got {self.size}")
        self._data = np.zeros(self.size, dtype=np.float64)

    def _check(self, address: int) -> None:
        if not 0 <= address < self.size:
            raise LaunchError(f"address {address} out of range [0, {self.size})")

    def _record(self, address: int, thread: int, is_write: bool, atomic: bool) -> None:
        log = self._accesses.setdefault(address, [])
        for prev in log:
            if prev.thread == thread:
                continue
            if prev.is_write or is_write:
                # Atomic-vs-atomic never races; anything else does.
                if not atomic or not getattr(prev, "atomic", False):
                    kind = "write-write" if (prev.is_write and is_write) else "read-write"
                    self.races.append(
                        RaceRecord(address, prev.thread, thread, kind)
                    )
        acc = _Access(thread=thread, is_write=is_write)
        acc.atomic = atomic  # type: ignore[attr-defined]
        log.append(acc)

    # ------------------------------------------------------------------ ops
    def read(self, address: int, thread: int) -> float:
        """Plain load."""
        self._check(address)
        self._record(address, thread, is_write=False, atomic=False)
        return float(self._data[address])

    def write(self, address: int, value: float, thread: int) -> None:
        """Plain store."""
        self._check(address)
        self._record(address, thread, is_write=True, atomic=False)
        self._data[address] = value

    def atomic_add(self, address: int, value: float, thread: int) -> float:
        """Atomic read-modify-write; never races with other atomics.

        Returns the previous value (CUDA semantics).  Note: atomicity is
        about *integrity*, not *order* — this is the paper's central
        distinction.
        """
        self._check(address)
        self._record(address, thread, is_write=True, atomic=True)
        prev = float(self._data[address])
        self._data[address] = prev + value
        return prev

    def fence(self) -> None:
        """Close the epoch (``__threadfence`` / stream boundary): accesses
        before and after are ordered, so they can no longer race."""
        self._accesses.clear()

    def snapshot(self) -> np.ndarray:
        """Copy of the stored values."""
        return self._data.copy()


class SharedMemory(GlobalMemory):
    """Per-block scratch memory; :meth:`barrier` is ``__syncthreads``."""

    def barrier(self) -> None:
        """Block-wide barrier: closes the epoch for this block's threads.

        The paper's Listing 1 calls ``__syncthreads()`` after every halving
        step of the tree reduction; omitting it makes the ``smem[i] +=
        smem[i + offset]`` pattern race — demonstrable with this model.
        """
        self.fence()
