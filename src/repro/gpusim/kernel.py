"""Kernel launch configuration, mirroring CUDA's ``<<<grid, block>>>``.

A :class:`LaunchConfig` validates the launch against device limits and
derives the quantities the scheduler and cost models need (total threads,
resident blocks).  The reduction implementations in
:mod:`repro.reductions` each carry one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import LaunchError
from .device import DeviceSpec
from .occupancy import resident_blocks

__all__ = ["LaunchConfig"]


@dataclass(frozen=True)
class LaunchConfig:
    """A validated 1-D kernel launch.

    Parameters
    ----------
    device:
        Target device spec.
    n_blocks:
        Grid size ``Nb``.
    threads_per_block:
        Block size ``Nt``; must be a positive multiple of nothing in CUDA,
        but the tree-reduction kernels additionally require a power of two
        (checked by the reduction that uses them, not here).
    shared_mem_bytes:
        Dynamic shared memory per block.

    Raises
    ------
    LaunchError
        On any violated device limit.
    """

    device: DeviceSpec
    n_blocks: int
    threads_per_block: int
    shared_mem_bytes: int = 0

    def __post_init__(self) -> None:
        if self.n_blocks < 1:
            raise LaunchError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.threads_per_block < 1:
            raise LaunchError(
                f"threads_per_block must be >= 1, got {self.threads_per_block}"
            )
        if self.threads_per_block > self.device.max_threads_per_block:
            raise LaunchError(
                f"threads_per_block {self.threads_per_block} exceeds "
                f"{self.device.name} limit {self.device.max_threads_per_block}"
            )
        if self.shared_mem_bytes < 0:
            raise LaunchError("shared_mem_bytes must be non-negative")
        if self.shared_mem_bytes > self.device.shared_mem_per_block:
            raise LaunchError(
                f"shared_mem_bytes {self.shared_mem_bytes} exceeds "
                f"{self.device.name} limit {self.device.shared_mem_per_block}"
            )

    @property
    def total_threads(self) -> int:
        """Grid-wide thread count."""
        return self.n_blocks * self.threads_per_block

    @cached_property
    def resident_blocks(self) -> int:
        """Blocks simultaneously resident (occupancy bound; cached —
        the batched schedulers read this on every launch)."""
        return resident_blocks(self.device, self.threads_per_block)
