"""Occupancy arithmetic: how many blocks are simultaneously resident.

The scheduler model needs one number per launch: the count of thread blocks
that can execute concurrently.  Blocks within the resident set race; blocks
in later waves cannot retire before earlier waves start.  The calculation
follows the CUDA occupancy rules restricted to the thread- and block-count
limits (register/shared-memory pressure is out of scope for the reductions
studied, which use tiny footprints).
"""

from __future__ import annotations

from .device import DeviceSpec
from ..errors import LaunchError

__all__ = ["resident_blocks"]


def resident_blocks(device: DeviceSpec, threads_per_block: int) -> int:
    """Maximum number of blocks simultaneously resident on the device.

    ``min(threads-limited, block-count-limited)`` per SM, times SM count.
    """
    if threads_per_block < 1:
        raise LaunchError(f"threads_per_block must be >= 1, got {threads_per_block}")
    if threads_per_block > device.max_threads_per_block:
        raise LaunchError(
            f"threads_per_block {threads_per_block} exceeds device limit "
            f"{device.max_threads_per_block}"
        )
    per_sm_threads = device.max_threads_per_sm // threads_per_block
    per_sm = max(1, min(per_sm_threads, device.max_blocks_per_sm))
    return per_sm * device.num_sms

