"""Parallel-sum implementations from the paper's Section III.

Six strategies, mirroring Table 2:

=======  =============  =========  ==============================
method   deterministic  # kernels  synchronization
=======  =============  =========  ==============================
CU       yes            1          ``__threadfence`` (CUB-style)
SPTR     yes            1          ``__threadfence``
SPRG     yes            1          ``__threadfence``
TPRC     yes            2          stream synchronization
SPA      **no**         1          ``atomicAdd``
AO       **no**         1          ``atomicAdd``
=======  =============  =========  ==============================

Each implementation is a callable object evaluating the same mathematical
sum with a precisely specified (or scheduler-sampled) association order on
a simulated device.  Use :func:`get_reduction` to build one by name and
:func:`properties_table` to regenerate Table 2.
"""

from .base import ReductionImpl, ReductionProperties
from .implementations import (
    AtomicOnly,
    SinglePassAtomic,
    SinglePassTreeReduction,
    SinglePassRecursiveGPU,
    TwoPassReduceCPU,
    CubStyle,
)
from .registry import get_reduction, properties_table, REDUCTION_NAMES

__all__ = [
    "ReductionImpl",
    "ReductionProperties",
    "AtomicOnly",
    "SinglePassAtomic",
    "SinglePassTreeReduction",
    "SinglePassRecursiveGPU",
    "TwoPassReduceCPU",
    "CubStyle",
    "get_reduction",
    "properties_table",
    "REDUCTION_NAMES",
]
