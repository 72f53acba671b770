"""Registry of parallel-sum strategies and the Table 2 property table."""

from __future__ import annotations

from ..errors import ConfigurationError
from .base import ReductionImpl, ReductionProperties
from .implementations import (
    AtomicOnly,
    CubStyle,
    SinglePassAtomic,
    SinglePassRecursiveGPU,
    SinglePassTreeReduction,
    TwoPassReduceCPU,
)

__all__ = ["REDUCTION_NAMES", "get_reduction", "properties_table"]

_CLASSES: dict[str, type[ReductionImpl]] = {
    "ao": AtomicOnly,
    "spa": SinglePassAtomic,
    "sptr": SinglePassTreeReduction,
    "sprg": SinglePassRecursiveGPU,
    "tprc": TwoPassReduceCPU,
    "cu": CubStyle,
}

#: Strategy names in the paper's Table 2 order.
REDUCTION_NAMES: tuple[str, ...] = ("cu", "sptr", "sprg", "tprc", "spa", "ao")


def get_reduction(name: str, device: str = "v100", **kwargs) -> ReductionImpl:
    """Instantiate a strategy by short name on the given device.

    >>> get_reduction("sptr", device="gh200", threads_per_block=512)
    """
    try:
        cls = _CLASSES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown reduction {name!r}; known: {sorted(_CLASSES)}"
        ) from None
    return cls(device, **kwargs)


def properties_table() -> list[ReductionProperties]:
    """Static metadata of all strategies — regenerates the paper's Table 2."""
    return [_CLASSES[name].properties for name in REDUCTION_NAMES]
