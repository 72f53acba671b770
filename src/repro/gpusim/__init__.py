"""Discrete GPU execution model.

The paper's variability results depend on GPU hardware only through **the
order in which floating-point additions retire**.  This package models
exactly that layer:

* :mod:`repro.gpusim.device` — device specifications (V100, GH200, MI250X,
  H100 and the host CPU) with the microarchitectural parameters the order
  and cost models need.
* :mod:`repro.gpusim.occupancy` — resident-block calculations.
* :mod:`repro.gpusim.kernel` — launch-configuration validation (grid/block
  dimensions, shared memory), mirroring CUDA launch semantics.
* :mod:`repro.gpusim.scheduler` — the arrival-time sampler: wave-based block
  dispatch, per-warp issue order, completion jitter, and contention
  serialization.  Non-deterministic reductions sample their addition order
  here.
* :mod:`repro.gpusim.atomics` — atomic accumulation in arrival order, plus
  the retirement-counter (`__threadfence`) primitive used by SPRG/SPTR.
* :mod:`repro.gpusim.stream` — streams with in-order launch semantics and
  host synchronisation points (the TPRC mechanism).
* :mod:`repro.gpusim.costmodel` — analytic timing model calibrated against
  the paper's Table 4 / 6 / 8 measurements.
* :mod:`repro.gpusim.collectives` — multi-device allreduce (ring / tree /
  butterfly) with pluggable message-arrival policies: the cross-device
  layer of the reduction-order story.
"""

from .device import DeviceSpec, get_device, list_devices, register_device
from .occupancy import resident_blocks
from .kernel import LaunchConfig
from .scheduler import WaveScheduler, WaveSchedulerBatch, SchedulerParams
from .atomics import AtomicAccumulator, RetirementCounter, atomic_fold, batched_atomic_fold
from .stream import Stream
from .costmodel import CostModel, TimingSample
from .collectives import (
    Topology,
    RingAllReduce,
    TreeAllReduce,
    ButterflyAllReduce,
    get_topology,
    ArrivalPolicy,
    InOrderArrival,
    UniformArrival,
    LoadSkewedArrival,
    get_arrival_policy,
    arrival_orders,
    collective_fold_runs,
    device_partial_sums_runs,
    allreduce_runs,
)

__all__ = [
    "DeviceSpec",
    "get_device",
    "list_devices",
    "register_device",
    "resident_blocks",
    "LaunchConfig",
    "WaveScheduler",
    "WaveSchedulerBatch",
    "SchedulerParams",
    "AtomicAccumulator",
    "RetirementCounter",
    "atomic_fold",
    "batched_atomic_fold",
    "Stream",
    "CostModel",
    "TimingSample",
    "Topology",
    "RingAllReduce",
    "TreeAllReduce",
    "ButterflyAllReduce",
    "get_topology",
    "ArrivalPolicy",
    "InOrderArrival",
    "UniformArrival",
    "LoadSkewedArrival",
    "get_arrival_policy",
    "arrival_orders",
    "collective_fold_runs",
    "device_partial_sums_runs",
    "allreduce_runs",
]
