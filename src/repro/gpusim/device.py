"""Device specifications for the execution and cost models.

Each :class:`DeviceSpec` captures the handful of microarchitectural numbers
that determine (a) how many thread blocks can be resident simultaneously —
which shapes the family of addition orders a non-deterministic kernel can
produce — and (b) the analytic cost model's throughput terms.

Bandwidth and throughput values are public datasheet numbers; the
``sched_jitter`` and per-implementation efficiency factors (see
:mod:`repro.gpusim.costmodel`) are calibrated so the *shape* of the paper's
Tables 4/6/8 is reproduced (who wins, by roughly what factor).  The
calibration is documented in DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DeviceError

__all__ = ["DeviceSpec", "register_device", "get_device", "list_devices"]


@dataclass(frozen=True)
class DeviceSpec:
    """Immutable description of a (simulated) accelerator.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"v100"``.
    vendor:
        ``"nvidia"``, ``"amd"``, ``"cpu"`` or ``"groq"``.
    num_sms:
        Streaming multiprocessors (or CUs / cores).
    max_threads_per_sm:
        Resident-thread limit per SM (occupancy bound).
    max_threads_per_block:
        CUDA launch limit (1024 on all modeled GPUs).
    max_blocks_per_sm:
        Hardware resident-block limit per SM.
    warp_size:
        Threads per warp (32 NVIDIA, 64 AMD wavefront).
    num_gpcs:
        Graphics processing clusters (shader engines on AMD): block
        dispatch round-robins across GPCs first, so the scheduler's
        discrete rotation mode has ``num_gpcs`` values — the granularity
        of the Fig-2 mode mixture.
    shared_mem_per_block:
        Bytes of shared memory available to one block.
    mem_bandwidth_gbs:
        Peak global-memory bandwidth, GB/s.
    atomic_conflict_ns:
        Nanoseconds per serialized same-address FP64 atomicAdd.  This is the
        term that makes AO two orders of magnitude slower than the tree
        reductions.
    kernel_launch_us:
        Host-side launch latency, microseconds.
    d2h_latency_us / d2h_bandwidth_gbs:
        Device-to-host transfer model (TPRC's combine stage).
    cpu_sum_ns_per_elem:
        Host serial-fold cost (TPRC's final reduction).
    sched_jitter:
        Log-normal sigma of block completion time — the knob controlling
        how much reordering the scheduler model produces.
    deterministic:
        ``True`` for statically scheduled hardware (the LPU model); such a
        device's scheduler never permutes anything.
    """

    name: str
    vendor: str
    num_sms: int
    num_gpcs: int = 6
    max_threads_per_sm: int = 2048
    max_threads_per_block: int = 1024
    max_blocks_per_sm: int = 32
    warp_size: int = 32
    shared_mem_per_block: int = 48 * 1024
    mem_bandwidth_gbs: float = 900.0
    atomic_conflict_ns: float = 2.0
    kernel_launch_us: float = 5.0
    d2h_latency_us: float = 10.0
    d2h_bandwidth_gbs: float = 16.0
    cpu_sum_ns_per_elem: float = 1.0
    sched_jitter: float = 0.08
    deterministic: bool = False
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.num_sms < 1:
            raise DeviceError(f"{self.name}: num_sms must be >= 1")
        if self.warp_size < 1:
            raise DeviceError(f"{self.name}: warp_size must be >= 1")
        if self.max_threads_per_block < self.warp_size:
            raise DeviceError(f"{self.name}: max_threads_per_block < warp_size")
        if self.mem_bandwidth_gbs <= 0:
            raise DeviceError(f"{self.name}: mem_bandwidth_gbs must be positive")


_REGISTRY: dict[str, DeviceSpec] = {}


def register_device(spec: DeviceSpec, *, overwrite: bool = False) -> DeviceSpec:
    """Add a device to the global registry (name is lower-cased)."""
    key = spec.name.lower()
    if key in _REGISTRY and not overwrite:
        raise DeviceError(f"device {key!r} already registered")
    _REGISTRY[key] = spec
    return spec


def get_device(name: str) -> DeviceSpec:
    """Look up a registered device by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise DeviceError(
            f"unknown device {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def list_devices() -> list[str]:
    """Names of all registered devices, sorted."""
    return sorted(_REGISTRY)


# --------------------------------------------------------------------------
# Built-in devices.  Datasheet numbers where public; *_ns/jitter calibrated.
#
# The registry spans the paper's measured families (v100 / gh200 / mi250x,
# plus the h100 of Tables 6/8), two architecture extensions for the
# cross-device sweeps (a100, mi300a), a synthetic warp-32-vs-64 ablation
# pair ("warp32"/"warp64") and a host "cpu" profile.  The deterministic
# LPU model ("lpu", zero-jitter statically scheduled pipeline) registers
# itself on ``import repro.lpu`` — the device-sweep experiments import it
# so the zero-variability row is always available.
# --------------------------------------------------------------------------

register_device(
    DeviceSpec(
        name="v100",
        vendor="nvidia",
        num_sms=80,
        max_threads_per_sm=2048,
        warp_size=32,
        mem_bandwidth_gbs=900.0,
        atomic_conflict_ns=2.08,  # calibrated: 872 ms / (100 * 4 194 304 adds)
        kernel_launch_us=6.0,
        cpu_sum_ns_per_elem=1.2,
        sched_jitter=0.08,
    )
)

register_device(
    DeviceSpec(
        name="gh200",
        vendor="nvidia",
        num_sms=132,
        max_threads_per_sm=2048,
        warp_size=32,
        mem_bandwidth_gbs=4000.0,
        atomic_conflict_ns=1.76,  # calibrated: 738.7 ms / (100 * 4 194 304)
        kernel_launch_us=4.0,
        cpu_sum_ns_per_elem=0.8,
        sched_jitter=0.10,
    )
)

register_device(
    DeviceSpec(
        name="h100",
        vendor="nvidia",
        num_sms=114,
        max_threads_per_sm=2048,
        warp_size=32,
        mem_bandwidth_gbs=3350.0,
        atomic_conflict_ns=1.8,
        kernel_launch_us=4.0,
        cpu_sum_ns_per_elem=0.8,
        sched_jitter=0.10,
    )
)

register_device(
    DeviceSpec(
        name="mi250x",
        vendor="amd",
        num_sms=110,  # one GCD
        max_threads_per_sm=2048,
        warp_size=64,
        mem_bandwidth_gbs=1600.0,
        atomic_conflict_ns=2.4,
        kernel_launch_us=8.0,
        cpu_sum_ns_per_elem=1.0,
        sched_jitter=0.12,
    )
)

register_device(
    DeviceSpec(
        name="a100",
        vendor="nvidia",
        num_sms=108,
        max_threads_per_sm=2048,
        warp_size=32,
        mem_bandwidth_gbs=2039.0,
        atomic_conflict_ns=1.9,
        kernel_launch_us=5.0,
        cpu_sum_ns_per_elem=1.0,
        sched_jitter=0.09,
    )
)

register_device(
    DeviceSpec(
        name="mi300a",
        vendor="amd",
        num_sms=228,
        num_gpcs=8,  # XCD granularity: block dispatch rotates per die
        max_threads_per_sm=2048,
        warp_size=64,
        mem_bandwidth_gbs=5300.0,
        atomic_conflict_ns=2.2,
        kernel_launch_us=7.0,
        cpu_sum_ns_per_elem=0.9,
        sched_jitter=0.13,
    )
)

# Warp-width ablation pair: two synthetic profiles identical in every
# number except the warp (wavefront) size, isolating the effect of
# lane-granular atomic retirement on the thread-order experiments.  The
# block-level scheduling model never reads warp_size (occupancy counts
# threads and blocks), so the pair produces bit-identical block
# completion orders from the same streams and diverges only in
# thread/warp retirement granularity — pinned by tests/test_device_axis.py.
for _warp in (32, 64):
    register_device(
        DeviceSpec(
            name=f"warp{_warp}",
            vendor="nvidia" if _warp == 32 else "amd",
            num_sms=96,
            max_threads_per_sm=2048,
            warp_size=_warp,
            mem_bandwidth_gbs=1200.0,
            atomic_conflict_ns=2.0,
            kernel_launch_us=6.0,
            cpu_sum_ns_per_elem=1.0,
            sched_jitter=0.10,
        )
    )

register_device(
    DeviceSpec(
        name="cpu",
        vendor="cpu",
        num_sms=16,
        max_threads_per_sm=2,
        max_threads_per_block=1,
        max_blocks_per_sm=2,
        warp_size=1,
        shared_mem_per_block=0,
        mem_bandwidth_gbs=100.0,
        atomic_conflict_ns=20.0,
        kernel_launch_us=0.5,
        cpu_sum_ns_per_elem=1.0,
        sched_jitter=0.05,
    )
)
