"""Experiment-as-a-service: an asyncio daemon over the job core.

The one-shot CLI answers one invocation per process; production scale
means a long-running service.  This package puts a stdlib-only HTTP/JSON
daemon (:mod:`~repro.harness.service.daemon`) on top of the
transport-agnostic job core (:mod:`repro.harness.jobs`) — submissions
admit through a bounded queue with explicit 429 backpressure, cache hits
are answered without touching a worker, and one persistent
:class:`~repro.harness.parallel.ShardedExecutor` serves every job the
daemon ever runs — plus a seeded NHPP load generator
(:mod:`~repro.harness.service.loadgen`) so throughput, tail latency and
hit rate under traffic are pinned benchmarks (``BENCH_0009.json``)
instead of guesses.

Start a daemon (the module is a shim over the CLI's ``serve``: one
parser, one process setup, identical flags)::

    repro-experiments serve --port 8752 --workers 2
    # or: python -m repro.harness.service --port 8752 --workers 2

and talk JSON to it (a job body carries only ``experiment_id``,
``scale``, ``seed``, ``devices`` and ``overrides``; unknown fields and
unknown override names are 400s)::

    POST /jobs            {"experiment_id": "table2", "seed": 1}
    GET  /jobs/<id>       queued/running/done + outcome
    GET  /results/<key>   cache metadata (add ?payload=1 for the result)
    GET  /experiments     the registry
    GET  /stats           throughput, hit rate, queue depth, latency
"""

from .daemon import ExperimentService, JobRecord, ServiceStats, ServiceThread
from .loadgen import (
    ArrivalPolicy,
    ConstantRateArrival,
    PiecewiseConstantNHPP,
    LoadGenerator,
    LoadReport,
)

__all__ = [
    "ExperimentService",
    "JobRecord",
    "ServiceStats",
    "ServiceThread",
    "ArrivalPolicy",
    "ConstantRateArrival",
    "PiecewiseConstantNHPP",
    "LoadGenerator",
    "LoadReport",
]
