"""Parallel-execution, caching, job, farm and CLI utilities."""

from .results import (
    save_result,
    load_result,
    code_fingerprint,
    experiment_fingerprint,
    result_digest,
    cache_key,
    ResultCache,
)
from .parallel import ShardedExecutor, default_workers
from .jobs import JobSpec, JobOutcome, CellOutcome, JobRunner, device_overrides_for
from .farm import (
    FarmCell,
    FarmReport,
    DriftEntry,
    SweepFarm,
    plan_grid,
    load_pins,
)

__all__ = [
    "JobSpec",
    "JobOutcome",
    "CellOutcome",
    "JobRunner",
    "device_overrides_for",
    "save_result",
    "load_result",
    "code_fingerprint",
    "experiment_fingerprint",
    "result_digest",
    "cache_key",
    "ResultCache",
    "ShardedExecutor",
    "default_workers",
    "FarmCell",
    "FarmReport",
    "DriftEntry",
    "SweepFarm",
    "plan_grid",
    "load_pins",
]
