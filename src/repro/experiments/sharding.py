"""Shard/merge protocol for the parallel experiment executor.

An experiment whose run axis is shardable (see
:class:`~repro.experiments.base.ShardableExperiment`) splits its ``R``
simulated runs into windows ``[lo, hi)``, evaluates each window as an
independent **shard payload**, and merges the payloads back into the
serial payload *bit-exactly* — the serial path itself is the one-shard
special case, so sharded and serial results are the same code running on
the same bits.

A payload is a (possibly nested) structure of dicts and lists whose
leaves are the tagged merge values below.  Merging is shard-order
concatenation/reduction per leaf:

:class:`RunConcat`
    An array carrying the shard's run window along ``axis``; shards merge
    by ``np.concatenate`` in shard order, reproducing the serial array's
    layout (and therefore every downstream reduction's bits — NumPy
    reductions depend only on length, dtype and contiguity).
:class:`RunList`
    A Python list with one entry per run; shards merge by ``+``.
:class:`DigestSet`
    A set of content digests (e.g. SHA-256 of per-run output bytes);
    shards merge by set union — the bit-exact carrier for "number of
    bitwise-unique outputs" statistics and golden-hash bookkeeping
    without shipping whole outputs between processes.
:class:`Invariant`
    A value every shard must compute identically (references,
    deterministic baselines, parameter echoes); merging asserts bitwise
    equality and keeps the first.

:func:`run_digest` is the canonical content hash used for uniqueness
counting across process boundaries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import ExperimentError

__all__ = [
    "RunConcat",
    "RunList",
    "DigestSet",
    "Invariant",
    "run_digest",
    "plan_shards",
    "merge_payloads",
]


def run_digest(arr) -> str:
    """SHA-256 of one run output's exact bytes.

    The cross-process stand-in for ``output.tobytes()`` identity: counting
    distinct digests equals counting distinct bit patterns (up to SHA-256
    collisions), without shipping the outputs themselves between workers.
    """
    a = np.ascontiguousarray(np.asarray(arr))
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def plan_shards(total: int, n_shards: int, *, min_per_shard: int = 1) -> list[tuple[int, int]]:
    """Partition ``[0, total)`` into at most ``n_shards`` contiguous windows.

    Windows are balanced (sizes differ by at most one, larger windows
    first) and never smaller than ``min_per_shard`` — the shard count is
    reduced instead.  Returns the list of ``(lo, hi)`` pairs in run order.
    """
    if total < 0:
        raise ExperimentError(f"total must be >= 0, got {total}")
    if n_shards < 1:
        raise ExperimentError(f"n_shards must be >= 1, got {n_shards}")
    if min_per_shard < 1:
        raise ExperimentError(f"min_per_shard must be >= 1, got {min_per_shard}")
    if total == 0:
        return [(0, 0)]
    n = min(n_shards, max(1, total // min_per_shard))
    base, rem = divmod(total, n)
    bounds = [0]
    for k in range(n):
        bounds.append(bounds[-1] + base + (1 if k < rem else 0))
    return [(bounds[k], bounds[k + 1]) for k in range(n)]


@dataclass
class RunConcat:
    """Array whose ``axis`` is the run window; merged by concatenation."""

    value: np.ndarray
    axis: int = 0

    def merge(self, other: "RunConcat") -> "RunConcat":
        if self.axis != other.axis:
            raise ExperimentError(
                f"RunConcat axis mismatch: {self.axis} vs {other.axis}"
            )
        return RunConcat(
            np.concatenate([self.value, other.value], axis=self.axis), self.axis
        )

    def finish(self) -> np.ndarray:
        return self.value


@dataclass
class RunList:
    """Python list with one entry per run; merged by concatenation."""

    value: list

    def merge(self, other: "RunList") -> "RunList":
        return RunList(list(self.value) + list(other.value))

    def finish(self) -> list:
        return self.value


@dataclass
class DigestSet:
    """Set of content digests; merged by union."""

    value: frozenset

    def __init__(self, digests) -> None:
        self.value = frozenset(digests)

    def merge(self, other: "DigestSet") -> "DigestSet":
        return DigestSet(self.value | other.value)

    def finish(self) -> frozenset:
        return self.value


def _bits_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
        )
    return a == b


@dataclass
class Invariant:
    """Shard-invariant value; merging asserts bitwise equality."""

    value: object

    def merge(self, other: "Invariant") -> "Invariant":
        if not _bits_equal(self.value, other.value):
            raise ExperimentError(
                "shards disagree on an Invariant payload value — the shard "
                "derivation violated the run-offset contract"
            )
        return self

    def finish(self):
        return self.value


_MERGEABLE = (RunConcat, RunList, DigestSet, Invariant)


def _merge_value(a, b):
    if isinstance(a, _MERGEABLE):
        if type(a) is not type(b):
            raise ExperimentError(
                f"shard payloads disagree on merge kind: "
                f"{type(a).__name__} vs {type(b).__name__}"
            )
        return a.merge(b)
    if isinstance(a, dict):
        if not isinstance(b, dict) or set(a) != set(b):
            raise ExperimentError("shard payload dicts have mismatched keys")
        return {k: _merge_value(a[k], b[k]) for k in a}
    if isinstance(a, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            raise ExperimentError("shard payload sequences have mismatched length")
        merged = [_merge_value(x, y) for x, y in zip(a, b)]
        return type(a)(merged)
    raise ExperimentError(
        f"shard payload leaf of type {type(a).__name__} is not a tagged "
        "merge value (RunConcat / RunList / DigestSet / Invariant)"
    )


def _finish_value(v):
    if isinstance(v, _MERGEABLE):
        return v.finish()
    if isinstance(v, dict):
        return {k: _finish_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return type(v)(_finish_value(x) for x in v)
    # Reject untagged leaves in the one-shard case too, so the serial path
    # exercises exactly the structure the multi-shard merge requires.
    raise ExperimentError(
        f"shard payload leaf of type {type(v).__name__} is not a tagged "
        "merge value (RunConcat / RunList / DigestSet / Invariant)"
    )


def merge_payloads(parts: list) -> dict:
    """Fold shard payloads (in shard order) into the serial payload.

    ``parts`` must be non-empty and ordered by run window.  The result has
    every tagged leaf replaced by its merged, unwrapped value — exactly
    the structure a single ``[0, R)`` shard would produce.
    """
    if not parts:
        raise ExperimentError("merge_payloads needs at least one shard payload")
    merged = parts[0]
    for nxt in parts[1:]:
        merged = _merge_value(merged, nxt)
    return _finish_value(merged)
