"""Result persistence: JSON archives and a content-addressed result cache.

Archives (:func:`save_result`) are plain JSON snapshots of one
:class:`~repro.experiments.base.ExperimentResult`; the filename carries
the experiment id, scale **and seed**, so archiving the same experiment
under several seeds never silently overwrites an earlier run.

The cache (:class:`ResultCache`) is content-addressed: the key is the
SHA-256 of ``(experiment id, scale, seed, parameter overrides, code
fingerprint, backend identity)``, where the code fingerprint is
**module-granular** (:mod:`repro.harness.fingerprint`): it hashes exactly
the modules in the experiment's static import closure
(:func:`~repro.harness.fingerprint.experiment_fingerprint`), so an edit
invalidates precisely the experiments that can reach the edited module —
a ``_gnn.py`` edit misses only the GNN tables' keys while every summation
experiment stays hot.  Results that map onto no registered experiment
fall back to the whole-package hash
(:attr:`~repro.harness.fingerprint.Snapshot.fingerprint`).  The
backend identity names the resolved compute backend plus — for the
compiled backend — the kernel-source fingerprint
(:func:`repro.backend.cache_identity`).  Experiments are pure functions of
that tuple — results are replayable from the master seed — so a cache hit
is bit-exactly the result a recompute would produce, and any source change
an experiment could observe invalidates its keys.  Backends produce
identical bits, but key hygiene must not depend on that: a numpy-produced
entry is never served to a compiled run (or vice versa), and a
kernel-source edit invalidates every compiled key.  Corrupted
or mismatched entries are treated as misses (with a warning), never as
errors.

Each entry leads with a compact ``cache`` metadata block (identity,
fingerprints, closure module hashes, payload digest, elapsed seconds) so
the sweep farm (:mod:`repro.harness.farm`) can probe hit/miss state and
detect digest drift (:meth:`ResultCache.contains` /
:meth:`ResultCache.read_meta`) without deserialising result payloads.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path

from ..errors import ConfigurationError, ExperimentError
from ..experiments.base import ExperimentResult
from . import fingerprint as _fingerprint

__all__ = [
    "save_result",
    "experiment_fingerprint",
    "result_digest",
    "cache_key",
    "is_key_shaped",
    "ResultCache",
]

#: Re-export: the module-granular fingerprint the cache keys on.
experiment_fingerprint = _fingerprint.experiment_fingerprint


def _result_from_dict(data: dict, origin) -> ExperimentResult:
    try:
        return ExperimentResult(
            experiment_id=data["experiment_id"],
            title=data["title"],
            scale=data["scale"],
            params=data["params"],
            rows=data["rows"],
            notes=data.get("notes", ""),
            elapsed_s=data.get("elapsed_s", 0.0),
            extra=data.get("extra", {}),
            seed=data.get("seed"),
            meta=data.get("meta", {}),
        )
    except KeyError as exc:
        raise ExperimentError(f"malformed result file {origin}: missing {exc}") from exc


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp file +
    ``os.replace``).

    A bare ``path.write_text`` truncates before writing, so a crash — or a
    concurrent reader in a multi-process ``run-all --workers`` pool sharing
    one directory — can observe a half-written file.  ``os.replace`` is
    atomic on POSIX and Windows within one filesystem, so readers only ever
    see the old complete file or the new complete file.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already replaced/removed
            pass
        raise


def save_result(result: ExperimentResult, directory: str | Path) -> Path:
    """Archive ``result`` as JSON in ``directory``; returns the path.

    The filename is ``<id>_<scale>_seed<seed>.json`` (``<id>_<scale>.json``
    for legacy results that carry no seed), so archives of different seeds
    coexist instead of silently overwriting each other.  The write is
    atomic (:func:`_atomic_write_text`).
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    stem = f"{result.experiment_id}_{result.scale}"
    if result.seed is not None:
        stem += f"_seed{result.seed}"
    path = d / f"{stem}.json"
    _atomic_write_text(path, json.dumps(result.as_dict(), indent=2, default=str))
    return path


# --------------------------------------------------------------------- cache


def _fingerprint_for(experiment_id: str) -> str:
    """Module-granular fingerprint for ``experiment_id``, falling back to
    the whole-package hash for ids outside the experiment registry."""
    snap = _fingerprint.snapshot()
    try:
        return snap.experiment(experiment_id)[1]
    except (ExperimentError, ConfigurationError):
        return snap.fingerprint


def result_digest(result: ExperimentResult) -> str:
    """Canonical SHA-256 of a result's scientific payload.

    Hashes exactly the ``{rows, extra}`` serialisation the golden-pin
    suite (``tests/test_golden_experiments.py``) hashes, so farm drift
    digests and golden pins live in one digest space.  Stable across a
    JSON round-trip (floats serialise shortest-round-trip), so a cached
    result and the run that produced it share one digest.
    """
    blob = json.dumps(
        {"rows": result.rows, "extra": result.extra},
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _canonical_override(value, path: str):
    """Map one override value onto the canonical JSON-value domain.

    ``json.dumps(..., default=str)`` silently stringified anything
    non-JSON, so distinct values could collide into one key
    (``np.float64(2)`` vs the string ``"2.0"``) or produce repr-dependent
    keys (a ``DeviceSpec``'s dataclass repr).  Canonicalization is
    strict instead: booleans, ints, floats, strings and ``None`` pass
    through (NumPy scalars collapse onto their Python equivalents, so
    ``np.float64(2.0)`` and ``2.0`` share a key — they resolve to the
    same experiment parameters), sequences become lists, mappings must
    have string keys, and anything else raises
    :class:`~repro.errors.ConfigurationError` naming the offending entry.
    """
    import numpy as np

    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        if isinstance(value, np.ndarray) and value.ndim == 0:
            return _canonical_override(value[()], path)
        return [
            _canonical_override(v, f"{path}[{i}]") for i, v in enumerate(value)
        ]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise ConfigurationError(
                    f"cache_key override {path}: mapping keys must be str, "
                    f"got {type(k).__name__}"
                )
            out[k] = _canonical_override(v, f"{path}[{k!r}]")
        return out
    raise ConfigurationError(
        f"cache_key override {path}: cannot canonicalize "
        f"{type(value).__name__} values (use ints/floats/str/bool/None, "
        "sequences or str-keyed mappings)"
    )


def cache_key(
    experiment_id: str,
    scale: str,
    seed: int,
    overrides: dict | None = None,
    *,
    fingerprint: str | None = None,
) -> str:
    """Content address of one experiment invocation.

    Override values are canonicalized (:func:`_canonical_override`) so
    equal parameter sets share one key regardless of spelling (tuple vs
    list, NumPy scalar vs Python scalar) and non-serialisable values fail
    loudly instead of keying on their repr.

    The default ``fingerprint`` is the **experiment's own**
    (:func:`experiment_fingerprint` over its static import closure) —
    keys of experiments that cannot observe an edit survive it.  Pass
    ``fingerprint`` explicitly to pin a key to a specific code state
    (tests; the farm's previous-generation probes).

    The default is derived from the process's pinned snapshot
    (:func:`repro.harness.fingerprint.snapshot`): after the first key, a
    key costs dictionary lookups and touches no file.  A process keys
    the tree it pinned — the code it is running — so an on-disk edit
    leaves its keys unchanged, and a restart picks the edit up.
    """
    from .. import backend as _backend

    doc = {
        "experiment_id": experiment_id,
        "scale": scale,
        "seed": int(seed),
        "overrides": {
            k: _canonical_override(v, k) for k, v in (overrides or {}).items()
        },
        "code_fingerprint": fingerprint or _fingerprint_for(experiment_id),
        "backend": _backend.cache_identity(),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def is_key_shaped(name: str) -> bool:
    """``True`` iff ``name`` has the shape of a :func:`cache_key` (64
    lowercase hex digits) — and so cannot name a path outside the cache
    directory."""
    return len(name) == 64 and all(c in "0123456789abcdef" for c in name)


class ResultCache:
    """Content-addressed store of experiment results under one directory.

    Entries are ``<key>.json`` documents holding the result plus a
    ``cache`` metadata block (key, seed, fingerprint, creation time).
    Lookups verify the stored key; corrupted, truncated or mismatched
    entries degrade to a miss with a :class:`UserWarning` so a damaged
    cache can never poison results — the caller simply recomputes.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._gc_done = False

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    #: Initial read when probing an entry's leading ``cache`` metadata
    #: block.  Metadata (including a full closure-module hash map)
    #: usually stays well under this; when it doesn't, the probe grows
    #: the read geometrically until the block decodes — a fixed bound
    #: here used to turn oversized-metadata entries into permanent
    #: misses that the farm kept re-dispatching.
    _META_PROBE_BYTES = 262_144

    def read_meta(self, key: str) -> dict | None:
        """The ``cache`` metadata block for ``key`` — without the payload.

        Reads :attr:`_META_PROBE_BYTES` from the head of the entry (the
        metadata block is serialised first) and decodes just the embedded
        ``"cache"`` object; if the block is truncated at the window edge,
        the read grows geometrically (never JSON-parsing the payload as a
        whole) until the object decodes or the file ends.  A head window
        with no ``"cache"`` marker at all is provably not a well-formed
        entry — the payload starts after the metadata block — so the
        probe stops without scanning further.  Returns ``None`` for
        missing, corrupted or key-mismatched entries — the probe never
        warns, because the caller's next step (a full :meth:`lookup`, or
        a recompute) handles the miss.
        """
        path = self.path_for(key)
        try:
            with open(path, "r") as fh:
                head = fh.read(self._META_PROBE_BYTES)
                if '"cache"' not in head:
                    return None
                meta = self._decode_meta(head)
                while meta is None:
                    chunk = fh.read(3 * len(head))
                    if not chunk:
                        break
                    head += chunk
                    meta = self._decode_meta(head)
        except OSError:
            return None
        if not isinstance(meta, dict) or meta.get("key") != key:
            return None
        return meta

    @staticmethod
    def _decode_meta(head: str) -> dict | None:
        """Decode the leading ``"cache": {...}`` object from an entry head."""
        marker = head.find('"cache"')
        if marker < 0:
            return None
        start = head.find("{", marker)
        if start < 0:
            return None
        try:
            meta, _ = json.JSONDecoder().raw_decode(head, start)
        except ValueError:
            return None
        return meta if isinstance(meta, dict) else None

    def contains(self, key: str) -> bool:
        """Metadata-only hit probe: ``True`` iff a well-formed entry for
        ``key`` exists.  The farm probes thousands of grid cells through
        this before touching a worker; like :meth:`lookup`, a positive
        probe refreshes the entry's mtime so probed-hot entries survive
        the age GC.
        """
        if self.read_meta(key) is None:
            return False
        try:
            self.path_for(key).touch()
        except OSError:  # pragma: no cover - read-only cache
            pass
        return True

    def iter_meta(self):
        """Yield the metadata block of every key-shaped entry.

        The farm's previous-generation scan: one pass over the directory,
        reading only metadata heads, never payloads.  Malformed entries
        are skipped silently (they degrade to lookup-time misses).
        """
        try:
            entries = sorted(self.directory.glob("*.json"))
        except OSError:  # pragma: no cover - vanished directory
            return
        for path in entries:
            if not is_key_shaped(path.stem):
                continue
            meta = self.read_meta(path.stem)
            if meta is not None:
                yield meta

    def lookup(self, key: str) -> ExperimentResult | None:
        """Return the cached result for ``key``, or ``None`` on a miss.

        An entry that vanishes between a :meth:`contains` probe and the
        payload read here (age GC, a concurrent process pruning the
        directory) is a **clean** miss — no warning, no
        ``FileNotFoundError`` — so callers racing the filesystem (a
        daemon under traffic, two farm processes sharing a cache) simply
        recompute.  Only entries that *exist but cannot be served*
        (corruption, key mismatch) warn.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None  # deleted since the probe: a clean miss
        except OSError:
            return None  # unreadable (permissions, transient IO): miss
        try:
            data = json.loads(text)
            if data["cache"]["key"] != key:
                raise ValueError("cache key mismatch")
            result = _result_from_dict(data["result"], path)
        except (ValueError, KeyError, TypeError, ExperimentError) as exc:
            warnings.warn(
                f"corrupted result-cache entry {path} ({exc}); recomputing",
                UserWarning,
                stacklevel=2,
            )
            return None
        try:
            path.touch()  # refresh mtime: hits keep an entry alive past the GC
        except OSError:  # pragma: no cover - read-only cache
            pass
        result.meta = dict(result.meta, cache_key=key)
        return result

    #: Entries untouched for this long are garbage-collected on store.
    max_age_days: float = 30.0

    def _gc_old_entries(self) -> None:
        """Age-bound the cache directory (runs once per instance).

        Keys embed the code fingerprint, so entries of edited code are
        unreachable until that exact source state returns — but it *can*
        return (branch switches, reverts), so staleness is judged by age,
        not fingerprint: key-shaped entries not stored for
        ``max_age_days`` are dropped.  Lookups refresh an entry's mtime,
        keeping actively used results alive.  mtime-only (no JSON parse),
        and at most one directory scan per :class:`ResultCache` instance,
        so ``run-all`` pays it once.

        ``.<name>.*.tmp`` files are :func:`_atomic_write_text` temps; a
        writer that crashed between ``mkstemp`` and ``os.replace`` leaks
        one, and nothing else ever references it, so old temps are
        collected on the same cutoff (a live writer's temp is seconds
        old and untouched).
        """
        if self._gc_done:
            return
        self._gc_done = True
        cutoff = time.time() - self.max_age_days * 86400.0
        for path in self.directory.glob("*.json"):
            if not is_key_shaped(path.stem):
                continue
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:  # pragma: no cover - concurrent gc
                pass
        for path in self.directory.glob(".*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:  # pragma: no cover - concurrent gc
                pass

    def store(
        self,
        key: str,
        result: ExperimentResult,
        *,
        overrides: dict | None = None,
        digest: str | None = None,
    ) -> Path:
        """Write ``result`` under ``key``; age-GCs the directory once per
        instance (:meth:`_gc_old_entries`); returns the entry path.

        The entry's leading metadata block records the full cell identity
        (id, scale, seed, canonical ``overrides``), both fingerprints,
        the closure's per-module hashes, the payload digest (``digest``
        when the caller already took :func:`result_digest` of ``result``)
        and the elapsed wall-clock — everything the farm needs for hit
        probes and previous-generation drift comparison (which modules
        moved, did the bits move), all without parsing a single payload.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        self._gc_old_entries()
        snap = _fingerprint.snapshot()
        try:
            modules, exp_fp = snap.experiment(result.experiment_id)
        except (ExperimentError, ConfigurationError):
            exp_fp, modules = None, None  # unregistered id: coarse key only
        entry = {
            "cache": {
                "key": key,
                "experiment_id": result.experiment_id,
                "scale": result.scale,
                "seed": result.seed,
                "overrides": {
                    k: _canonical_override(v, k)
                    for k, v in (overrides or {}).items()
                },
                "code_fingerprint": snap.fingerprint,
                "experiment_fingerprint": exp_fp,
                "digest": result_digest(result) if digest is None else digest,
                "elapsed_s": result.elapsed_s,
                "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "modules": modules,
            },
            "result": result.as_dict(),
        }
        path = self.path_for(key)
        # Atomic: concurrent run-all --workers pools share one cache
        # directory, and a reader racing a bare write_text would degrade
        # to a spurious corruption warning + recompute.
        _atomic_write_text(path, json.dumps(entry, indent=2, default=str))
        return path
