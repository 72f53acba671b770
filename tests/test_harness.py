"""Tests for the results/cache/job-planning/CLI harness."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import get_experiment
from repro.harness import (
    ResultCache,
    cache_key,
    code_fingerprint,
    experiment_fingerprint,
    load_result,
    result_digest,
    save_result,
)
from repro.harness.cli import build_parser, main
from repro.harness.jobs import JobRunner, JobSpec
from repro.runtime import RunContext


class TestResults:
    def test_save_and_load_round_trip(self, tmp_path):
        res = get_experiment("table2").run()
        path = save_result(res, tmp_path)
        assert path.exists()
        loaded = load_result(path)
        assert loaded.experiment_id == "table2"
        assert loaded.rows == res.rows
        assert loaded.seed == res.seed == 0
        assert loaded.meta == res.meta

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_result(tmp_path / "nothing.json")

    def test_malformed_file_raises(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"rows": []}))
        with pytest.raises(ExperimentError):
            load_result(p)

    def test_distinct_seeds_do_not_overwrite(self, tmp_path):
        # Regression: archives used to be keyed by (id, scale) only, so a
        # second seed's result silently clobbered the first.
        exp = get_experiment("table2")
        p1 = save_result(exp.run(ctx=RunContext(seed=1)), tmp_path)
        p2 = save_result(exp.run(ctx=RunContext(seed=2)), tmp_path)
        assert p1 != p2
        assert p1.exists() and p2.exists()
        assert "seed1" in p1.name and "seed2" in p2.name
        assert load_result(p1).seed == 1
        assert load_result(p2).seed == 2

    def test_legacy_result_without_seed_loads(self, tmp_path):
        res = get_experiment("table2").run()
        doc = res.as_dict()
        del doc["seed"], doc["meta"]
        p = tmp_path / "legacy.json"
        p.write_text(json.dumps(doc, default=str))
        loaded = load_result(p)
        assert loaded.seed is None
        assert loaded.meta == {}


class TestResultCache:
    def _result(self, seed=0, **overrides):
        return get_experiment("table2").run(ctx=RunContext(seed=seed), **overrides)

    def test_hit_round_trips_result_and_metadata(self, tmp_path):
        cache = ResultCache(tmp_path)
        res = self._result()
        key = cache_key("table2", "default", 0)
        cache.store(key, res)
        hit = cache.lookup(key)
        assert hit is not None
        assert hit.rows == res.rows
        assert hit.seed == 0
        assert hit.meta["cache_key"] == key
        entry = json.loads(cache.path_for(key).read_text())
        assert entry["cache"]["experiment_id"] == "table2"
        assert entry["cache"]["code_fingerprint"] == code_fingerprint()

    def test_miss_on_seed_scale_and_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        cache.store(key, self._result())
        assert cache.lookup(cache_key("table2", "default", 1)) is None
        assert cache.lookup(cache_key("table2", "paper", 0)) is None
        assert cache.lookup(cache_key("table1", "default", 0)) is None
        # A code edit changes the fingerprint and misses every old key.
        other = cache_key("table2", "default", 0, fingerprint="f" * 64)
        assert other != key
        assert cache.lookup(other) is None

    def test_overrides_change_the_key(self):
        base = cache_key("fig4", "default", 0)
        assert cache_key("fig4", "default", 0, {"n_runs": 3}) != base

    def test_override_canonicalization_equates_equal_values(self):
        # Regression: json.dumps(default=str) keyed NumPy scalars on their
        # repr, so np.float64(2.0) and 2.0 produced different keys for the
        # same experiment invocation (and vice versa could collide
        # distinct values onto one string).
        base = cache_key("fig4", "default", 0, {"cond": 2.0, "n_runs": 3})
        assert cache_key(
            "fig4", "default", 0, {"cond": np.float64(2.0), "n_runs": np.int32(3)}
        ) == base
        # Sequences canonicalize to lists: tuple spelling is irrelevant.
        assert cache_key("figS1", "default", 0, {"devices": ("v100", "lpu")}) == \
            cache_key("figS1", "default", 0, {"devices": ["v100", "lpu"]})
        assert cache_key(
            "figS1", "default", 0, {"devices": np.array(["v100", "lpu"])}
        ) == cache_key("figS1", "default", 0, {"devices": ("v100", "lpu")})

    def test_override_canonicalization_distinguishes_types(self):
        # int 2 and float 2.0 resolve different parameter values.
        assert cache_key("fig4", "default", 0, {"x": 2}) != \
            cache_key("fig4", "default", 0, {"x": 2.0})
        assert cache_key("fig4", "default", 0, {"x": True}) != \
            cache_key("fig4", "default", 0, {"x": 1})

    def test_non_canonicalizable_override_raises(self):
        from repro.gpusim.device import get_device

        with pytest.raises(ConfigurationError, match="device.*DeviceSpec"):
            cache_key("fig4", "default", 0, {"device": get_device("v100")})
        with pytest.raises(ConfigurationError, match=r"opts\['fn'\]"):
            cache_key("fig4", "default", 0, {"opts": {"fn": lambda: None}})
        with pytest.raises(ConfigurationError, match="keys must be str"):
            cache_key("fig4", "default", 0, {"opts": {3: "x"}})

    def test_corrupted_entry_warns_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        cache.store(key, self._result())
        cache.path_for(key).write_text("{not json")
        with pytest.warns(UserWarning, match="corrupted result-cache entry"):
            assert cache.lookup(key) is None

    def test_deleted_entry_is_a_clean_miss(self, tmp_path):
        # Race hardening: an entry can vanish between a ``contains``
        # probe and the payload read (age GC, another process pruning
        # the shared directory).  The read must degrade to a clean miss
        # — no FileNotFoundError, and no corruption warning either,
        # since nothing is corrupt.  The deletion happens in a real
        # second process, as it would under two farm runs or a daemon
        # sharing one cache directory.
        import subprocess
        import sys
        import warnings

        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        path = cache.store(key, self._result())
        assert cache.contains(key)  # probe says hit ...
        subprocess.run(
            [sys.executable, "-c", f"import os; os.unlink({str(path)!r})"],
            check=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            assert cache.lookup(key) is None  # ... read is a clean miss
            assert cache.read_meta(key) is None
            assert not cache.contains(key)

    def test_key_mismatch_inside_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        path = cache.store(key, self._result())
        doc = json.loads(path.read_text())
        doc["cache"]["key"] = "0" * 64
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning):
            assert cache.lookup(key) is None

    def test_fingerprint_is_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_store_garbage_collects_old_entries(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        res = self._result()
        old = 2 * cache.max_age_days * 86400.0
        # An entry last used far past the age bound (e.g. an unreachable
        # key from a long-gone code revision) is dropped on store ...
        stale_key = cache_key("table2", "default", 9, fingerprint="e" * 64)
        stale_path = cache.store(stale_key, res)
        os.utime(stale_path, times=(stale_path.stat().st_atime,
                                    stale_path.stat().st_mtime - old))
        # ... and so is an old key-shaped garbage file; but a recent entry
        # of a *different* fingerprint survives (branch switches may bring
        # its code state — and therefore its key — back), as does any
        # non-key file.
        junk = tmp_path / ("f" * 64 + ".json")
        junk.write_text("{broken")
        os.utime(junk, times=(junk.stat().st_atime, junk.stat().st_mtime - old))
        recent_other = cache.store(cache_key("table2", "default", 8, fingerprint="d" * 64), res)
        keep = tmp_path / "notes.json"
        keep.write_text("{}")
        os.utime(keep, times=(keep.stat().st_atime, keep.stat().st_mtime - old))
        fresh_cache = ResultCache(tmp_path)  # GC runs once per instance
        live_key = cache_key("table2", "default", 0)
        fresh_cache.store(live_key, res)
        assert not stale_path.exists()
        assert not junk.exists()
        assert recent_other.exists()
        assert keep.exists()
        assert fresh_cache.lookup(live_key) is not None

    def test_gc_reaps_orphaned_tmp_files(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        old = 2 * cache.max_age_days * 86400.0
        # A crashed writer's temp file (atomic-write naming:
        # ".{name}.json.{rand}.tmp") past the age bound is reaped by GC;
        # a fresh one — possibly a live concurrent writer — is kept.
        orphan = tmp_path / ("." + "a" * 64 + ".json.k3j2x9.tmp")
        orphan.write_text("{partial")
        os.utime(orphan, times=(orphan.stat().st_atime,
                                orphan.stat().st_mtime - old))
        fresh = tmp_path / ("." + "b" * 64 + ".json.m1q8z4.tmp")
        fresh.write_text("{partial")
        fresh_cache = ResultCache(tmp_path)  # GC runs once per instance
        fresh_cache.store(cache_key("table2", "default", 0), self._result())
        assert not orphan.exists()
        assert fresh.exists()

    def test_lookup_refreshes_entry_mtime(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        path = cache.store(key, self._result())
        os.utime(path, times=(path.stat().st_atime, path.stat().st_mtime - 3600.0))
        before = path.stat().st_mtime
        assert cache.lookup(key) is not None
        assert path.stat().st_mtime > before

    def test_store_and_save_leave_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        res = self._result()
        cache.store(cache_key("table2", "default", 0), res)
        save_result(res, tmp_path / "archive")
        leftovers = [
            p for p in (tmp_path / "cache").iterdir() if p.suffix == ".tmp"
        ] + [p for p in (tmp_path / "archive").iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestCacheMetadataProbes:
    """The farm-facing metadata surface: ``read_meta`` / ``contains`` /
    ``iter_meta`` answer hit and drift questions from entry heads only."""

    def _result(self, seed=0, **overrides):
        return get_experiment("table2").run(ctx=RunContext(seed=seed), **overrides)

    def test_read_meta_records_the_cell_identity(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0, {"n_rows": (1, 2)})
        res = self._result()
        cache.store(key, res, overrides={"n_rows": (1, 2)})
        meta = cache.read_meta(key)
        assert meta["key"] == key
        assert meta["experiment_id"] == "table2"
        assert meta["scale"] == "default" and meta["seed"] == 0
        assert meta["overrides"] == {"n_rows": [1, 2]}  # canonical JSON form
        assert meta["digest"] == result_digest(res)
        assert meta["experiment_fingerprint"] == experiment_fingerprint("table2")
        assert meta["modules"]["repro.experiments.table2"]
        assert "rows" not in meta  # metadata, never payload

    def test_read_meta_probe_reads_only_the_head(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        path = cache.store(key, self._result())
        # Truncating the payload tail of the entry must not bother the
        # probe: the metadata block leads the document.
        text = path.read_text()
        path.write_text(text[:-100])
        assert cache.read_meta(key) is not None
        with pytest.warns(UserWarning, match="corrupted"):
            assert cache.lookup(key) is None  # full parse (rightly) fails

    def test_read_meta_misses_are_none_and_quiet(self, tmp_path):
        import warnings

        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.read_meta(key) is None  # absent
            cache.path_for(key).write_text("not json")
            assert cache.read_meta(key) is None  # corrupted
            assert cache.contains(key) is False

    def test_read_meta_grows_past_the_probe_window(self, tmp_path):
        # A metadata block larger than the initial probe window must
        # still hit: the read grows adaptively instead of degrading to a
        # permanent miss the farm would keep re-dispatching.
        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        cache.store(key, self._result())
        cache._META_PROBE_BYTES = 64  # shrink the window on this instance
        meta = cache.read_meta(key)
        assert meta is not None and meta["key"] == key
        assert cache.contains(key) is True

    def test_read_meta_oversized_metadata_block_hits(self, tmp_path):
        # Same property at the real window size: a closure-module map
        # (or any metadata) pushing the cache block past 262KB.
        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        pad = {f"mod{i:05d}": "f" * 64 for i in range(4000)}
        entry = {"cache": {"key": key, "modules": pad}, "result": {"rows": []}}
        text = json.dumps(entry, indent=2)
        assert len(text) > cache._META_PROBE_BYTES
        cache.path_for(key).write_text(text)
        meta = cache.read_meta(key)
        assert meta is not None and meta["key"] == key

    def test_read_meta_stops_without_a_cache_marker(self, tmp_path):
        # A big file whose head window carries no "cache" marker is
        # provably not a well-formed entry: the probe must answer None
        # without scanning the rest.
        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        cache.path_for(key).write_text(
            '{"rows": [' + ", ".join(["1"] * 200_000) + "]}"
        )
        assert cache.read_meta(key) is None

    def test_read_meta_rejects_key_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        other = cache_key("table2", "default", 1)
        path = cache.store(key, self._result())
        path.rename(cache.path_for(other))  # entry claims the wrong key
        assert cache.read_meta(other) is None

    def test_contains_refreshes_entry_mtime(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        key = cache_key("table2", "default", 0)
        path = cache.store(key, self._result())
        os.utime(path, times=(path.stat().st_atime, path.stat().st_mtime - 3600.0))
        before = path.stat().st_mtime
        assert cache.contains(key) is True
        assert path.stat().st_mtime > before  # probed-hot entries survive GC

    def test_iter_meta_yields_only_wellformed_key_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        k1 = cache_key("table2", "default", 0)
        k2 = cache_key("table2", "default", 1)
        cache.store(k1, self._result())
        cache.store(k2, self._result(seed=1))
        (tmp_path / "notes.json").write_text("{}")  # not key-shaped
        (tmp_path / ("f" * 64 + ".json")).write_text("garbage")  # corrupt
        keys = {meta["key"] for meta in cache.iter_meta()}
        assert keys == {k1, k2}

    def test_unregistered_id_falls_back_to_package_fingerprint(self, tmp_path):
        from repro.experiments.base import ExperimentResult

        cache = ResultCache(tmp_path)
        res = ExperimentResult(
            experiment_id="not-registered", title="t", scale="default",
            params={}, rows=[{"v": 1}], seed=0,
        )
        key = cache_key("not-registered", "default", 0)
        cache.store(key, res)
        meta = cache.read_meta(key)
        assert meta["experiment_fingerprint"] is None
        assert meta["modules"] is None
        assert meta["code_fingerprint"] == code_fingerprint()
        assert cache.lookup(key) is not None


def _race_writer(directory: str, key: str, n_stores: int) -> None:
    """Worker: repeatedly store a sizeable entry under one shared key."""
    from repro.experiments.base import ExperimentResult
    from repro.harness import ResultCache

    result = ExperimentResult(
        experiment_id="race", title="cache race probe", scale="default",
        params={"n": 1}, rows=[{"v": float(i)} for i in range(64)],
        extra={"pad": "x" * 200_000}, seed=0,
    )
    cache = ResultCache(directory)
    for _ in range(n_stores):
        cache.store(key, result)


class TestResultCacheConcurrency:
    def test_concurrent_stores_never_expose_partial_entries(self, tmp_path):
        """Two processes hammering one key while this process reads.

        Regression: a bare ``path.write_text`` truncates in place, so a
        reader racing a writer saw half-written JSON — masked as a
        corruption warning + recompute.  With the same-directory temp
        file + ``os.replace``, every lookup observes a miss or a complete
        entry, never a warning.
        """
        import multiprocessing
        import warnings

        key = "ab" * 32  # key-shaped: 64 hex chars
        mp = multiprocessing.get_context("spawn")
        workers = [
            mp.Process(target=_race_writer, args=(str(tmp_path), key, 12))
            for _ in range(2)
        ]
        for w in workers:
            w.start()
        cache = ResultCache(tmp_path)
        hits = 0
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # any corruption warning fails
                while any(w.is_alive() for w in workers):
                    found = cache.lookup(key)
                    if found is not None:
                        hits += 1
                        assert found.experiment_id == "race"
                        assert len(found.rows) == 64
        finally:
            for w in workers:
                w.join()
        final = cache.lookup(key)
        assert final is not None and final.extra["pad"] == "x" * 200_000
        assert hits > 0  # the reader actually raced the writers


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig5" in out

    def test_run_markdown(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "| method |" in capsys.readouterr().out

    def test_run_json(self, capsys):
        assert main(["run", "table2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment_id"] == "table2"

    def test_run_with_output_dir(self, tmp_path, capsys):
        assert main(["run", "table2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table2_default_seed0.json").exists()

    def test_unknown_experiment_is_error(self, capsys):
        assert main(["run", "tableX"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_uses_cache_on_second_invocation(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["run", "table2", "--json", "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "[cache hit]" in captured.err
        assert json.loads(captured.out)["rows"] == first["rows"]

    def test_no_cache_forces_recompute(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table2", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["run", "table2", "--cache-dir", cache_dir, "--no-cache"]) == 0
        assert "[cache hit]" not in capsys.readouterr().err

    def test_malformed_workers_env_is_a_cli_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert main(["run", "table2", "--no-cache"]) == 1
        assert "REPRO_WORKERS" in capsys.readouterr().err

    def test_malformed_backend_env_is_a_cli_error(self, monkeypatch, capsys):
        from repro.backend import registry

        # Reset the process-wide lazy selection so the env var is re-read.
        monkeypatch.setattr(registry, "_mode", None)
        monkeypatch.setenv("REPRO_BACKEND", "garbage")
        assert main(["run", "table2", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "REPRO_BACKEND" in err and "garbage" in err
        monkeypatch.setattr(registry, "_mode", None)

    def test_workers_flag_parses(self):
        p = build_parser()
        args = p.parse_args(["run-all", "--workers", "4", "--no-cache"])
        assert args.workers == 4 and args.no_cache

    def test_seed_changes_stochastic_results(self, capsys):
        main(["run", "table1", "--json", "--seed", "1"])
        a = json.loads(capsys.readouterr().out)
        main(["run", "table1", "--json", "--seed", "2"])
        b = json.loads(capsys.readouterr().out)
        assert a["rows"] != b["rows"]

    def test_parser_structure(self):
        p = build_parser()
        args = p.parse_args(["run", "fig1", "--scale", "paper"])
        assert args.experiment_id == "fig1" and args.scale == "paper"

    def test_devices_override_errors(self, capsys):
        # Unknown device, no device axis, and multi-name on a
        # single-device experiment all fail fast on `run`.
        assert main(["run", "figS1", "--no-cache", "--devices", "nodev"]) == 1
        assert "unknown device" in capsys.readouterr().err
        assert main(["run", "table2", "--no-cache", "--devices", "v100"]) == 1
        assert "no device parameter" in capsys.readouterr().err
        assert main(["run", "fig2", "--no-cache", "--devices", "v100,gh200"]) == 1
        assert "single device" in capsys.readouterr().err

    def test_devices_override_applies_where_it_fits(self):
        planner = JobRunner(None, None)

        def overrides(eid, devices, *, strict):
            spec = JobSpec(eid, devices=devices)
            return planner.plan_overrides(spec, strict_devices=strict)

        # Device-axis experiments get the tuple; single-device and
        # device-free experiments are left untouched under run-all.
        pair = ("v100", "gh200")
        assert overrides("figS1", pair, strict=False) == {"devices": pair}
        assert overrides("fig2", pair, strict=False) == {}
        assert overrides("table2", pair, strict=False) == {}
        assert overrides("fig2", ("GH200",), strict=True) == {"device": "gh200"}
