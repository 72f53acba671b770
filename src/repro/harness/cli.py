"""Command-line interface: ``repro-experiments``.

Usage::

    repro-experiments list
    repro-experiments run table1 [--scale default|paper] [--seed N]
                                 [--json] [--out DIR] [--devices NAMES]
                                 PROCESS [--no-cache]
    repro-experiments run-all [--scale default] [--seed N] [--out DIR]
                              [--devices NAMES] PROCESS [--no-cache]
    repro-experiments farm [--experiments IDS] [--scales NAMES]
                           [--seeds NS] [--devices NAMES] PROCESS
                           [--pins FILE] [--report-json PATH]
                           [--probe-only] [--fail-on-drift]
    repro-experiments serve [--host HOST] [--port N] [--queue-limit N]
                            PROCESS [--no-cache]

    PROCESS = [--workers N] [--backend MODE] [--cache-dir DIR]

The ``PROCESS`` flags are declared once and mean the same everywhere:
they configure the one process-wide setup every subcommand runs through
(backend selection, result cache, one executor pool for the life of the
process).

Device axis: ``--devices v100,gh200,lpu`` overrides the device list of the
cross-architecture experiments (e.g. ``figS1``, whose report carries one
row per device) or the single device of one-device experiments.  Device
streams are anchored per (device, array) cell, so a subset sweep
reproduces exactly the rows the full sweep produces for those devices.
Override sets are part of the result-cache key.

Parallelism: ``--workers N`` (default: the ``REPRO_WORKERS`` environment
variable, else 1) shards each shardable experiment's simulated runs
across ``N`` worker processes and merges the shards **bit-exactly** —
results are identical to serial execution, only faster.  Non-shardable
experiments run serially regardless of ``--workers``.  Each worker
starts its BLAS/OpenMP thread pools at its share of the usable CPUs
(``cpus // N``, at least 1; an ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` you set wins), so ``N``
workers do not oversubscribe the cores.

Backend: ``--backend numpy|compiled|auto`` (default: the
``REPRO_BACKEND`` environment variable, else ``auto``) selects the
compute backend under the fold primitives.  ``compiled`` runs the cffi C
kernels (:mod:`repro.backend`) and fails loudly when the toolchain is
missing; ``auto`` uses them when available and falls back to NumPy
silently; ``numpy`` pins the pure-NumPy engine.  Backends are
**bit-identical** — same accumulation orders, same intermediate widths —
so the flag changes wall-clock, never results.  Worker processes inherit
the selection through the pool initializer.

Caching: results are content-addressed by (experiment id, scale, seed,
overrides, code fingerprint, backend identity) and reused from
``--cache-dir`` (default: ``$REPRO_CACHE_DIR`` or
``~/.cache/repro-experiments``); ``run`` / ``run-all`` skip cache hits
and ``--no-cache`` forces recomputation.  The code fingerprint is
**module-granular** (:mod:`repro.harness.fingerprint`): each experiment
keys on the hash of exactly the modules in its static import closure, so
an edit invalidates precisely the experiments that can reach the edited
module — touching ``experiments/_gnn.py`` misses only the GNN tables'
keys while every summation experiment stays hot — and stale results are
still never served, because any edit an experiment could observe changes
its fingerprint.  A process keys the tree it pinned at its first key
derivation — the code it is running — so an edit made while ``serve``
or ``run-all`` runs leaves that process's keys unchanged; a restart
picks the edit up.  Backend identity keeps numpy-produced and
compiled-produced entries on distinct keys.  Experiments whose axis
declaration decomposes (seed-ensemble grids, e.g. ``seedens``) cache
**per (seed, device) cell** — growing the grid recomputes only the new
cells.  Hit probes read only the entry's leading metadata block
(:meth:`~repro.harness.results.ResultCache.contains`); payloads are
deserialised once, on the actual hit.

Farm: ``farm`` orchestrates a whole (experiment x scale x seed x device)
grid cache-first (:mod:`repro.harness.farm`): it expands the declared
grid into exactly the cells ``run`` would cache (device names become
per-device cells where the experiment fits them; decomposing experiments
expand through their axis declaration), probes every cell's key with a
metadata-only ``contains`` before touching a worker, runs only the miss
cells, in plan order, on the persistent executor pool, and prints a
consolidated report including **digest drift**: any recomputed cell
whose payload digest differs from the newest previous-generation cache
entry of the same cell identity — or from a ``--pins`` golden digest —
is named together with both digests and the closure modules whose
hashes moved.  A warm re-run of an unchanged grid performs zero
experiment executions; after a single-module edit only the cells whose
experiments reach that module recompute.  ``--probe-only``
reports staleness without dispatching; ``--fail-on-drift`` turns any
drift into a non-zero exit (CI gate); ``--report-json`` archives the
machine-readable report.

Job core: every subcommand above rides one transport-agnostic lifecycle
(:mod:`repro.harness.jobs`).  A submission — CLI flags, a point of a
farm grid, or a service POST body — becomes a
:class:`~repro.harness.jobs.JobSpec`, validated and canonicalised
exactly like the cache-key inputs (override canonicalisation,
lowercased device names, non-negative seeds), and
:meth:`~repro.harness.jobs.JobRunner.plan_cells` turns it into keyed
cache cells: registry validation, device folding, cell decomposition,
one key per cell.  That planner is the only place keys are derived, so
a cell computed by any entry point lands on byte-identical keys and
bit-identical payloads for every other one — a farm or daemon warms the
cache for the CLI and vice versa — and an invalid farm grid point fails
before any cell is dispatched.  ``run`` and ``run-all`` then probe,
dispatch the misses, store and reassemble through
:meth:`~repro.harness.jobs.JobRunner.run`, and print the resulting
per-experiment status (``cached``/``computed [k/n cells]`` +
wall-clock) from the :class:`~repro.harness.jobs.JobOutcome` on stderr.

Service: ``serve`` runs a long-lived stdlib-only asyncio daemon over
the same job core (:mod:`repro.harness.service`);
``python -m repro.harness.service ARGS`` is exactly ``serve ARGS``.
``POST /jobs`` admits into a bounded queue (429 + queue depth when full,
503 while draining) after planning the job, so an unknown experiment,
device or override name, or an override value of the wrong type or out
of range, is a 400 before any work runs; a body names what
to compute (``experiment_id``, ``scale``, ``seed``, ``devices``,
``overrides``) and nothing else — workers and backend are the daemon's
flags.  ``GET /results/<key>`` answers cache keys without touching a
worker, ``GET /stats`` reports throughput, hit rate, queue depth,
latency percentiles, the executor's dispatch/pool counters and the
pinned code identity (package fingerprint and pin time), and
SIGTERM triggers a graceful drain (in-flight and queued jobs finish,
then the sockets close).  One persistent executor pool serves every job
the daemon ever runs.

Environment validation: malformed ``REPRO_WORKERS`` (non-integer or
< 1) and ``REPRO_BACKEND`` (unknown mode) values fail at CLI entry with
configuration errors naming the variable, instead of being silently
ignored or surfacing mid-run.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
from pathlib import Path

from .. import backend as _backend
from ..errors import ConfigurationError, ReproError
from ..experiments import get_experiment, list_experiments, to_json, to_markdown
from .farm import SweepFarm, load_pins, plan_grid
from .jobs import JobRunner, JobSpec
from .parallel import ShardedExecutor
from .results import ResultCache, _atomic_write_text, save_result

__all__ = ["main", "build_parser", "default_cache_dir"]

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-experiments``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-experiments"


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    process = argparse.ArgumentParser(add_help=False)
    process.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes that shard each experiment's runs (default: "
        "$REPRO_WORKERS or 1); merging is bit-exact, so results never "
        "depend on N",
    )
    process.add_argument(
        "--backend", default=None, choices=_backend.MODES,
        help="compute backend under the fold primitives (default: "
        "$REPRO_BACKEND or auto); backends are bit-identical, so this "
        "changes wall-clock, never results",
    )
    process.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-experiments)",
    )
    no_cache = argparse.ArgumentParser(add_help=False)
    no_cache.add_argument(
        "--no-cache", action="store_true",
        help="run without a result cache (every job recomputes)",
    )
    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("--scale", default="default", choices=("default", "paper"))
    run_opts.add_argument("--seed", type=int, default=0)
    run_opts.add_argument(
        "--out", default=None, help="directory to archive the result JSON"
    )
    run_opts.add_argument(
        "--devices", default=None, metavar="NAMES",
        help="comma-separated device list overriding the experiment's "
        "device axis (e.g. --devices a100,mi300a,lpu); a single name also "
        "overrides single-device experiments; run-all applies the list "
        "where it fits (device-axis experiments always, single-device "
        "experiments only for a single name) and leaves the rest untouched",
    )

    p = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run = sub.add_parser(
        "run", parents=[run_opts, process, no_cache], help="run one experiment"
    )
    run.add_argument("experiment_id", help="e.g. table1, fig3, maxvs")
    run.add_argument("--json", action="store_true", help="print JSON instead of markdown")

    sub.add_parser(
        "run-all", parents=[run_opts, process, no_cache], help="run every experiment"
    )

    serve = sub.add_parser(
        "serve", parents=[process, no_cache],
        help="long-running experiment daemon: asyncio HTTP/JSON API over "
        "the job core (POST /jobs, GET /jobs/<id>, GET /results/<key>, "
        "GET /experiments, GET /stats)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8752,
        help="listen port (0 picks an ephemeral one)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        help="max pending jobs before POST /jobs returns 429",
    )

    farm = sub.add_parser(
        "farm", parents=[process],
        help="cache-first orchestration of an (experiment x scale x seed "
        "x device) grid: probe every cell, recompute only the misses, "
        "report digest drift",
    )
    farm.add_argument(
        "--experiments", default=None, metavar="IDS",
        help="comma-separated experiment ids (default: every registered "
        "experiment)",
    )
    farm.add_argument(
        "--scales", default="default", metavar="NAMES",
        help="comma-separated scales for the grid (default: default)",
    )
    farm.add_argument(
        "--seeds", default="0", metavar="NS",
        help="comma-separated master seeds for the grid (default: 0)",
    )
    farm.add_argument(
        "--devices", default=None, metavar="NAMES",
        help="comma-separated device names; each becomes its own grid "
        "cell for every experiment it fits (device-axis experiments run "
        "single-device subsets — bit-identical to the full sweep's rows "
        "under the anchored-plane contract)",
    )
    farm.add_argument(
        "--pins", default=None, metavar="FILE",
        help="JSON file of {cell_id: digest} golden pins; digest "
        "disagreements land in the drift report",
    )
    farm.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the machine-readable farm report here",
    )
    farm.add_argument(
        "--probe-only", action="store_true",
        help="probe the cache and report stale cells without dispatching "
        "any work",
    )
    farm.add_argument(
        "--fail-on-drift", action="store_true",
        help="exit non-zero when any digest drift is detected",
    )
    return p


def _parse_names(raw: str | None, what: str) -> tuple[str, ...]:
    """Split a comma-separated CLI list, rejecting the empty result."""
    if raw is None:
        return ()
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not names:
        raise ConfigurationError(f"{what} needs at least one entry")
    return names


def _job_spec(eid: str, args) -> JobSpec:
    """Translate parsed ``run``/``run-all`` flags into a :class:`JobSpec`.

    Device-name translation (full tuple for device-axis experiments, one
    name for single-device ones, strictness per subcommand) happens in
    the job core (:meth:`~repro.harness.jobs.JobRunner.plan_overrides`),
    which the farm's per-device grid expansion shares.
    """
    return JobSpec(
        experiment_id=eid,
        scale=args.scale,
        seed=args.seed,
        devices=_parse_names(args.devices, "--devices") or None,
    )


def _run_farm(executor, cache, args) -> int:
    """``farm`` subcommand: plan the grid, run it cache-first, report."""
    experiment_ids = _parse_names(args.experiments, "--experiments") or None
    scales = _parse_names(args.scales, "--scales")
    try:
        seeds = tuple(int(s) for s in _parse_names(args.seeds, "--seeds"))
    except ValueError:
        raise ConfigurationError(
            f"--seeds must be comma-separated integers, got {args.seeds!r}"
        ) from None
    devices = _parse_names(args.devices, "--devices") or None
    cells = plan_grid(experiment_ids, scales=scales, seeds=seeds, devices=devices)
    pins = load_pins(args.pins) if args.pins else None
    farm = SweepFarm(cache, executor, pins=pins)
    report = farm.run(cells, probe_only=args.probe_only)
    print(report.to_markdown())
    if args.report_json:
        path = Path(args.report_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic like ResultCache.store: a killed farm must not leave a
        # truncated report for a CI consumer to half-parse.
        _atomic_write_text(path, json.dumps(report.as_dict(), indent=2) + "\n")
        print(f"[report {path}]", file=sys.stderr)
    if args.fail_on_drift and report.drift:
        return 1
    return 0


async def _serve(service) -> None:
    """Serve until a SIGTERM/SIGINT-triggered graceful drain completes."""
    await service.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):  # non-POSIX loops
            loop.add_signal_handler(sig, service.begin_drain)
    # One parseable readiness line; CI and scripts wait on it.
    print(f"[serving http://{service.host}:{service.port} "
          f"queue_limit={service.queue_limit} "
          f"workers={service.runner.executor.workers}]", flush=True)
    await service.serve_until_drained()
    print("[drained: queue empty, shutting down]", flush=True)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for eid in list_experiments():
                exp = get_experiment(eid)
                print(f"{eid:10s} {exp.title}")
            return 0
        if args.backend:
            _backend.set_backend(args.backend)
        else:
            # Validate $REPRO_BACKEND at entry: a typo'd mode fails here
            # with a named ConfigurationError instead of mid-run.
            _backend.backend_mode()
        cache = None
        if not getattr(args, "no_cache", False):  # farm is always cached
            cache = ResultCache(args.cache_dir or default_cache_dir())
        # One executor (one spawn pool) for the life of the process: every
        # experiment of run-all, every miss of a farm pass and every job
        # the daemon ever serves.
        with ShardedExecutor(workers=args.workers) as executor:
            if args.command == "farm":
                return _run_farm(executor, cache, args)
            runner = JobRunner(executor, cache)
            if args.command == "serve":
                from .service.daemon import ExperimentService

                service = ExperimentService(
                    runner, queue_limit=args.queue_limit,
                    host=args.host, port=args.port,
                )
                asyncio.run(_serve(service))
                return 0
            if args.command == "run":
                outcome = runner.run(
                    _job_spec(args.experiment_id, args), strict_devices=True
                )
                result = outcome.result
                print(to_json(result) if args.json else to_markdown(result))
                print(f"[{outcome.status_line()}]", file=sys.stderr)
                if outcome.cached:
                    print("[cache hit]", file=sys.stderr)
                if args.out:
                    path = save_result(result, args.out)
                    print(f"[saved {path}]", file=sys.stderr)
                return 0
            if args.command == "run-all":
                for eid in list_experiments():
                    outcome = runner.run(_job_spec(eid, args), strict_devices=False)
                    print(to_markdown(outcome.result))
                    print(f"[{outcome.status_line()}]", file=sys.stderr)
                    if outcome.cached:
                        print(f"[cache hit: {eid}]", file=sys.stderr)
                    if args.out:
                        save_result(outcome.result, args.out)
                return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - Ctrl-C before serve's handlers
        return 130
    return 2  # pragma: no cover - unreachable with required subparsers


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
