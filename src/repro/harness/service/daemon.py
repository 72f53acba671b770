"""The asyncio HTTP/JSON experiment daemon.

Stdlib only (:func:`asyncio.start_server` + hand-rolled HTTP/1.1
request parsing — no new runtime dependencies), so the daemon runs
wherever the library runs.  Design:

* **One job core.**  Every submission becomes a
  :class:`~repro.harness.jobs.JobSpec` and runs through the shared
  :class:`~repro.harness.jobs.JobRunner` — the exact lifecycle the CLI
  ``run`` path rides, so daemon-computed cells land on CLI-identical
  cache keys (a daemon warms the cache for the CLI and vice versa) and a
  fully-cached job is answered without dispatching to any worker
  (:attr:`ShardedExecutor.dispatches <repro.harness.parallel.
  ShardedExecutor.dispatches>` does not move).
* **Bounded admission.**  ``POST /jobs`` admits into a queue of
  ``queue_limit`` pending jobs; when the queue is full the request is
  rejected with **429** and the current queue depth — explicit
  backpressure instead of unbounded memory growth.  A single worker
  task drains the queue onto the runner **off the event loop** (in a
  thread via :meth:`loop.run_in_executor`), so the HTTP endpoints stay
  responsive while a job computes.
* **Graceful drain.**  On SIGTERM (or :meth:`ExperimentService.
  begin_drain`) the daemon stops admitting (`503 draining`), finishes
  the in-flight job and everything already queued — status endpoints
  keep answering throughout — then closes its sockets and exits
  cleanly.
* **Observability.**  ``GET /stats`` reports throughput, cache-hit
  rate, queue depth, latency percentiles, the executor's dispatch /
  pool counters and the code identity the daemon keys under (the
  package fingerprint of its pinned snapshot, :mod:`repro.harness.
  fingerprint`, and when it was pinned); ``GET /jobs/<id>`` exposes
  the per-cell hit/miss provenance of a finished job.  Only the most
  recent finished records are kept (:data:`_FINISHED_RECORDS_KEPT`), so
  memory stays bounded under any volume of traffic.

Validation happens at admission: unknown experiment ids, unknown device
names, malformed or unknown overrides, override values of the wrong type
or out of range, and unknown body fields are 400s produced by the job
core's named errors, never mid-run failures.  The plan made there (the
job's keyed cells) is the one the job runs: each job is planned once.

The daemon pins its code fingerprint when it starts: it keys every
result under the tree it imported, so an edit on disk changes none of
its keys until it is restarted.
"""

from __future__ import annotations

import asyncio
import collections
import json
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from urllib.parse import parse_qs, urlsplit

from ...errors import ReproError
from ...experiments import get_experiment, list_experiments
from .. import fingerprint as _fingerprint
from ..jobs import Cell, JobOutcome, JobRunner, JobSpec
from ..results import is_key_shaped

__all__ = ["ExperimentService", "JobRecord", "ServiceStats", "ServiceThread"]

#: Maximum accepted request-body size; a daemon must bound what it buffers.
_MAX_BODY_BYTES = 1_048_576

#: Finished job records kept for ``GET /jobs`` and ``GET /jobs/<id>``;
#: older ones are dropped (their results stay in the result cache), so a
#: long-lived daemon holds bounded memory whatever its traffic.
_FINISHED_RECORDS_KEPT = 1024

#: Most recent job latencies kept for the ``/stats`` percentiles.
_LATENCIES_KEPT = 4096

#: Largest over-limit body read and dropped before the 400 is sent.
#: Closing a socket with unread input makes the kernel send RST, which
#: can destroy the response before the client reads it; a body consumed
#: in full lets the close end in an orderly FIN.
_DISCARD_LIMIT_BYTES = 4 * _MAX_BODY_BYTES

#: Deadline for dropping an over-limit body.
_DISCARD_TIMEOUT_S = 5.0

#: Deadline for draining a client after a half-close (``write_eof``),
#: when its body was too large or too slow to drop in full.
_LINGER_TIMEOUT_S = 2.0

#: Deadline for receiving a whole request (line, headers and an
#: in-limit body); a client still sending after it gets a 408.
_READ_TIMEOUT_S = 10.0

#: Most header lines accepted per request; more get a 400.
_MAX_HEADERS = 100


async def _discard(
    reader: asyncio.StreamReader, nbytes: int | None, timeout_s: float
) -> bool:
    """Read and drop ``nbytes`` of input (``None``: up to EOF) within
    ``timeout_s``; ``True`` iff all of it was consumed in time."""

    async def drop() -> bool:
        remaining = nbytes
        while remaining is None or remaining > 0:
            chunk = await reader.read(
                65_536 if remaining is None else min(remaining, 65_536)
            )
            if not chunk:
                return remaining is None
            if remaining is not None:
                remaining -= len(chunk)
        return True

    try:
        return await asyncio.wait_for(drop(), timeout_s)
    except (asyncio.TimeoutError, ConnectionError):
        return False


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass
class ServiceStats:
    """Aggregate service counters + a latency record.

    Latencies are end-to-end job latencies (admission to completion,
    queue wait included — what a submitter experiences), bounded to the
    most recent :data:`_LATENCIES_KEPT` completions so a long-lived
    daemon cannot grow without bound.
    """

    started_at: float = field(default_factory=time.monotonic)
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_429: int = 0
    rejected_503: int = 0
    jobs_cached: int = 0
    latencies_s: list[float] = field(default_factory=list)

    def record_completion(self, latency_s: float, *, cached: bool, failed: bool) -> None:
        if failed:
            self.failed += 1
        else:
            self.completed += 1
            if cached:
                self.jobs_cached += 1
        self.latencies_s.append(latency_s)
        if len(self.latencies_s) > _LATENCIES_KEPT:
            del self.latencies_s[:-_LATENCIES_KEPT]

    def as_dict(self) -> dict:
        uptime = max(time.monotonic() - self.started_at, 1e-9)
        lat = sorted(self.latencies_s)
        return {
            "uptime_s": uptime,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected_429": self.rejected_429,
            "rejected_503": self.rejected_503,
            "jobs_cached": self.jobs_cached,
            "hit_rate": (self.jobs_cached / self.completed) if self.completed else 0.0,
            "throughput_rps": self.completed / uptime,
            "latency_ms": {
                "p50": _percentile(lat, 0.50) * 1e3,
                "p99": _percentile(lat, 0.99) * 1e3,
                "n": len(lat),
            },
        }


@dataclass
class JobRecord:
    """One admitted job: spec, its admission-time plan, lifecycle status,
    outcome."""

    job_id: str
    spec: JobSpec
    #: The spec's :meth:`JobRunner.plan <repro.harness.jobs.JobRunner.
    #: plan>` (job-level overrides and keyed cells), made at admission
    #: and run as is.
    plan: tuple[dict, list[Cell]]
    status: str = "queued"  # queued -> running -> done | failed
    error: str | None = None
    outcome: JobOutcome | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    #: Set when the job reaches a terminal state (``?wait=1`` awaits it).
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def as_dict(self, *, include_result: bool = False) -> dict:
        doc = {
            "job_id": self.job_id,
            "status": self.status,
            "spec": self.spec.as_dict(),
        }
        if self.started_at is not None:
            doc["queue_wait_s"] = self.started_at - self.submitted_at
        if self.finished_at is not None:
            doc["latency_s"] = self.finished_at - self.submitted_at
        if self.error is not None:
            doc["error"] = self.error
        if self.outcome is not None:
            doc["outcome"] = self.outcome.as_dict(include_result=include_result)
        return doc


class _HttpError(Exception):
    """Routing-level error carrying an HTTP status + JSON body."""

    def __init__(
        self, status: int, message: str, *, unread_input: bool = False, **extra
    ) -> None:
        super().__init__(message)
        self.status = status
        self.body = {"error": message, **extra}
        #: The request body was not consumed: half-close and drain
        #: before closing, so the response is not reset away.
        self.unread_input = unread_input


class ExperimentService:
    """The daemon: bounded-queue admission over one shared job runner.

    Parameters
    ----------
    runner:
        The :class:`~repro.harness.jobs.JobRunner` every job runs
        through.  Its executor lives as long as the service does — one
        spawn pool for the daemon's whole lifetime (no per-job churn).
    queue_limit:
        Maximum *pending* jobs; admission beyond it is a 429.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        runner: JobRunner,
        *,
        queue_limit: int = 32,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if queue_limit < 1:
            raise ReproError(f"queue_limit must be >= 1, got {queue_limit}")
        self.runner = runner
        self.queue_limit = queue_limit
        self.host = host
        self.port = port
        self.stats = ServiceStats()
        self.jobs: dict[str, JobRecord] = {}
        self._finished: collections.deque[str] = collections.deque()
        self._queue: asyncio.Queue[JobRecord | None] = asyncio.Queue()
        self._job_counter = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._worker_task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Pin the code fingerprint, bind the listening socket and launch
        the queue worker."""
        _fingerprint.snapshot()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_task = asyncio.create_task(self._worker())

    async def serve_until_drained(self) -> None:
        """Run until :meth:`begin_drain` completes: in-flight and queued
        jobs finish, new submissions are rejected, sockets close."""
        if self._server is None:
            await self.start()
        await self._drained.wait()
        self._server.close()
        await self._server.wait_closed()
        if self._worker_task is not None:
            await self._worker_task

    def begin_drain(self) -> None:
        """Stop admitting; finish what is queued; then shut down.

        Safe to call from a signal handler.  Status endpoints keep
        answering until the queue is empty and the in-flight job (if
        any) has finished.
        """
        if self._draining:
            return
        self._draining = True
        # A sentinel wakes the worker even on an empty queue.
        self._queue.put_nowait(None)

    # --------------------------------------------------------------- worker
    def _run_record(self, record: JobRecord) -> JobOutcome:
        """The blocking job execution (runs in a thread, off the loop)."""
        return self.runner.run(record.spec, plan=record.plan)

    async def _worker(self) -> None:
        """Drain the queue onto the shared runner, one job at a time."""
        loop = asyncio.get_running_loop()
        while True:
            record = await self._queue.get()
            if record is None:  # drain sentinel
                if self._queue.empty():
                    break
                # Re-enqueue behind the remaining jobs: drain means
                # "finish everything admitted", not "drop the queue".
                self._queue.put_nowait(None)
                continue
            record.status = "running"
            record.started_at = time.monotonic()
            try:
                outcome = await loop.run_in_executor(None, self._run_record, record)
            except ReproError as exc:
                record.error = str(exc)
                record.status = "failed"
            except Exception as exc:  # noqa: BLE001 - a job must never kill the daemon
                record.error = f"{type(exc).__name__}: {exc}"
                record.status = "failed"
            else:
                record.outcome = outcome
                record.status = "done"
            record.finished_at = time.monotonic()
            self.stats.record_completion(
                record.finished_at - record.submitted_at,
                cached=bool(record.outcome and record.outcome.cached),
                failed=record.status == "failed",
            )
            record.done.set()
            self._finished.append(record.job_id)
            while len(self._finished) > _FINISHED_RECORDS_KEPT:
                del self.jobs[self._finished.popleft()]
        self._drained.set()

    # ------------------------------------------------------------- requests
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        unread_input = False
        try:
            status, body = await self._handle_request(reader)
        except _HttpError as exc:
            status, body, unread_input = exc.status, exc.body, exc.unread_input
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - malformed input must not kill the daemon
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        payload = json.dumps(body, default=str).encode()
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 408: "Request Timeout",
                  429: "Too Many Requests",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode() + payload)
            await writer.drain()
            if unread_input and writer.can_write_eof():
                writer.write_eof()
                await _discard(reader, None, _LINGER_TIMEOUT_S)
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            writer.close()

    async def _handle_request(self, reader: asyncio.StreamReader) -> tuple[int, dict]:
        # One deadline covers the request line, the headers and an in-limit
        # body; an over-limit body is dropped under its own deadline below.
        try:
            async with asyncio.timeout(_READ_TIMEOUT_S):
                method, target, content_length = await self._read_head(reader)
                if content_length <= _MAX_BODY_BYTES:
                    raw_body = await reader.readexactly(content_length)
        except TimeoutError:
            raise _HttpError(
                408,
                f"request not received within {_READ_TIMEOUT_S:g} s",
                unread_input=True,
            ) from None
        if content_length > _MAX_BODY_BYTES:
            consumed = content_length <= _DISCARD_LIMIT_BYTES and await _discard(
                reader, content_length, _DISCARD_TIMEOUT_S
            )
            raise _HttpError(
                400,
                f"request body exceeds {_MAX_BODY_BYTES} bytes",
                unread_input=not consumed,
            )
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return await self._route(method, path, query, raw_body)

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader) -> tuple[str, str, int]:
        """Read the request line and headers; return ``(method, target,
        content length)``."""
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        content_length = 0
        n_headers = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            n_headers += 1
            if n_headers > _MAX_HEADERS:
                raise _HttpError(
                    400, f"more than {_MAX_HEADERS} header lines", unread_input=True
                )
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, f"bad Content-Length: {value.strip()!r}")
        return method, target, content_length

    async def _route(
        self, method: str, path: str, query: dict, raw_body: bytes
    ) -> tuple[int, dict]:
        if method == "POST" and path == "/jobs":
            return await self._post_job(query, raw_body)
        if method == "GET" and path == "/experiments":
            return 200, {
                "experiments": [
                    {"experiment_id": eid, "title": get_experiment(eid).title}
                    for eid in list_experiments()
                ]
            }
        if method == "GET" and path == "/stats":
            return 200, self._stats_doc()
        if method == "GET" and path == "/jobs":
            return 200, {
                "jobs": [
                    {"job_id": r.job_id, "status": r.status,
                     "experiment_id": r.spec.experiment_id}
                    for r in self.jobs.values()
                ]
            }
        if method == "GET" and path.startswith("/jobs/"):
            record = self.jobs.get(path[len("/jobs/"):])
            if record is None:
                raise _HttpError(404, "no such job")
            return 200, record.as_dict(include_result=query.get("result") == "1")
        if method == "GET" and path.startswith("/results/"):
            return self._get_result(path[len("/results/"):], query)
        raise _HttpError(404, f"no route for {method} {path}")

    def _stats_doc(self) -> dict:
        doc = self.stats.as_dict()
        doc.update(
            queue_depth=self._queue_depth(),
            queue_limit=self.queue_limit,
            draining=self._draining,
        )
        executor = self.runner.executor
        doc["executor"] = {
            "workers": getattr(executor, "workers", 1),
            "worker_threads": getattr(executor, "worker_threads", None),
            "dispatches": getattr(executor, "dispatches", None),
            "pools_created": getattr(executor, "pools_created", None),
        }
        code = _fingerprint.snapshot()
        doc["code"] = {
            "package_fingerprint": code.fingerprint,
            "pinned_at": datetime.fromtimestamp(code.pinned_at, timezone.utc)
            .isoformat(timespec="seconds"),
        }
        return doc

    def _queue_depth(self) -> int:
        """Pending jobs (the drain sentinel is not a job)."""
        depth = self._queue.qsize()
        return max(depth - 1, 0) if self._draining else depth

    async def _post_job(self, query: dict, raw_body: bytes) -> tuple[int, dict]:
        if self._draining:
            self.stats.rejected_503 += 1
            raise _HttpError(503, "draining: no new jobs accepted")
        try:
            doc = json.loads(raw_body.decode() or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}")
        try:
            spec = JobSpec.from_dict(doc)
            # Fail fast at admission: unknown experiment ids, unknown
            # device names, ill-fitting device lists and unknown override
            # names are 400s here, not failed jobs discovered by polling.
            plan = self.runner.plan(spec, strict_devices=True)
        except ReproError as exc:
            raise _HttpError(400, str(exc))
        if self._queue_depth() >= self.queue_limit:
            self.stats.rejected_429 += 1
            raise _HttpError(
                429,
                "job queue is full",
                queue_depth=self._queue_depth(),
                queue_limit=self.queue_limit,
            )
        self._job_counter += 1
        record = JobRecord(
            job_id=f"job-{self._job_counter:06d}", spec=spec, plan=plan
        )
        self.jobs[record.job_id] = record
        self.stats.submitted += 1
        self._queue.put_nowait(record)
        if query.get("wait") == "1":
            await record.done.wait()
            return 200, record.as_dict(include_result=query.get("result") == "1")
        return 202, {
            "job_id": record.job_id,
            "status": record.status,
            "queue_depth": self._queue_depth(),
        }

    def _get_result(self, key: str, query: dict) -> tuple[int, dict]:
        """Answer a cache key directly from the result cache.

        Metadata comes from the head-probe (:meth:`~repro.harness.
        results.ResultCache.read_meta`); the payload is deserialised
        (:meth:`~repro.harness.results.ResultCache.lookup`) only when
        ``?payload=1`` asks for it.  No worker is ever touched.
        """
        cache = self.runner.cache
        if cache is None:
            raise _HttpError(404, "service runs without a result cache")
        if not is_key_shaped(key):  # never let a path reach the filesystem
            raise _HttpError(404, "no cached result under this key")
        meta = cache.read_meta(key)
        if meta is None:
            raise _HttpError(404, "no cached result under this key")
        doc = {"key": key, "meta": meta}
        if query.get("payload") == "1":
            result = cache.lookup(key)
            if result is None:  # deleted between probe and read
                raise _HttpError(404, "no cached result under this key")
            doc["result"] = result.as_dict()
        return 200, doc


class ServiceThread:
    """Run an :class:`ExperimentService` on a background thread.

    The bench harness, the test suite and the quickstart all need a live
    daemon inside one process; this wraps the event loop + readiness
    handshake + graceful drain into a context manager::

        with ServiceThread(runner, queue_limit=8) as svc:
            urllib.request.urlopen(svc.base_url + "/stats")
    """

    def __init__(self, runner: JobRunner, **service_kwargs) -> None:
        self.service = ExperimentService(runner, **service_kwargs)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def base_url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def __enter__(self) -> "ServiceThread":
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def _main(self) -> None:
        async def run() -> None:
            try:
                await self.service.start()
            except BaseException as exc:
                self._startup_error = exc
                raise
            finally:
                self._ready.set()
            await self.service.serve_until_drained()

        try:
            asyncio.run(run())
        except BaseException:  # noqa: BLE001 - surfaced via _startup_error/join
            if not self._ready.is_set():
                self._ready.set()

    def drain(self) -> None:
        """Trigger a graceful drain from any thread."""
        loop = self.service._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service.begin_drain)

    def __exit__(self, *exc) -> None:
        self.drain()
        if self._thread is not None:
            self._thread.join(timeout=60.0)
