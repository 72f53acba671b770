"""The ``service-warm`` workload.

The daemon runs in its own process (``serve.py``) over a fresh cache
directory, warmed during set-up with 48 small cells.  This process is the
client: an open-loop, constant-rate generator of ``POST /jobs?wait=1``
over at most two connections, which times every request from its due
time and records how late it was sent.  Every answer must be a cache hit
carrying the digest recorded when its cell was warmed.
"""

from __future__ import annotations

import gc
import http.client
import json
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: Client connections in flight at once.
CONNECTIONS = 2
#: Offered load of the latency measurement, in requests per second.
RATE = 50.0
#: Requests in the latency measurement, at least (ten beyond p99).
MIN_REQUESTS = 1000
#: Latency limit of ``slo_rps``.
SLO_P99_MS = 100.0
#: Generator lateness growth (last third of a step over its first third)
#: that counts as a growing backlog.
SLO_LATE_GROWTH_S = 0.020
#: Seconds per rate step of the ``slo_rps`` search, and the number of steps.
SLO_STEP_S = 3.0
SLO_STEPS = 5
#: The search brackets this range of the grid-pass rate.
SLO_BRACKET = (0.5, 1.2)
#: Set-ups per untraced run; ``setup_s`` is their median.
N_SETUPS = 3
#: Passes over the warmed grid (``sweep_s``); an untraced run makes half
#: of them before the 50 req/s measurement and half after the search, so
#: that their median spans the whole run.
GRID_PASSES = 24

_HERE = Path(__file__).resolve().parent


def warm_cells(seed: int) -> list[dict]:
    """The 48 distinct small cells: three experiments x 16 seeds."""
    rng = random.Random(seed)
    families = [
        ("table2", {}),
        ("fig4", {"n_runs": 4}),
        ("fig5", {"n_runs": 8}),
    ]
    cells = []
    for eid, overrides in families:
        for s in rng.sample(range(2**31), 16):
            cells.append({"experiment_id": eid, "seed": s, "overrides": overrides})
    return cells


class Daemon:
    """One daemon process over ``cache_dir`` (``serve.py``)."""

    def __init__(self, cache_dir: Path, env: dict, *, trace: bool) -> None:
        self._lines: queue.Queue = queue.Queue()
        self.proc = subprocess.Popen(
            [sys.executable, str(_HERE / "serve.py"), "--trace", str(int(trace)),
             "--", "--port", "0", "--workers", "1", "--queue-limit", "64",
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + 60.0
        while True:
            line = self._next_line(deadline)
            if line.startswith("[serving http://"):
                host, port = line.split()[1][len("http://"):].rsplit(":", 1)
                self.addr = (host, int(port))
                return

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def _next_line(self, deadline: float) -> str:
        try:
            line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
        except queue.Empty:
            line = None
        if line is None:
            self.kill()
            raise RuntimeError("daemon exited or stalled before answering")
        return line

    def stats(self) -> dict:
        return request(self.addr, "GET", "/stats")[1]

    def reset_spans(self) -> None:
        """Clear the spans a traced daemon recorded so far."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while self._next_line(deadline) != "[spans reset]":
            pass

    def stop(self) -> dict:
        """Drain the daemon; return its exit report (peak RSS, spans)."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=60)
            self._reader.join(timeout=30)
        finally:
            self.kill()
        report = None
        while not self._lines.empty():
            line = self._lines.get()
            if line and line.startswith("{"):
                report = json.loads(line)
        if report is None or self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited with {self.proc.returncode}")
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


def request(addr, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(*addr, timeout=60)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def post(addr, body: bytes) -> tuple[int, dict]:
    return request(addr, "POST", "/jobs?wait=1", body)


class Client:
    """Requests against one daemon, each checked against the warmed digests."""

    def __init__(self, cells: list[dict], digests: list[str]) -> None:
        self.bodies = [json.dumps(c).encode() for c in cells]
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def _check(self, index: int, status: int | None, doc) -> bool:
        outcome = doc.get("outcome") or {}
        ok = (
            status == 200
            and doc.get("status") == "done"
            and outcome.get("cached") is True
            and outcome.get("digest") == self.digests[index]
        )
        with self._lock:
            self.attempted += 1
            self.failed += not ok
        return ok

    def fire(self, addr, jobs: list[tuple[float, int]], t0: float) -> list[dict]:
        """Send ``(due offset, cell)`` jobs from ``t0`` on, over at most
        :data:`CONNECTIONS` connections; a job whose connections are all
        busy is sent late.  Returns one record per job."""
        records: list[dict] = [{} for _ in jobs]
        cursor = iter(range(len(jobs)))
        lock = threading.Lock()

        def connection() -> None:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                offset, cell = jobs[i]
                due = t0 + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, doc = post(addr, self.bodies[cell])
                except (OSError, ValueError, http.client.HTTPException) as exc:
                    status, doc = None, {"error": str(exc)}
                done = time.perf_counter()
                ok = self._check(cell, status, doc)
                records[i] = {
                    "ok": ok, "late": sent - due, "from_due": done - due,
                    "from_send": done - sent, "status": status,
                    "queue_wait": doc.get("queue_wait_s"),
                    "latency": doc.get("latency_s"),
                }

        # The client's own collector pauses would show up as lateness.
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            if gc_enabled:
                gc.enable()
        return records

    def grid_pass(self, addr, order: list[int]) -> float:
        """Submit every warmed cell at once and wait for the last; returns
        the wall-clock.

        All but the last cell are submitted without waiting; the daemon's
        single worker runs its queue in order, so the answer to the last
        (waiting) submission comes once the whole grid is answered.  Each
        job record is checked afterwards, outside the timed window.
        """
        start = time.perf_counter()
        submitted = [
            (cell, request(addr, "POST", "/jobs", self.bodies[cell]))
            for cell in order[:-1]
        ]
        status, doc = post(addr, self.bodies[order[-1]])
        wall = time.perf_counter() - start
        self._check(order[-1], status, doc)
        for cell, (status, doc) in submitted:
            if status == 202:
                status, doc = request(addr, "GET", f"/jobs/{doc['job_id']}")
            self._check(cell, status, doc)
        return wall

    def constant_rate(self, addr, rate: float, n: int, rng: random.Random) -> list[dict]:
        jobs = [(i / rate, rng.randrange(len(self.bodies))) for i in range(n)]
        return self.fire(addr, jobs, time.perf_counter() + 0.05)


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def meets_slo(records: list[dict]) -> tuple[bool, float]:
    """``(p99 within the limit and lateness not growing, p99 in ms)``."""
    p99 = _pct([r["from_due"] for r in records], 99) * 1e3
    third = max(len(records) // 3, 1)
    late = [r["late"] for r in records]
    growing = np.median(late[-third:]) - np.median(late[:third]) > SLO_LATE_GROWTH_S
    ok = all(r["ok"] for r in records)
    return ok and p99 <= SLO_P99_MS and not growing, p99


def slo_search(client: Client, addr, rng, capacity: float, steps: list) -> float:
    """Highest constant rate meeting the limit, by bisection inside
    :data:`SLO_BRACKET` times ``capacity`` (cells per second of a grid pass);
    the answer is interpolated on p99 inside the last bracket.  Appends
    ``(rate, p99, passed)`` of every step to ``steps``."""
    lo, hi = (f * capacity for f in SLO_BRACKET)
    p_lo, p_hi = None, None
    for _ in range(SLO_STEPS):
        rate = (lo + hi) / 2
        n = max(int(rate * SLO_STEP_S), 20)
        ok, p99 = meets_slo(client.constant_rate(addr, rate, n, rng))
        steps.append((rate, p99, ok))
        if ok:
            lo, p_lo = rate, p99
        else:
            hi, p_hi = rate, p99
        time.sleep(0.2)
    if p_lo is None or p_hi is None or p_hi <= p_lo:
        return (lo + hi) / 2
    frac = min(max((SLO_P99_MS - p_lo) / (p_hi - p_lo), 0.0), 1.0)
    return lo + frac * (hi - lo)


def set_up(seed: int, work: Path, env: dict, tag: str):
    """Start a daemon over a fresh cache and warm every cell through it.

    Returns ``(daemon, cells, digests, seconds)``.
    """
    cells = warm_cells(seed)
    start = time.perf_counter()
    daemon = Daemon(work / f"cache-{tag}", env, trace=False)
    digests = []
    try:
        for cell in cells:
            status, doc = post(daemon.addr, json.dumps(cell).encode())
            if status != 200 or doc.get("status") != "done":
                raise RuntimeError(f"warm-up of {cell} failed: {status} {doc}")
            digests.append(doc["outcome"]["digest"])
    except BaseException:
        daemon.kill()
        raise
    return daemon, cells, digests, time.perf_counter() - start


def _layer_metrics(records: list[dict]) -> dict:
    served = [r for r in records if r["latency"] is not None]
    return {
        "service.queue_wait_ms": _pct([r["queue_wait"] for r in served], 50) * 1e3,
        "service.run_ms": _pct([r["latency"] - r["queue_wait"] for r in served], 50) * 1e3,
        "service.http_ms": _pct([r["from_send"] - r["latency"] for r in served], 50) * 1e3,
        "service.rejected": sum(r["status"] != 200 for r in records),
        "loadgen.late_p99_ms": _pct([r["late"] for r in records], 99) * 1e3,
        "loadgen.p99_ms": _pct([r["from_due"] for r in records], 99) * 1e3,
    }


def _requests(seconds: float) -> int:
    return max(MIN_REQUESTS, int(RATE * seconds))


def measure(seed: int, seconds: float, work: Path, env: dict) -> dict:
    """Untraced run: set up :data:`N_SETUPS` times (keeping the last daemon),
    then half the warm-grid passes, the 50 req/s measurement, the
    ``slo_rps`` search and the other half of the passes, with the dispatch
    counter checked around them."""
    setups, digests_seen = [], []
    for k in range(N_SETUPS):
        daemon, cells, digests, took = set_up(seed, work, env, str(k))
        setups.append(took)
        digests_seen.append(digests)
        if k < N_SETUPS - 1:
            daemon.stop()
    client = Client(cells, digests)
    client.attempted += len(cells) * (N_SETUPS - 1)
    client.failed += sum(
        a != b for other in digests_seen[:-1] for a, b in zip(other, digests)
    )
    rng = random.Random(seed ^ 0x5EED)
    try:
        before = daemon.stats()["executor"]["dispatches"]
        passes = []

        def grid_passes(n: int) -> None:
            for _ in range(n):
                order = list(range(len(cells)))
                rng.shuffle(order)
                passes.append(client.grid_pass(daemon.addr, order))

        grid_passes(GRID_PASSES // 2)
        records = client.constant_rate(daemon.addr, RATE, _requests(seconds), rng)
        capacity = len(cells) / float(np.median(passes))
        steps = []
        slo = slo_search(client, daemon.addr, rng, capacity, steps)
        grid_passes(GRID_PASSES - GRID_PASSES // 2)
        after = daemon.stats()["executor"]["dispatches"]
        client.attempted += 1
        if after != before:
            print(f"executor dispatched {after - before} jobs while warm",
                  file=sys.stderr)
            client.failed += 1
    finally:
        report = daemon.stop()
    from_due = [r["from_due"] for r in records]
    metrics = {
        "sweep_s": float(np.median(passes)),
        "p50_ms": _pct(from_due, 50) * 1e3,
        "p99_ms": _pct(from_due, 99) * 1e3,
        "slo_rps": slo,
        "setup_s": float(np.median(setups)),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {"metrics": metrics, "attempted": client.attempted, "failed": client.failed,
            "detail": {"setup_s": setups, "pass_s": passes, "slo_steps": steps}}


def measure_traced(seed: int, seconds: float, work: Path, env: dict) -> dict:
    """Traced run: warm-grid passes on an untraced daemon, then the same
    passes and the 50 req/s measurement on a traced daemon over the same
    cache.  Spans cover the 50 req/s measurement only."""
    daemon, cells, digests, _ = set_up(seed, work, env, "plain")
    client = Client(cells, digests)
    rng = random.Random(seed ^ 0x5EED)
    order = list(range(len(cells)))
    rng.shuffle(order)
    try:
        plain = [client.grid_pass(daemon.addr, order) for _ in range(GRID_PASSES)]
    finally:
        daemon.stop()
    daemon = Daemon(work / "cache-plain", env, trace=True)
    try:
        before = daemon.stats()["executor"]["dispatches"]
        client.grid_pass(daemon.addr, order)  # first touch of a fresh process
        traced = [client.grid_pass(daemon.addr, order) for _ in range(GRID_PASSES)]
        daemon.reset_spans()
        records = client.constant_rate(daemon.addr, RATE, _requests(seconds), rng)
        after = daemon.stats()["executor"]["dispatches"]
        client.attempted += 1
        client.failed += after != before
    finally:
        report = daemon.stop()
    return {
        "spans": report["spans"],
        "layers": _layer_metrics(records),
        "overhead_frac": float(np.median(traced) / np.median(plain) - 1.0),
        "attempted": client.attempted,
        "failed": client.failed,
    }
