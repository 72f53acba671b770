"""Tests for the experiment daemon + seeded load generator.

Three layers:

* **Unit** — :class:`ServiceStats` accounting, percentile math,
  :class:`JobRecord` serialisation.
* **Arrival policies** — seeded reproducibility of the constant-rate and
  piecewise-constant NHPP processes, thinning correctness (zero-rate
  segments stay empty, the process ends at the last segment), validation.
* **HTTP end-to-end** — a live :class:`ServiceThread` over a real runner:
  submission/polling/waiting, cache-hit answering with zero executor
  dispatches, 400 admission errors, 429 backpressure, 503 + graceful
  completion on drain, and the results/stats/experiments endpoints.
"""

import json
import math
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from datetime import datetime, timezone

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.experiments import get_experiment, list_experiments
from repro.harness import JobOutcome, JobRunner, JobSpec, ResultCache, cache_key
from repro.harness.jobs import CellOutcome
from repro.harness.parallel import ShardedExecutor
from repro.harness.service import (
    ConstantRateArrival,
    ExperimentService,
    LoadGenerator,
    LoadReport,
    PiecewiseConstantNHPP,
    ServiceStats,
    ServiceThread,
)
from repro.harness.service import daemon
from repro.harness.service.daemon import _DISCARD_LIMIT_BYTES, _percentile
from repro.runtime import RunContext


# --------------------------------------------------------------------- helpers
def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read().decode())


def _post(url: str, doc: dict) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read().decode())


def _post_error(url: str, data: bytes) -> tuple[int, dict]:
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


# ----------------------------------------------------------------------- units
class TestServiceStats:
    def test_percentile_interpolates(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([3.0], 0.99) == 3.0
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert _percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_completion_accounting(self):
        stats = ServiceStats()
        stats.record_completion(0.1, cached=True, failed=False)
        stats.record_completion(0.3, cached=False, failed=False)
        stats.record_completion(0.2, cached=False, failed=True)
        doc = stats.as_dict()
        assert doc["completed"] == 2 and doc["failed"] == 1
        assert doc["jobs_cached"] == 1 and doc["hit_rate"] == 0.5
        assert doc["latency_ms"]["n"] == 3
        assert doc["latency_ms"]["p50"] == pytest.approx(200.0)

    def test_latency_record_is_bounded(self, monkeypatch):
        monkeypatch.setattr(daemon, "_LATENCIES_KEPT", 10)
        stats = ServiceStats()
        for i in range(50):
            stats.record_completion(float(i), cached=False, failed=False)
        assert len(stats.latencies_s) == 10
        assert stats.latencies_s == [float(i) for i in range(40, 50)]
        assert stats.completed == 50  # counters keep the full history

    def test_queue_limit_validated(self):
        with pytest.raises(ReproError, match="queue_limit"):
            ExperimentService(JobRunner(None, None), queue_limit=0)


# ------------------------------------------------------------ arrival policies
class TestArrivalPolicies:
    def test_constant_rate_is_seeded_and_reproducible(self):
        a = ConstantRateArrival(50.0, seed=3).arrival_times(2.0)
        b = ConstantRateArrival(50.0, seed=3).arrival_times(2.0)
        c = ConstantRateArrival(50.0, seed=4).arrival_times(2.0)
        assert a == b and a != c
        assert all(0 <= t < 2.0 for t in a)
        assert a == sorted(a)
        # ~100 expected arrivals; a 3x band catches seed pathologies
        # without pinning the stream.
        assert 30 < len(a) < 300

    def test_constant_rate_validation(self):
        with pytest.raises(ConfigurationError, match="rate_hz"):
            ConstantRateArrival(0.0)
        with pytest.raises(ConfigurationError, match="horizon"):
            ConstantRateArrival(1.0).arrival_times(0.0)

    def test_nhpp_validation(self):
        with pytest.raises(ConfigurationError, match="segment"):
            PiecewiseConstantNHPP([])
        with pytest.raises(ConfigurationError, match="end"):
            PiecewiseConstantNHPP([(1.0, 1.0, 5.0)])
        with pytest.raises(ConfigurationError, match="rate"):
            PiecewiseConstantNHPP([(0.0, 1.0, -2.0)])
        with pytest.raises(ConfigurationError, match="positive rate"):
            PiecewiseConstantNHPP([(0.0, 1.0, 0.0)])
        with pytest.raises(ConfigurationError, match="segment 0"):
            PiecewiseConstantNHPP([(0.0, "x", 1.0)])

    def test_nhpp_rate_function(self):
        nhpp = PiecewiseConstantNHPP([(0, 1, 10), (1, 2, 40), (3, 4, 10)])
        assert nhpp.rate_at(0.5) == 10 and nhpp.rate_at(1.5) == 40
        assert nhpp.rate_at(2.5) == 0.0  # gap between segments
        assert nhpp.rate_at(9.0) == 0.0  # past the end
        assert nhpp.envelope_hz == 40

    def test_nhpp_is_seeded_and_reproducible(self):
        segs = [(0, 1, 20), (1, 2, 80), (2, 3, 20)]
        a = PiecewiseConstantNHPP(segs, seed=11).arrival_times(3.0)
        b = PiecewiseConstantNHPP(segs, seed=11).arrival_times(3.0)
        assert a == b and a == sorted(a)

    def test_nhpp_thinning_respects_the_rate_shape(self):
        # Peak segment at 4x the shoulder rate: the peak must collect
        # (statistically, but the seed makes it deterministic) several
        # times the shoulder's arrivals, and zero-rate gaps stay empty.
        nhpp = PiecewiseConstantNHPP(
            [(0, 1, 20), (1, 2, 80), (3, 4, 20)], seed=5
        )
        times = nhpp.arrival_times(4.0)
        shoulder = sum(1 for t in times if t < 1)
        peak = sum(1 for t in times if 1 <= t < 2)
        gap = sum(1 for t in times if 2 <= t < 3)
        assert gap == 0
        assert peak > 2 * shoulder > 0

    def test_nhpp_ends_after_last_segment(self):
        nhpp = PiecewiseConstantNHPP([(0, 1, 30)], seed=0)
        assert nhpp.next_arrival_time(5.0) == math.inf
        # A long horizon stops at the process end, not the horizon.
        assert all(t < 1.0 for t in nhpp.arrival_times(100.0))


class TestLoadReport:
    def test_derived_metrics(self):
        rep = LoadReport(n_scheduled=10, n_ok=8, n_rejected=1, n_failed=1,
                         duration_s=4.0, latencies_s=[0.1, 0.2, 0.3, 0.4],
                         n_cached=6)
        assert rep.throughput_rps == 2.0
        assert rep.hit_rate == 0.75
        assert rep.percentile_ms(0.5) == pytest.approx(250.0)
        doc = rep.as_dict()
        assert doc["n_ok"] == 8 and doc["p99_ms"] > doc["p50_ms"]

    def test_empty_report_is_all_zero(self):
        rep = LoadReport(n_scheduled=0, n_ok=0, n_rejected=0, n_failed=0,
                         duration_s=0.0)
        assert rep.throughput_rps == 0.0 and rep.hit_rate == 0.0
        assert rep.percentile_ms(0.99) == 0.0

    def test_generator_needs_jobs(self):
        with pytest.raises(ConfigurationError, match="job document"):
            LoadGenerator("http://x", ConstantRateArrival(1.0), [])


# ------------------------------------------------------------ HTTP end-to-end
@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One live daemon (real runner, serial executor, fresh cache) shared
    by every end-to-end test in this module."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    with ShardedExecutor(workers=1) as executor:
        runner = JobRunner(executor, ResultCache(cache_dir))
        with ServiceThread(runner, queue_limit=8) as svc:
            yield svc


class TestServiceEndpoints:
    def test_experiments_lists_the_registry(self, service):
        doc = _get(service.base_url + "/experiments")
        ids = [e["experiment_id"] for e in doc["experiments"]]
        assert ids == list_experiments()
        assert all(e["title"] for e in doc["experiments"])

    def test_submit_poll_and_wait(self, service):
        # Async submission: 202-shaped body, then poll to completion.
        doc = _post(service.base_url + "/jobs", {"experiment_id": "table2"})
        job_id = doc["job_id"]
        assert doc["status"] in ("queued", "running")
        deadline = time.monotonic() + 60
        while True:
            record = _get(f"{service.base_url}/jobs/{job_id}")
            if record["status"] in ("done", "failed"):
                break
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.05)
        assert record["status"] == "done"
        assert record["outcome"]["cached"] is False
        assert record["outcome"]["n_cells"] == 1
        assert record["latency_s"] >= 0 and record["queue_wait_s"] >= 0
        assert "result" not in record["outcome"]  # payload only on request
        full = _get(f"{service.base_url}/jobs/{job_id}?result=1")
        assert full["outcome"]["result"]["experiment_id"] == "table2"
        listing = _get(service.base_url + "/jobs")
        assert {"job_id": job_id, "status": "done",
                "experiment_id": "table2"} in listing["jobs"]

    def test_warm_resubmission_is_cached_with_zero_dispatches(self, service):
        _post(service.base_url + "/jobs?wait=1", {"experiment_id": "table2"})
        before = _get(service.base_url + "/stats")["executor"]["dispatches"]
        doc = _post(service.base_url + "/jobs?wait=1",
                    {"experiment_id": "table2"})
        assert doc["status"] == "done"
        assert doc["outcome"]["cached"] is True
        after = _get(service.base_url + "/stats")
        assert after["executor"]["dispatches"] == before
        assert after["jobs_cached"] >= 1 and after["hit_rate"] > 0

    def test_stats_report_the_pinned_code_identity(self, service):
        from repro.harness import fingerprint

        code = _get(service.base_url + "/stats")["code"]
        assert code["package_fingerprint"] == fingerprint.package_fingerprint()
        pinned = datetime.fromisoformat(code["pinned_at"])
        assert pinned <= datetime.now(timezone.utc)

    def test_stats_report_the_worker_thread_budget(self, service):
        executor = _get(service.base_url + "/stats")["executor"]
        assert executor["workers"] == 1
        assert executor["worker_threads"] is None  # serial: no pool
        pooled = ExperimentService(JobRunner(ShardedExecutor(workers=2), None))
        budget = pooled._stats_doc()["executor"]["worker_threads"]
        assert budget == max(1, len(os.sched_getaffinity(0)) // 2)

    def test_each_job_is_planned_once(self, service, monkeypatch):
        runner = service.service.runner
        planned = []
        plan_overrides = runner.plan_overrides

        def counting(spec, **kwargs):
            planned.append(spec.experiment_id)
            return plan_overrides(spec, **kwargs)

        monkeypatch.setattr(runner, "plan_overrides", counting)
        body = {"experiment_id": "fig4", "overrides": {"n_runs": 4}}
        doc = _post(service.base_url + "/jobs?wait=1", body)
        assert doc["status"] == "done"
        assert planned == ["fig4"]  # at admission only, not again at run
        keys = [c.key for c in runner.plan_cells(JobSpec.from_dict(body))]
        assert [c["key"] for c in doc["outcome"]["cells"]] == keys

    def test_results_endpoint_serves_the_cache_directly(self, service):
        _post(service.base_url + "/jobs?wait=1", {"experiment_id": "table2"})
        key = cache_key("table2", "default", 0)
        doc = _get(f"{service.base_url}/results/{key}")
        assert doc["meta"]["experiment_id"] == "table2"
        assert "result" not in doc  # metadata head-probe only
        full = _get(f"{service.base_url}/results/{key}?payload=1")
        assert full["result"]["rows"]
        status, _ = _post_error(service.base_url + "/jobs", b"")
        code, body = 0, {}
        try:
            _get(f"{service.base_url}/results/{'0' * 64}")
        except urllib.error.HTTPError as exc:
            code, body = exc.code, json.load(exc)
        assert code == 404 and "no cached result" in body["error"]

    def test_admission_rejects_bad_submissions_with_400(self, service):
        # Wrongly typed overrides/devices are the client's fault too: a
        # 400 naming the field, never a 500 from a coercion inside the
        # daemon.  Unknown override names are checked against the
        # experiment's parameters, and workers/backend are the daemon's
        # flags, not body fields.  None of these reaches the queue or a
        # worker.
        url = service.base_url + "/jobs"
        before = _get(service.base_url + "/stats")
        jobs_before = set(service.service.jobs)
        for payload, fragment in [
            (json.dumps({"experiment_id": "table2",
                         "overrides": {"bogus": 1}}).encode(), "bogus"),
            (json.dumps({"experiment_id": "table2",
                         "workers": 8}).encode(), "workers"),
            (json.dumps({"experiment_id": "table2",
                         "backend": "numpy"}).encode(), "backend"),
            (b"{not json", "not valid JSON"),
            (json.dumps({"experiment_id": "nope"}).encode(), "nope"),
            (json.dumps({"experiment_id": "table2",
                         "overides": {}}).encode(), "overides"),
            (json.dumps({"experiment_id": "figS1",
                         "devices": ["warp9"]}).encode(), "warp9"),
            (json.dumps({"experiment_id": "table2",
                         "devices": ["v100"]}).encode(), "device"),
            (json.dumps({"experiment_id": "table2",
                         "overrides": "ab"}).encode(), "overrides"),
            (json.dumps({"experiment_id": "table2",
                         "overrides": 5}).encode(), "overrides"),
            (json.dumps({"experiment_id": "table2",
                         "overrides": [["n_runs", 3]]}).encode(), "overrides"),
            (json.dumps({"experiment_id": "figS1",
                         "devices": 5}).encode(), "devices"),
            (json.dumps({"experiment_id": "fig4",
                         "overrides": {"n_runs": "x"}}).encode(), "n_runs"),
            (json.dumps({"experiment_id": "fig4",
                         "overrides": {"n_runs": -1}}).encode(), "must be >= 0"),
            (json.dumps({"experiment_id": "fig1",
                         "overrides": {"n_blocks": "x"}}).encode(), "n_blocks"),
        ]:
            status, body = _post_error(url, payload)
            assert status == 400, (payload, body)
            assert fragment in body["error"]
        after = _get(service.base_url + "/stats")
        assert after["submitted"] == before["submitted"]
        assert after["executor"]["dispatches"] == before["executor"]["dispatches"]
        assert set(service.service.jobs) == jobs_before

    def test_results_key_outside_the_cache_is_404(self, service):
        # A path-shaped key must never reach the filesystem: plant a
        # well-formed entry beside the cache directory and ask for it
        # with a raw (un-normalised) request target.
        cache_dir = service.service.runner.cache.directory
        outside = cache_dir.parent / "outside"
        outside.mkdir(exist_ok=True)
        planted = "../outside/planted"
        (outside / "planted.json").write_text(json.dumps(
            {"cache": {"key": planted, "experiment_id": "table2"}, "result": {}}
        ))
        for target in (f"/results/{planted}", f"/results/{'A' * 64}",
                       f"/results/{'0' * 63}"):
            with socket.create_connection(
                (service.service.host, service.service.port), timeout=30
            ) as sock:
                sock.sendall(f"GET {target} HTTP/1.1\r\n\r\n".encode())
                reply = b""
                while chunk := sock.recv(65_536):
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 404 "), (target, reply)
            assert b"table2" not in reply

    def test_oversized_body_is_rejected(self, service):
        status, body = _post_error(service.base_url + "/jobs",
                                   b"x" * (1_048_576 + 1))
        assert status == 400 and "exceeds" in body["error"]

    def test_body_beyond_the_discard_limit_still_gets_its_400(self, service):
        # Too large to drop in full: the daemon half-closes after the
        # response and drains, so the 400 still reaches the client.
        status, body = _post_error(service.base_url + "/jobs",
                                   b"x" * (_DISCARD_LIMIT_BYTES + 1))
        assert status == 400 and "exceeds" in body["error"]

    def test_silent_oversized_client_is_answered_in_bounded_time(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(daemon, "_DISCARD_TIMEOUT_S", 0.2)
        monkeypatch.setattr(daemon, "_LINGER_TIMEOUT_S", 0.2)
        with socket.create_connection(
            (service.service.host, service.service.port), timeout=30
        ) as sock:
            # Declares an over-limit body, then never sends it.
            sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n")
            start = time.monotonic()
            reply = b""
            while chunk := sock.recv(65_536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert time.monotonic() - start < 10.0

    def test_silent_partial_request_gets_408_in_bounded_time(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(daemon, "_READ_TIMEOUT_S", 0.3)
        monkeypatch.setattr(daemon, "_LINGER_TIMEOUT_S", 0.2)
        with socket.create_connection(
            (service.service.host, service.service.port), timeout=30
        ) as sock:
            # Half a request line, then silence.
            sock.sendall(b"GET /sta")
            start = time.monotonic()
            reply = b""
            while chunk := sock.recv(65_536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert time.monotonic() - start < 10.0

    def test_too_many_headers_get_400(self, service):
        n = daemon._MAX_HEADERS + 1
        head = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(n))
        with socket.create_connection(
            (service.service.host, service.service.port), timeout=30
        ) as sock:
            sock.sendall(f"GET /stats HTTP/1.1\r\n{head}\r\n".encode())
            reply = b""
            while chunk := sock.recv(65_536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"header lines" in reply

    def test_headers_at_the_cap_are_accepted(self, service):
        head = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(daemon._MAX_HEADERS))
        with socket.create_connection(
            (service.service.host, service.service.port), timeout=30
        ) as sock:
            sock.sendall(f"GET /stats HTTP/1.1\r\n{head}\r\n".encode())
            reply = b""
            while chunk := sock.recv(65_536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 ")

    def test_unknown_routes_404(self, service):
        for url in ("/nope", "/jobs/job-999999"):
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(service.base_url + url)
            assert exc.value.code == 404

    def test_failed_job_does_not_kill_the_daemon(self, service):
        # An override that passes admission (a known name, a well-typed
        # value) but fails at dispatch (no thread team of size zero) must
        # surface as a failed record, not as a dead worker task.
        doc = _post(service.base_url + "/jobs?wait=1",
                    {"experiment_id": "table3", "overrides": {"num_threads": 0}})
        assert doc["status"] == "failed"
        assert "num_threads must be >= 1" in doc["error"]
        follow = _post(service.base_url + "/jobs?wait=1",
                       {"experiment_id": "table2"})
        assert follow["status"] == "done"
        assert _get(service.base_url + "/stats")["failed"] >= 1

    def test_loadgen_against_warm_service_is_all_hits(self, service):
        _post(service.base_url + "/jobs?wait=1", {"experiment_id": "table2"})
        before = _get(service.base_url + "/stats")["executor"]["dispatches"]
        gen = LoadGenerator(
            service.base_url, ConstantRateArrival(30.0, seed=9),
            [{"experiment_id": "table2"}], seed=9,
        )
        report = gen.run(1.0)
        assert report.n_scheduled > 5
        assert report.n_failed == 0
        assert report.n_ok + report.n_rejected == report.n_scheduled
        assert report.hit_rate == 1.0
        after = _get(service.base_url + "/stats")["executor"]["dispatches"]
        assert after == before  # traffic never touched a worker


class _GatedRunner:
    """JobRunner stand-in whose job execution blocks on a gate — makes
    queue states (backpressure, drain-with-backlog) deterministic."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.cache = None
        self.executor = type("_Exec", (), {"workers": 1})()
        self.ran: list[str] = []
        self._result = get_experiment("table2").run(ctx=RunContext(seed=0))

    def plan(self, spec, *, strict_devices=True):
        return dict(spec.overrides), []

    def run(self, spec, *, plan):
        assert self.gate.wait(timeout=30), "gate never opened"
        self.ran.append(spec.experiment_id)
        cell = CellOutcome(key="0" * 64, overrides={}, hit=False,
                           digest="stub", elapsed_s=0.0)
        return JobOutcome(spec=spec, result=self._result, cells=[cell],
                          cached=False, elapsed_s=0.0)


class TestBackpressureAndDrain:
    def test_queue_full_is_429_with_depth(self):
        runner = _GatedRunner()
        with ServiceThread(runner, queue_limit=2) as svc:
            url = svc.base_url + "/jobs"
            body = json.dumps({"experiment_id": "table2"}).encode()
            _post_error(url, body)  # in flight (held at the gate)
            time.sleep(0.3)
            for _ in range(2):  # fills the queue
                status, _ = _post_error(url, body)
                assert status == 202
            status, doc = _post_error(url, body)
            assert status == 429
            assert doc["queue_depth"] == 2 and doc["queue_limit"] == 2
            stats = _get(svc.base_url + "/stats")
            assert stats["rejected_429"] == 1
            assert stats["queue_depth"] == 2
            runner.gate.set()

    def test_drain_finishes_backlog_and_rejects_new_work(self):
        runner = _GatedRunner()
        with ServiceThread(runner, queue_limit=8) as svc:
            url = svc.base_url + "/jobs"
            body = json.dumps({"experiment_id": "table2"}).encode()
            for _ in range(3):
                _post_error(url, body)
            time.sleep(0.3)
            svc.drain()
            time.sleep(0.2)
            assert _get(svc.base_url + "/stats")["draining"] is True
            status, doc = _post_error(url, body)
            assert status == 503 and "draining" in doc["error"]
            runner.gate.set()
        # Context exit joins the server thread: the drain completed, and
        # every admitted job ran before shutdown.
        assert len(runner.ran) == 3
        records = list(svc.service.jobs.values())
        assert [r.status for r in records] == ["done"] * 3
        assert svc.service.stats.rejected_503 == 1

    def test_finished_records_are_bounded(self, monkeypatch):
        monkeypatch.setattr(daemon, "_FINISHED_RECORDS_KEPT", 2)
        runner = _GatedRunner()
        runner.gate.set()
        with ServiceThread(runner, queue_limit=8) as svc:
            ids = [
                _post(svc.base_url + "/jobs?wait=1",
                      {"experiment_id": "table2"})["job_id"]
                for _ in range(4)
            ]
            listed = [j["job_id"] for j in _get(svc.base_url + "/jobs")["jobs"]]
            assert listed == ids[-2:]
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(svc.base_url + f"/jobs/{ids[0]}")
            assert exc.value.code == 404
            assert _get(svc.base_url + f"/jobs/{ids[-1]}")["status"] == "done"
            assert _get(svc.base_url + "/stats")["completed"] == 4
