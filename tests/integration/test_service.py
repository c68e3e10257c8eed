"""End-to-end tests for ``repro serve``: parity, dedupe, robustness.

The contract: anything the service computes is byte-identical to serial
``Sweep.run()``; anything it has computed before is answered from the
fingerprint cache without touching the simulator; and every failure
mode (over-admission, deadlines, dying fleets, SIGTERM) degrades the
request or flips to cache-only mode — never wedges the service or
strands a lease.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.io import SweepResultCache, sweep_result_to_dict
from repro.harness.queue import QueueSettings, SweepQueue
from repro.harness.sweep import plan_queue_cells, sweep_from_spec
from repro.harness.worker import _CTX
from repro.service.app import ExperimentService

SPEC4 = {
    "workloads": ["MT"],
    "policies": ["griffin", "griffin_flush"],
    "configs": {"tiny": {"preset": "tiny", "gpus": 2}},
    "hypers": {"default": {},
               "eager": {"min_pages_per_source": 1, "lambda_d": 1.5}},
    "scale": 0.008, "seed": 5,
}
SPEC2 = {
    "workloads": ["MT"],
    "policies": ["griffin", "griffin_flush"],
    "configs": {"tiny": {"preset": "tiny", "gpus": 2}},
    "scale": 0.008, "seed": 5,
}
SPEC1 = {
    "workloads": ["MT"],
    "policies": ["baseline"],
    "configs": {"tiny": {"preset": "tiny", "gpus": 2}},
    "scale": 0.008, "seed": 5,
}


def _run_serial(spec):
    sweep, params = sweep_from_spec(spec)
    return sweep.run(
        scale=params["scale"], seed=params["seed"],
        max_events_per_run=params["max_events_per_run"],
        stall_threshold=params["stall_threshold"],
    )


@pytest.fixture(scope="module")
def oracle4():
    return _run_serial(SPEC4)


@pytest.fixture(scope="module")
def oracle2():
    return _run_serial(SPEC2)


@pytest.fixture(scope="module")
def oracle1():
    return _run_serial(SPEC1)


def _start(root, **kwargs) -> ExperimentService:
    kwargs.setdefault("poll_interval", 0.05)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease_duration", 10.0)
    service = ExperimentService(root, **kwargs)
    service.start_background()
    return service


def _request(port, method, path, body=None, timeout=600.0):
    """One HTTP request; NDJSON responses decode to an event list."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        head = {k.lower(): v for k, v in resp.getheaders()}
        if head.get("content-type", "").startswith("application/x-ndjson"):
            payload = [json.loads(line) for line in
                       raw.decode().splitlines()]
        else:
            try:
                payload = json.loads(raw)
            except (ValueError, UnicodeDecodeError):
                payload = raw
        return resp.status, payload, head
    finally:
        conn.close()


def _submit(port, spec, timeout=600.0):
    return _request(port, "POST", "/sweeps", body=json.dumps(spec),
                    timeout=timeout)


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _queue_dirs(root) -> list:
    return sorted(p for p in Path(root).glob("queues/*/q*") if p.is_dir())


def _warm_cache(root, spec, oracle) -> None:
    """Pre-populate the service cache as a finished run would have."""
    from repro.harness.fingerprint import code_fingerprint

    sweep, params = sweep_from_spec(spec)
    grid = list(sweep._grid(params["scale"], params["seed"],
                            params["max_events_per_run"],
                            params["stall_threshold"], None, None))
    cache = SweepResultCache(Path(root) / "cache")
    for key, _args, fingerprint, _gfp in plan_queue_cells(
            grid, code_fingerprint()):
        cache.store(fingerprint, oracle.points[key])


def _noop() -> None:
    """Target for crash-fleet worker processes: exit immediately."""


def _crashing_worker_factory(queue_dir):
    proc = _CTX.Process(target=_noop)
    proc.start()
    return proc


class TestServiceParity:
    def test_stream_executes_then_cache_answers_identically(
            self, tmp_path, oracle4):
        service = _start(tmp_path / "root")
        try:
            status, events, _ = _submit(service.port, SPEC4)
            assert status == 200
            assert events[0]["event"] == "accepted"
            assert events[0]["total"] == 4
            assert events[0]["cached"] == 0 and events[0]["enqueued"] == 4
            cells = [e for e in events if e["event"] == "cell"]
            assert len(cells) == 4
            assert all(e["status"] == "done" for e in cells)
            assert events[-1] == {"event": "done", "state": "done",
                                  "cached": 0, "enqueued": 4}

            digest = events[0]["digest"]
            status, result, _ = _request(
                service.port, "GET", f"/sweeps/{digest}/result")
            assert status == 200
            assert _dump(result) == _dump(sweep_result_to_dict(oracle4))

            # Identical resubmission: answered entirely from cache —
            # nothing enqueued, no simulator involvement, same bytes.
            status, events2, _ = _submit(service.port, SPEC4)
            assert status == 200
            assert events2[0]["cached"] == 4 and events2[0]["enqueued"] == 0
            assert events2[0]["state"] == "done"
            status, result2, _ = _request(
                service.port, "GET", f"/sweeps/{digest}/result")
            assert _dump(result2) == _dump(sweep_result_to_dict(oracle4))
            assert len(_queue_dirs(tmp_path / "root")) == 1

            status, health, _ = _request(service.port, "GET", "/healthz")
            assert status == 200
            assert health["breaker"]["state"] == "closed"
            assert health["admission"]["in_flight_cells"] == 0
        finally:
            service.stop_background()

    def test_result_conflicts_while_running_and_404s_unknown(self, tmp_path):
        service = _start(tmp_path / "root")
        try:
            status, payload, _ = _request(
                service.port, "GET", "/sweeps/deadbeef/result")
            assert status == 404
            status, payload, _ = _request(service.port, "GET", "/nope")
            assert status == 404
            status, payload, _ = _request(
                service.port, "POST", "/sweeps", body=json.dumps(
                    {"workloads": ["MT"], "policies": ["warp_drive"]}))
            assert status == 400 and "warp_drive" in payload["error"]
        finally:
            service.stop_background()


class TestDuplicateSubmissions:
    def test_concurrent_identical_specs_share_one_execution(
            self, tmp_path, oracle2):
        service = _start(tmp_path / "root")
        try:
            results = [None, None]

            def submit(slot):
                results[slot] = _submit(service.port, SPEC2)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            for status, events, _ in results:
                assert status == 200
                assert events[-1]["state"] == "done"
            digests = {r[1][0]["digest"] for r in results}
            assert len(digests) == 1  # canonicalized to one submission

            # One execution total: a single queue directory, and every
            # cell ran exactly once (attempts == 1).
            dirs = _queue_dirs(tmp_path / "root")
            assert len(dirs) == 1
            rows = SweepQueue.open(dirs[0]).rows()
            assert [row[1] for row in rows] == ["done", "done"]
            assert [row[4] for row in rows] == [1, 1]

            (digest,) = digests
            status, result, _ = _request(
                service.port, "GET", f"/sweeps/{digest}/result")
            assert _dump(result) == _dump(sweep_result_to_dict(oracle2))
        finally:
            service.stop_background()


def _knob_miss(seed: int) -> dict:
    """Three baseline knob variants: one cell identity, one queue row."""
    return {
        "workloads": ["MT"], "policies": ["baseline"],
        "configs": {"tiny": {"preset": "tiny", "gpus": 2}},
        "hypers": {"default": {}, "half_round": {"max_pages_per_round": 96},
                   "strict": {"lambda_d": 3.0}},
        "scale": 0.005, "seed": seed,
    }


class TestConcurrentMisses:
    def test_concurrent_distinct_misses_all_stream_done(self, tmp_path):
        """Concurrent submissions that each need computation all finish.

        Each submission starts its own fleet while the service's
        executor threads work on the other.  Workers forked straight
        from that process could inherit a lock held by one of those
        threads and block on it forever; they start from a forkserver
        instead.  Every stream must reach ``done`` within the deadline,
        with the shared knob variants answered from one enqueued row.
        """
        service = _start(tmp_path / "root")
        try:
            for round_seed in (101, 103, 105):
                specs = [_knob_miss(round_seed), _knob_miss(round_seed + 1)]
                outcomes: list = [None, None]

                def submit(slot, spec):
                    try:
                        outcomes[slot] = _submit(service.port, spec,
                                                 timeout=60.0)
                    except Exception as exc:  # the socket timed out
                        outcomes[slot] = exc

                threads = [threading.Thread(target=submit, args=(i, spec))
                           for i, spec in enumerate(specs)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=90.0)
                assert not any(t.is_alive() for t in threads)
                for spec, outcome in zip(specs, outcomes):
                    assert isinstance(outcome, tuple), outcome
                    status, events, _ = outcome
                    assert status == 200
                    assert events[0]["enqueued"] == 1
                    assert events[-1]["state"] == "done"
                    assert len([e for e in events
                                if e["event"] == "cell"]) == 3
                    status, result, _ = _request(
                        service.port, "GET",
                        f"/sweeps/{events[0]['digest']}/result")
                    assert _dump(result) == _dump(
                        sweep_result_to_dict(_run_serial(spec)))
        finally:
            service.stop_background()


class TestBackpressure:
    def test_over_budget_submission_sheds_with_429(self, tmp_path):
        service = _start(tmp_path / "root", max_in_flight_cells=1,
                         retry_after=7.0)
        try:
            status, payload, headers = _submit(service.port, SPEC2)
            assert status == 429
            assert "retry-after" in headers
            assert int(headers["retry-after"]) >= 7
            assert "budget" in payload["error"]
            # The refusal held nothing: the budget is still free.
            status, health, _ = _request(service.port, "GET", "/healthz")
            assert health["admission"]["in_flight_cells"] == 0
        finally:
            service.stop_background()


class TestDeadline:
    def test_deadline_cancels_cleanly_then_resubmission_resumes(
            self, tmp_path, oracle4):
        service = _start(tmp_path / "root")
        try:
            spec = dict(SPEC4, deadline_s=0.01)
            status, events, _ = _submit(service.port, spec)
            assert status == 200
            assert any(e["event"] == "deadline" for e in events)
            assert events[-1]["state"] == "cancelled"
            assert events[-1]["reason"] == "deadline"

            # The cancelled fleet left nothing stranded: every lease was
            # committed or released during the graceful drain.
            for queue_dir in _queue_dirs(tmp_path / "root"):
                health = SweepQueue.open(queue_dir).health()
                assert health.stats.leased == 0

            # An identical resubmission (the deadline is not part of the
            # spec digest) resumes from whatever completed and finishes.
            status, events2, _ = _submit(service.port, SPEC4)
            assert status == 200
            assert events2[0]["digest"] == events[0]["digest"]
            assert events2[-1]["state"] == "done"
            assert events2[0]["cached"] + events2[0]["enqueued"] == 4

            status, result, _ = _request(
                service.port, "GET", f"/sweeps/{events[0]['digest']}/result")
            assert status == 200
            assert _dump(result) == _dump(sweep_result_to_dict(oracle4))
        finally:
            service.stop_background()


class TestCircuitBreaker:
    def test_dead_fleet_opens_breaker_to_cache_only_mode(
            self, tmp_path, oracle1):
        service = _start(tmp_path / "root", breaker_threshold=2,
                         breaker_reset=300.0,
                         worker_factory=_crashing_worker_factory)
        try:
            _warm_cache(tmp_path / "root", SPEC1, oracle1)

            # Workers die instantly: the submission degrades and the
            # repeated fleet failures open the circuit.
            status, events, _ = _submit(service.port, SPEC2)
            assert status == 200
            assert events[-1]["state"] == "degraded"
            status, health, _ = _request(service.port, "GET", "/healthz")
            assert health["breaker"]["state"] == "open"

            # Compute-needing submissions are refused with Retry-After...
            status, payload, headers = _submit(service.port, SPEC4)
            assert status == 503
            assert "retry-after" in headers
            assert "cache" in payload["error"]

            # ...but fully cached specs are still served, byte-identical.
            status, events2, _ = _submit(service.port, SPEC1)
            assert status == 200
            assert events2[0]["cached"] == 1 and events2[0]["enqueued"] == 0
            status, result, _ = _request(
                service.port, "GET",
                f"/sweeps/{events2[0]['digest']}/result")
            assert _dump(result) == _dump(sweep_result_to_dict(oracle1))
        finally:
            service.stop_background()


class TestGracefulShutdown:
    def test_sigterm_drain_releases_leases_and_resumes_after_restart(
            self, tmp_path, oracle2):
        root = tmp_path / "root"
        service = _start(root)
        response = {}

        def submit():
            response["value"] = _submit(service.port, SPEC2)

        thread = threading.Thread(target=submit)
        try:
            thread.start()
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                _status, health, _ = _request(service.port, "GET", "/healthz")
                running = [s for s in health["submissions"].values()
                           if s["state"] == "running"]
                if running and health["worker_pids"]:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("submission never reached the running fleet")
        finally:
            service.stop_background()  # graceful drain, like SIGTERM
            thread.join(timeout=60)

        status, events, _ = response["value"]
        assert status == 200
        assert events[-1]["event"] == "done"
        assert events[-1]["state"] in ("cancelled", "done")
        if events[-1]["state"] == "cancelled":
            assert events[-1]["reason"] == "shutdown"

        for queue_dir in _queue_dirs(root):
            assert SweepQueue.open(queue_dir).health().stats.leased == 0

        # A fresh service on the same root resumes from the harvested
        # cache and converges to the serial bytes.
        service2 = _start(root)
        try:
            status, events2, _ = _submit(service2.port, SPEC2)
            assert status == 200
            assert events2[-1]["state"] == "done"
            status, result, _ = _request(
                service2.port, "GET",
                f"/sweeps/{events2[0]['digest']}/result")
            assert _dump(result) == _dump(sweep_result_to_dict(oracle2))
        finally:
            service2.stop_background()


def _quarantined_queue(queues_root: Path) -> Path:
    """Fabricate a drained queue with one quarantined cell + bundle."""
    from tests.unit.test_queue import make_cells, make_result

    queue_dir = queues_root / "feedc0defeedc0de" / "q000"
    queue = SweepQueue.create(
        queue_dir, make_cells(2),
        QueueSettings(lease_duration=10.0, max_attempts=3,
                      backoff_base=1.0, backoff_cap=4.0),
    )
    lease = queue.claim("w1", now=0.0)
    queue.complete(lease.idx, "w1", make_result())
    for now in (0.0, 10.0, 100.0):
        lease = queue.claim("w1", now=now)
        queue.fail(lease.idx, "w1", "RuntimeError", "flaky node",
                   retryable=True, now=now)
    assert queue.stats().quarantined == 1
    return queue_dir


class TestBundlesEndpoint:
    def test_quarantine_bundles_are_listed_and_retrievable(self, tmp_path):
        root = tmp_path / "root"
        (root / "queues").mkdir(parents=True)
        _quarantined_queue(root / "queues")
        service = _start(root)
        try:
            status, payload, _ = _request(service.port, "GET", "/bundles")
            assert status == 200
            assert len(payload["bundles"]) == 1
            bundle_id = payload["bundles"][0]
            assert bundle_id.startswith("feedc0defeedc0de/q000/cell-")

            status, bundle, _ = _request(
                service.port, "GET", f"/bundles/{bundle_id}")
            assert status == 200
            assert "manifest.json" in bundle["files"]
            assert bundle["manifest"]["kind"] == "quarantine"
            assert bundle["manifest"]["failure"]["attempts"] == 3

            status, raw, headers = _request(
                service.port, "GET", f"/bundles/{bundle_id}/manifest.json")
            assert status == 200
            assert headers["content-type"] == "application/octet-stream"
            assert raw == bundle["manifest"]  # same JSON, served verbatim

            status, _payload, _ = _request(
                service.port, "GET", "/bundles/a/../../../etc/passwd")
            assert status == 404
            status, _payload, _ = _request(
                service.port, "GET", "/bundles/nope/q000/cell-00000")
            assert status == 404
        finally:
            service.stop_background()


class TestQueueStatusCLI:
    def test_exit_codes_and_rendering(self, tmp_path, capsys):
        assert main(["queue", "status", str(tmp_path / "missing")]) == 2

        queue_dir = _quarantined_queue(tmp_path / "queues")
        assert main(["queue", "status", str(queue_dir)]) == 1
        out = capsys.readouterr().out
        assert "1 quarantined" in out and "1 done" in out

        assert main(["queue", "status", str(queue_dir), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"]["quarantined"] == 1
        assert payload["drained"] is True  # quarantined is terminal

    def test_healthy_leased_queue_exits_zero_and_shows_lease(
            self, tmp_path, capsys):
        from tests.unit.test_queue import make_cells

        queue = SweepQueue.create(
            tmp_path / "q", make_cells(1),
            QueueSettings(lease_duration=10.0, max_attempts=3),
        )
        queue.claim("host:1:abc")
        assert main(["queue", "status", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "1 leased" in out and "host:1:abc" in out
