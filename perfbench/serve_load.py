"""The ``serve_mixed`` workload: ``griffin-sim serve`` under closed-loop load.

The service runs as its own process (``python -m repro.cli serve``) on a
fresh root inside the benchmark's work directory and a free port.  Two
client threads of this process send a seeded mix of requests, each
waiting for its previous reply (a closed loop):

* ``hit``  — a spec computed before the timed window (fully cached);
* ``miss`` — a spec with a fresh seed, so its cells must be computed;
* ``dup``  — one fresh spec sent by both clients at once; the second
  should attach to the first's execution;
* ``bad``  — a malformed spec, which must be answered 400.

The mix is exact within each block of requests, so every run does the same
work; only the order and the spec seeds depend on the workload seed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from measure import canonical_digest, summarize

REQUEST_TIMEOUT_S = 30.0
STARTUP_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 60.0

# Specs a client sends; a malformed one must be refused with 400.
MALFORMED = (
    b'{"workloads": ["NOPE"], "policies": ["baseline"]}',
    b'{"workloads": ["MT"], "policies": ["baseline"], "bogus": 1}',
    b'{"workloads": ["MT"], "policies": ["baseline"], "scale": "big"}',
    b'{"workloads": [], "policies": ["griffin"]}',
    b'["MT", "baseline"]',
    b'{"workloads": ["MT"], "policies": ["baseline"], "deadline_s": -1}',
)


def cell_spec(seed: int, cells: dict) -> dict:
    """One valid spec: ``cells`` workloads x policies on a tiny system."""
    return {
        "workloads": cells["workloads"],
        "policies": cells["policies"],
        "configs": {"tiny": {"preset": "tiny", "gpus": cells["gpus"]}},
        "scale": cells["scale"],
        "seed": seed,
    }


def plan_jobs(seed: int, blocks: int, mix: dict, hit_pool: int) -> list:
    """The seeded request schedule: ``blocks`` shuffled blocks of ``mix``.

    A job is ``(kind, payload)``: a hit-pool index, a fresh spec seed, or a
    malformed body.  A ``dup`` appears as two consecutive jobs with one
    shared seed, taken by the two clients.
    """
    rng = random.Random(seed)
    fresh = 1_000_000 * (seed + 1)
    jobs = []
    for _ in range(blocks):
        block = [kind for kind, count in mix.items() for _ in range(count)]
        rng.shuffle(block)
        for kind in block:
            if kind == "hit":
                jobs.append(("hit", rng.randrange(hit_pool)))
            elif kind == "bad":
                jobs.append(("bad", rng.randrange(len(MALFORMED))))
            else:
                fresh += 1
                jobs.append((kind, fresh))
                if kind == "dup":
                    jobs.append((kind, fresh))
    return jobs


def _http(port: int, method: str, path: str, body: bytes = None):
    """One request; returns ``(status, body bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def submit(port: int, body: bytes, traced: bool) -> dict:
    """POST a spec and read its NDJSON stream to the end.

    Untraced requests read the stream in one piece and time only its end;
    traced ones read it line by line and also time the ``accepted`` line.
    """
    record = {"status": None, "events": []}
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    start = time.perf_counter()
    try:
        conn.request("POST", "/sweeps", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        record["status"] = resp.status
        if resp.status != 200 or not traced:
            lines = resp.read().splitlines()
        else:
            lines = []
            while True:
                line = resp.readline()
                if not line:
                    break
                lines.append(line)
                if "accept_ms" not in record and b'"accepted"' in line:
                    record["accept_ms"] = (time.perf_counter() - start) * 1e3
        record["ms"] = (time.perf_counter() - start) * 1e3
        if resp.status == 200:
            record["events"] = [json.loads(line) for line in lines
                                if line.strip()]
    except (OSError, http.client.HTTPException, ValueError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        conn.close()
    return record


def stream_ok(record: dict) -> bool:
    """A valid spec's stream: 200, an ``accepted`` line, ends ``done``."""
    events = record["events"]
    return (record["status"] == 200 and len(events) >= 2
            and events[0].get("event") == "accepted"
            and events[-1] == {**events[-1], "event": "done",
                               "state": "done"})


class Service:
    """One ``griffin-sim serve`` process on its own root and port."""

    def __init__(self, root: Path, repo: Path, env: dict, workers: int):
        self.root = root
        self.repo = repo
        self.env = env
        self.workers = workers
        self.proc = None
        self.port = None
        self._log = None
        self._drain = None

    def start(self) -> float:
        """Spawn, wait until ``/healthz`` answers; returns set-up seconds."""
        self.root.mkdir(parents=True)
        self._log = open(self.root.parent / f"{self.root.name}.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--root", str(self.root / "state"), "--port", "0",
             "--workers", str(self.workers)],
            cwd=self.repo, env=self.env, stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL,
            start_new_session=True,  # its own group: workers included
        )
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.kill()
            raise RuntimeError(f"service did not report its port: {line!r}")
        self.port = int(match.group(1))
        # Keep draining stdout so the service never blocks on a full pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()
        deadline = start + STARTUP_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                if _http(self.port, "GET", "/healthz")[0] == 200:
                    return time.perf_counter() - start
            except OSError:
                pass
            time.sleep(0.005)
        self.kill()
        raise RuntimeError("service /healthz did not answer")

    def peak_rss_mb(self) -> float:
        """The service process's peak resident memory (Linux VmHWM)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1)
        return int(kib) / 1024.0

    def stop(self, inspect=None) -> list:
        """SIGTERM, then check the shutdown was clean.

        Returns the problems found: a non-zero exit, a process of the
        service's group (its forked workers) that outlived it, or a root
        that could not be removed.  ``inspect(state_dir)`` runs after exit,
        before the root goes.
        """
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        if code != 0:
            problems.append(f"service exit code {code}")
        if _group_alive(self.proc.pid):
            problems.append("service processes outlived the service")
        self.kill()
        if inspect is not None:
            inspect(self.root / "state")
        shutil.rmtree(self.root, ignore_errors=True)
        if self.root.exists():
            problems.append(f"service root {self.root} left behind")
        else:
            (self.root.parent / f"{self.root.name}.log").unlink()
        return problems

    def kill(self) -> None:
        """SIGKILL whatever is left of the service's process group."""
        if self.proc is not None:
            if _group_alive(self.proc.pid):
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            if self._drain is not None:
                self._drain.join(SHUTDOWN_TIMEOUT_S)
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()


def _group_alive(pgid: int) -> bool:
    """Whether any process is left in a process group."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class LoadRun:
    """Two closed-loop clients working through one job schedule."""

    def __init__(self, port: int, jobs: list, hit_specs: list,
                 cells: dict, trace: bool):
        self.port = port
        self.jobs = jobs
        self.hit_specs = hit_specs
        self.cells = cells
        self.trace = trace
        self.records = []
        self._next = 0
        self._lock = threading.Lock()
        self._barriers = {}

    def _take(self):
        with self._lock:
            if self._next >= len(self.jobs):
                return None
            index = self._next
            self._next += 1
            kind, payload = self.jobs[index]
            barrier = None
            if kind == "dup":
                barrier = self._barriers.setdefault(
                    payload, threading.Barrier(2, timeout=REQUEST_TIMEOUT_S))
            return index, kind, payload, barrier

    def _client(self) -> None:
        while True:
            job = self._take()
            if job is None:
                return
            index, kind, payload, barrier = job
            if kind == "hit":
                spec = self.hit_specs[payload]
            elif kind == "bad":
                spec = None
            else:
                spec = cell_spec(payload, self.cells)
            body = (MALFORMED[payload] if spec is None
                    else json.dumps(spec).encode("utf-8"))
            if barrier is not None:
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    pass  # the partner failed; send alone
            traced = self.trace and index % 2 == 1
            record = submit(self.port, body, traced)
            record.update(kind=kind, traced=traced, spec=spec)
            with self._lock:
                self.records.append(record)

    def run(self) -> float:
        """Drive both clients to the end of the schedule; returns seconds."""
        threads = [threading.Thread(target=self._client) for _ in range(2)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start


def reference_digests(specs: list, spawn) -> list:
    """Serial ``Sweep.run`` digests of ``specs``, split over two processes."""
    halves = [specs[0::2], specs[1::2]]
    outs = spawn([("refs", {}, json.dumps(half).encode()) for half in halves])
    digests = [None] * len(specs)
    digests[0::2] = outs[0]["digests"]
    digests[1::2] = outs[1]["digests"]
    return digests


def run_serve(cfg: dict, seed: int, seconds: float, trace: bool,
              work: Path, repo: Path, env: dict, spawn,
              inject_mismatch: bool = False) -> dict:
    """Run the workload; returns metrics, layer metrics, ops and failures.

    ``spawn(jobs)`` runs ``(mode, args, stdin)`` jobs of ``child.py``
    concurrently and returns their outputs.
    """
    cells = cfg["cells"]
    setups = []
    problems = []
    # Set-up runs: spawn, wait for /healthz, shut down cleanly.
    for attempt in range(cfg["setups"] - 1):
        service = Service(work / f"setup{attempt}", repo, env,
                          cfg["workers"])
        setups.append(service.start())
        problems += service.stop()

    service = Service(work / "serve", repo, env, cfg["workers"])
    setups.append(service.start())
    try:
        hit_specs = [cell_spec(seed * 1000 + k, cells)
                     for k in range(cfg["hit_pool"])]
        warm = []
        for spec in hit_specs:
            record = submit(service.port, json.dumps(spec).encode(), False)
            record.update(kind="warm", traced=False, spec=spec)
            warm.append(record)
        # Whole blocks of the mix: at least the floors, at least `seconds`.
        records = []
        window_s = 0.0
        blocks = cfg["blocks"]
        while not records or window_s < seconds:
            jobs = plan_jobs(seed + len(records), blocks, cfg["mix"],
                             cfg["hit_pool"])
            load = LoadRun(service.port, jobs, hit_specs, cells, trace)
            window_s += load.run()
            records += load.records
            blocks = 1

        # Results of every distinct valid spec, fetched outside the window.
        results = {}
        for record in warm + records:
            if record["spec"] is None or not stream_ok(record):
                continue
            digest = record["events"][0]["digest"]
            if digest not in results:
                status, body = _http(service.port, "GET",
                                     f"/sweeps/{digest}/result")
                results[digest] = (
                    record["spec"],
                    canonical_digest(json.loads(body))
                    if status == 200 else f"HTTP {status}",
                )
        rss_mb = service.peak_rss_mb()
        queues = {}

        def inspect(state: Path) -> None:
            queues.update(spawn([("queues", {"state": str(state)}, None)])[0])

        problems += service.stop(inspect=inspect if trace else None)
    except BaseException:
        service.kill()
        raise

    # Reference results: serial Sweep.run of each spec, outside the window.
    digests = list(results)
    refs = reference_digests([results[d][0] for d in digests], spawn)
    if inject_mismatch and refs:
        refs[0] = "injected-mismatch"
    problems += [f"result of {d} differs from serial Sweep.run"
                 for d, ref in zip(digests, refs) if results[d][1] != ref]
    problems += [f"warm-up spec failed: {_describe(r)}"
                 for r in warm if not stream_ok(r)]
    failed_requests = [r for r in records
                       if (r["status"] != 400 if r["kind"] == "bad"
                           else not stream_ok(r))]
    problems += [f"{r['kind']} request failed: {_describe(r)}"
                 for r in failed_requests]

    ok = [r for r in records if r["kind"] != "bad" and stream_ok(r)]
    hits = [r["ms"] for r in ok if r["kind"] == "hit"]
    misses = [r["ms"] for r in ok if r["kind"] != "hit"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput": len(ok) / window_s,
        "latency_p50_ms": _median([r["ms"] for r in ok]),
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "serve_hit_ms": summarize(hits),
        "serve_miss_ms": summarize(misses),
        "serve_req_per_s": len(ok) / window_s,
        "window_s": window_s,
        "requests": len(records),
    }
    layers = _layers(records, ok, queues) if trace else {}
    units = {"latency_p50_ms": "ms", "service.accept_ms": "ms",
             "service.compute_ms": "ms", "service.cache_hit_ratio": "fraction",
             "trace_overhead_ratio": "ratio"}
    units.update((name, "count") for name in layers if name not in units)
    # Operations: requests, warm-up specs, result checks, service shutdowns.
    attempted = len(records) + len(warm) + len(results) + cfg["setups"]
    return {
        "metrics": metrics, "layers": layers, "units": units,
        "detail": detail, "attempted": attempted, "failed": len(problems),
        "problems": problems,
    }


def _describe(record: dict) -> str:
    tail = record["events"][-1] if record["events"] else None
    return (f"status {record['status']} {record.get('error', '')} "
            f"last event {tail}")


def _layers(records: list, ok: list, queues: dict) -> dict:
    statuses = [r["status"] for r in records]
    traced = [r for r in ok if r["traced"]]
    traced_hits = [r["ms"] for r in traced if r["kind"] == "hit"]
    untraced_hits = [r["ms"] for r in ok
                     if r["kind"] == "hit" and not r["traced"]]
    accepted = [r["events"][0] for r in ok]
    dup_digests = {r["events"][0]["digest"] for r in ok if r["kind"] == "dup"}
    return {
        "service.accept_ms": _median([r["accept_ms"] for r in traced]),
        "service.compute_ms": _median([r["ms"] - r["accept_ms"]
                                       for r in traced
                                       if r["kind"] != "hit"]),
        "service.cache_hit_ratio": (sum(a["cached"] for a in accepted)
                                    / max(1, sum(a["total"]
                                                 for a in accepted))),
        # A duplicate pair that ran once saved one execution.
        "service.dup_shared": sum(
            2 - queues["executions"].get(d[:16], 2) for d in dup_digests),
        "service.http_400": statuses.count(400),
        "service.http_429": statuses.count(429),
        "service.http_5xx": sum(1 for s in statuses
                                if s is not None and s >= 500),
        "harness.queue.reclaims": queues["reclaims"],
        "harness.queue.quarantined": queues["quarantined"],
        "trace_overhead_ratio": (_median(traced_hits) / _median(untraced_hits)
                                 if traced_hits and untraced_hits else 0.0),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0
