"""``repro serve``: a fault-tolerant async experiment service.

The service is a thin, heavily-guarded front end over the machinery the
harness already proves byte-identical to serial ``Sweep.run()``:

* submissions arrive as JSON sweep specs (:func:`sweep_from_spec`) and
  are canonicalized to the queue's spec digest, so identical submissions
  — sequential or concurrent — share one execution;
* cells with the same effective inputs collapse to one identity
  (:func:`plan_sweep`); the fingerprint cache answers already-computed
  identities immediately, and only missing ones are enqueued
  (:meth:`SweepPlan.partition`), one queue row each;
* missing cells run through a :class:`SweepQueue` drained by a
  supervised local worker fleet (:class:`FleetSupervisor`);
* per-cell progress streams back as NDJSON while the fleet works.

Robustness is the point, not a bolt-on: a bounded admission budget sheds
load with 429 + ``Retry-After``; per-request deadlines cancel the fleet
gracefully (leases committed or released, never stranded) and the queue
directory survives for an idempotent resubmission to resume; repeated
fleet failures open a circuit breaker that flips the service to
cache-only read mode; SIGTERM drains every running submission before
exit.  A submission is owned by a background task, not its HTTP
connection — a dropped client never kills compute, it just detaches
from the stream.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.harness.io import (
    SweepResultCache,
    load_result,
    sweep_key_to_dict,
    sweep_result_to_dict,
)
from repro.harness.queue import QueueSettings, SweepQueue
from repro.harness.sweep import (
    SpecError,
    SweepPlan,
    SweepResult,
    plan_sweep,
    sweep_from_spec,
)
from repro.service.admission import (
    AdmissionController,
    AdmissionLimitExceeded,
    CircuitBreaker,
    Deadline,
)
from repro.service.fleet import FleetSupervisor, stop_worker_launcher
from repro.service.http import (
    BadRequest,
    NDJSONStream,
    Request,
    read_request,
    send_json,
)


@dataclass
class Submission:
    """One canonical sweep execution, shared by every identical request."""

    digest: str
    total: int
    plan: SweepPlan                # identities and fork plan of the grid
    cached: list                   # (grid_index, key, fingerprint, RunResult)
    missing: list                  # distinct planned cells still to compute
    qgrid: list                    # grid index of each queue cell
    queue: Optional[SweepQueue]
    fleet: Optional[FleetSupervisor]
    admitted: int = 0
    state: str = "running"         # running|done|degraded|cancelled|error
    cancel_reason: Optional[str] = None
    error: Optional[str] = None
    events: list = field(default_factory=list)
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    task: Optional[asyncio.Task] = None

    def cancel(self, reason: str) -> None:
        """Request graceful cancellation (first reason wins)."""
        if self.cancel_reason is None and not self.done_event.is_set():
            self.cancel_reason = reason

    @property
    def cached_cells(self) -> int:
        """Grid cells answered from the cache (shared cells included)."""
        answers = self.plan.answers()
        return sum(len(answers[index]) for index, *_rest in self.cached)

    def summary(self) -> dict:
        return {
            "digest": self.digest,
            "state": self.state,
            "total": self.total,
            "cached": self.cached_cells,
            "enqueued": len(self.missing),
            "cancel_reason": self.cancel_reason,
        }


class ExperimentService:
    """The ``repro serve`` application: routing, guards, supervision."""

    def __init__(
        self,
        root,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        max_in_flight_cells: int = 64,
        retry_after: float = 1.0,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        lease_duration: float = 30.0,
        max_attempts: int = 3,
        cell_timeout: Optional[float] = None,
        poll_interval: float = 0.1,
        drain_grace: float = 10.0,
        worker_factory: Optional[Callable] = None,
    ) -> None:
        self.root = Path(root)
        self.host = host
        self.port = port
        self.workers = workers
        self.lease_duration = lease_duration
        self.max_attempts = max_attempts
        self.cell_timeout = cell_timeout
        self.poll_interval = poll_interval
        self.drain_grace = drain_grace
        self.worker_factory = worker_factory
        self.cache = SweepResultCache(self.root / "cache")
        self.queues_root = self.root / "queues"
        self.queues_root.mkdir(parents=True, exist_ok=True)
        self.admission = AdmissionController(
            max_in_flight_cells=max_in_flight_cells, retry_after=retry_after
        )
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, reset_after=breaker_reset
        )
        self.started_at = time.time()
        self._submissions: dict[str, Submission] = {}
        self._digest_locks: dict[str, asyncio.Lock] = {}
        self._active_streams = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Spec canonicalization
    # ------------------------------------------------------------------

    def _prepare(self, spec: dict) -> dict:
        """Canonicalize a spec: grid, fingerprints, digest (blocking)."""
        from repro.harness.fingerprint import code_fingerprint

        deadline_s = None
        if isinstance(spec, dict) and spec.get("deadline_s") is not None:
            deadline_s = spec["deadline_s"]
            if (not isinstance(deadline_s, (int, float))
                    or isinstance(deadline_s, bool) or deadline_s <= 0):
                raise SpecError("'deadline_s' must be a positive number")
        sweep, run_params = sweep_from_spec(spec)
        grid = list(sweep._grid(
            run_params["scale"], run_params["seed"],
            run_params["max_events_per_run"], run_params["stall_threshold"],
            None, None,
        ))
        code_fp = code_fingerprint()
        plan = plan_sweep(grid, code_fp, fork=True)
        # The digest covers every grid key, not just the distinct rows:
        # submissions share an execution only if they assemble alike.
        digest = SweepQueue._spec_digest(plan.cells, code_fp)
        return {"plan": plan, "digest": digest, "code_fp": code_fp,
                "deadline_s": deadline_s}

    def _new_queue_dir(self, digest: str) -> Path:
        """A fresh queue directory for one execution of ``digest``.

        Each execution gets its own sequence-numbered directory: a
        resumed submission enqueues only the still-missing cells, whose
        spec digest differs from the original's, so reusing the old
        directory would (correctly) be rejected as a different grid.
        Old directories are kept — their quarantine bundles stay
        retrievable through ``GET /bundles``.
        """
        base = self.queues_root / digest[:16]
        base.mkdir(parents=True, exist_ok=True)
        seq = len([p for p in base.iterdir() if p.is_dir()])
        return base / f"q{seq:03d}"

    def _create_submission(self, prep: dict) -> Submission:
        """Build a Submission from prepared cells (blocking; may raise)."""
        plan = prep["plan"]
        answers = plan.answers()
        cached, qgrid = plan.partition(self.cache)
        missing = [plan.cells[index] for index in qgrid]
        events = [
            {"event": "cell", "index": cell, "status": "cached",
             "key": sweep_key_to_dict(plan.cells[cell][0])}
            for index, _key, _fp, _result in cached
            for cell in answers[index]
        ]
        if not missing:
            sub = Submission(
                digest=prep["digest"], total=len(plan.cells), plan=plan,
                cached=cached, missing=[], qgrid=[], queue=None, fleet=None,
                state="done", events=events,
            )
            sub.events.append({"event": "done", "state": "done",
                               "cached": sub.cached_cells, "enqueued": 0})
            sub.done_event.set()
            return sub
        # Guards: budget first (nothing held on refusal), then breaker.
        self.admission.admit(len(missing))
        if not self.breaker.allow():
            self.admission.release(len(missing))
            raise ServiceUnavailable(
                "circuit breaker open: serving cached results only",
                retry_after=self.breaker.retry_after,
            )
        try:
            settings = QueueSettings(
                lease_duration=self.lease_duration,
                max_attempts=self.max_attempts,
                cell_timeout=self.cell_timeout,
            )
            queue = SweepQueue.create(
                self._new_queue_dir(prep["digest"]), missing,
                settings=settings, code_fp=prep["code_fp"],
            )
            fleet = FleetSupervisor(
                queue, size=self.workers, breaker=self.breaker,
                worker_factory=self.worker_factory,
            )
        except BaseException:
            self.admission.release(len(missing))
            self.breaker.abort_trial()
            raise
        return Submission(
            digest=prep["digest"], total=len(plan.cells), plan=plan,
            cached=cached, missing=missing, qgrid=qgrid, queue=queue,
            fleet=fleet, admitted=len(missing), events=events,
        )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def _emit_cell_events(self, sub: Submission, seen: dict) -> None:
        """Append a progress event for every newly settled queue cell."""
        if sub.queue is None:
            return
        answers = sub.plan.answers()
        for qi, row in enumerate(sub.queue.rows()):
            _idx, status, _owner, _last, attempts = row[:5]
            if status in ("done", "failed", "quarantined") \
                    and seen.get(qi) != status:
                seen[qi] = status
                for cell in answers[sub.qgrid[qi]]:
                    key = sub.plan.cells[cell][0]
                    sub.events.append({
                        "event": "cell", "index": cell, "status": status,
                        "attempts": attempts, "key": sweep_key_to_dict(key),
                    })

    def _harvest(self, sub: Submission) -> None:
        """Copy every completed queue cell into the fingerprint cache.

        Run after the fleet stops (teardown), so an identical
        resubmission — including one resuming a deadline-cancelled run —
        is served from cache for everything already computed and
        enqueues only the remainder.  Failures are never cached: a
        resubmission retries them.
        """
        for qi, row in enumerate(sub.queue.rows()):
            _idx, status = row[0], row[1]
            result_path = row[7]
            if status != "done" or result_path is None:
                continue
            fingerprint = sub.missing[qi][2]
            if fingerprint is None:
                continue
            if self.cache.load(fingerprint) is None:
                self.cache.store(fingerprint, load_result(result_path))

    def _teardown_sync(self, sub: Submission) -> None:
        """Blocking cleanup: stop the fleet, harvest results (executor)."""
        if sub.fleet is not None:
            sub.fleet.drain(self.drain_grace)
        if sub.queue is not None:
            self._harvest(sub)

    async def _supervise(self, sub: Submission) -> None:
        """Own one submission: drive the fleet until done/dead/cancelled."""
        loop = asyncio.get_running_loop()
        seen: dict = {}
        try:
            await loop.run_in_executor(None, sub.fleet.start)
            while True:
                await asyncio.sleep(self.poll_interval)
                await loop.run_in_executor(None, sub.queue.reap)
                await loop.run_in_executor(None, sub.fleet.poll)
                self._emit_cell_events(sub, seen)
                if sub.cancel_reason is not None:
                    sub.state = "cancelled"
                    break
                if sub.queue.drained():
                    sub.state = "done"
                    break
                if sub.fleet.dead:
                    sub.state = "degraded"
                    break
        except Exception as exc:  # supervision must never vanish silently
            sub.state = "error"
            sub.error = f"{type(exc).__name__}: {exc}"
        finally:
            with contextlib.suppress(asyncio.CancelledError):
                await asyncio.shield(
                    loop.run_in_executor(None, self._teardown_sync, sub)
                )
            self._emit_cell_events(sub, seen)
            # Workers finishing their last cell during the graceful drain
            # can complete the grid; honor that, but a requested cancel
            # keeps its state so the client sees why the fleet stopped.
            if (sub.state == "degraded" and sub.queue is not None
                    and sub.queue.drained()):
                sub.state = "done"
            if sub.admitted:
                if sub.state == "done":
                    self.breaker.record_success()
                elif sub.state == "cancelled":
                    # Not a fleet verdict: don't hold a half-open trial.
                    self.breaker.abort_trial()
                self.admission.release(sub.admitted)
                sub.admitted = 0
            final = {"event": "done", "state": sub.state,
                     "cached": sub.cached_cells,
                     "enqueued": len(sub.missing)}
            if sub.cancel_reason is not None:
                final["reason"] = sub.cancel_reason
            if sub.error is not None:
                final["error"] = sub.error
            sub.events.append(final)
            sub.done_event.set()

    def _assemble(self, sub: Submission) -> SweepResult:
        """Merge cache hits and queue outcomes back into grid order.

        :meth:`SweepPlan.assemble` answers every shared cell from its
        identity's outcome, so the serialized result is byte-identical
        to serial ``Sweep.run()``.
        """
        collected = (sub.queue.collect() if sub.queue is not None
                     else SweepResult())
        return sub.plan.assemble(collected, sub.cached)

    # ------------------------------------------------------------------
    # HTTP handlers
    # ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await read_request(reader)
                if request is None:
                    break
                await self._dispatch(request, writer)
        except BadRequest as exc:
            with contextlib.suppress(Exception):
                await send_json(writer, 400, {"error": str(exc)})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown while the connection idles between requests;
            # close it quietly instead of logging a cancelled task.
            pass
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> None:
        path = request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        try:
            if path == "/healthz" and request.method == "GET":
                await send_json(writer, 200, self.health())
            elif path == "/sweeps" and request.method == "POST":
                await self._handle_submit(request, writer)
            elif path == "/sweeps" and request.method == "GET":
                await send_json(writer, 200, {
                    "submissions": [s.summary()
                                    for s in self._submissions.values()]
                })
            elif parts[:1] == ["sweeps"] and len(parts) >= 2 \
                    and request.method == "GET":
                await self._handle_sweep_get(request, writer, parts)
            elif parts[:1] == ["bundles"] and request.method == "GET":
                await self._handle_bundles(writer, parts[1:])
            elif path in ("/healthz", "/sweeps") \
                    or parts[:1] in (["sweeps"], ["bundles"]):
                await send_json(writer, 405, {"error": "method not allowed"})
            else:
                await send_json(writer, 404, {"error": f"no route {path}"})
        except ServiceUnavailable as exc:
            await send_json(writer, 503, {"error": str(exc)},
                            headers={"Retry-After": _retry_after(exc.retry_after)})
        except AdmissionLimitExceeded as exc:
            await send_json(writer, 429, {"error": str(exc)},
                            headers={"Retry-After": _retry_after(exc.retry_after)})
        except SpecError as exc:
            await send_json(writer, 400, {"error": str(exc)})

    async def _handle_submit(self, request: Request,
                             writer: asyncio.StreamWriter) -> None:
        spec = request.json()
        loop = asyncio.get_running_loop()
        prep = await loop.run_in_executor(None, self._prepare, spec)
        deadline = Deadline(prep["deadline_s"])
        # Per-digest lock: creation suspends into an executor, so two
        # concurrent identical submissions would otherwise both miss the
        # registry and each build a queue.  The loser of the lock finds
        # the winner's submission and just attaches to its stream.
        lock = self._digest_locks.setdefault(prep["digest"], asyncio.Lock())
        async with lock:
            sub = self._submissions.get(prep["digest"])
            if sub is None or sub.done_event.is_set():
                # Not already in flight: build a fresh execution.  A
                # repeat of a finished digest re-partitions against the
                # cache, so harvested work never enqueues again.
                sub = await loop.run_in_executor(
                    None, self._create_submission, prep
                )
                self._submissions[sub.digest] = sub
                if sub.queue is not None:
                    sub.task = asyncio.create_task(self._supervise(sub))
        await self._stream_submission(writer, sub, deadline)

    async def _stream_submission(self, writer: asyncio.StreamWriter,
                                 sub: Submission,
                                 deadline: Deadline) -> None:
        stream = NDJSONStream(writer)
        self._active_streams += 1
        try:
            await stream.start(200)
            await stream.emit({
                "event": "accepted", "digest": sub.digest,
                "state": sub.state, "total": sub.total,
                "cached": sub.cached_cells, "enqueued": len(sub.missing),
            })
            cursor = 0
            notified_deadline = False
            while True:
                while cursor < len(sub.events):
                    await stream.emit(sub.events[cursor])
                    cursor += 1
                if sub.done_event.is_set() and cursor >= len(sub.events):
                    break
                if deadline.expired and not notified_deadline:
                    notified_deadline = True
                    sub.cancel("deadline")
                    await stream.emit({
                        "event": "deadline", "digest": sub.digest,
                        "resubmit": "identical spec resumes from cache "
                                    "and completed cells",
                    })
                wait = self.poll_interval
                if not deadline.expired:
                    wait = min(wait, max(deadline.remaining, 0.001))
                await asyncio.sleep(wait)
            await stream.close()
        finally:
            self._active_streams -= 1

    async def _handle_sweep_get(self, request: Request,
                                writer: asyncio.StreamWriter,
                                parts: list) -> None:
        digest = parts[1]
        sub = self._submissions.get(digest)
        if sub is None:  # allow unique prefixes (the accepted digest is long)
            matches = [s for d, s in self._submissions.items()
                       if d.startswith(digest)]
            sub = matches[0] if len(matches) == 1 else None
        if sub is None:
            await send_json(writer, 404,
                            {"error": f"no submission {digest!r}"})
            return
        action = parts[2] if len(parts) > 2 else "status"
        if action == "status":
            payload = sub.summary()
            if sub.queue is not None:
                payload["queue"] = sub.queue.health().to_dict()
            await send_json(writer, 200, payload)
        elif action == "stream":
            await self._stream_submission(writer, sub, Deadline(None))
        elif action == "result":
            if not sub.done_event.is_set():
                await send_json(writer, 409, {
                    "error": "submission still executing; stream it or "
                             "retry later", "state": sub.state,
                })
                return
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(None, self._assemble, sub)
            await send_json(writer, 200, sweep_result_to_dict(result))
        else:
            await send_json(writer, 404, {"error": f"no action {action!r}"})

    async def _handle_bundles(self, writer: asyncio.StreamWriter,
                              parts: list) -> None:
        """Serve quarantine crash bundles straight off the queue dirs."""
        if not parts:
            bundles = []
            for manifest in sorted(
                    self.queues_root.glob("*/*/bundles/*/manifest.json")):
                cell = manifest.parent
                bundles.append("/".join(
                    [cell.parent.parent.parent.name,  # digest prefix
                     cell.parent.parent.name,         # queue sequence
                     cell.name]                       # cell-NNNNN
                ))
            await send_json(writer, 200, {"bundles": bundles})
            return
        if len(parts) < 3:
            await send_json(writer, 404, {"error": "bundle id is "
                                          "<digest>/<queue>/<cell>"})
            return
        digest_dir, queue_dir, cell = parts[0], parts[1], parts[2]
        bundle = (self.queues_root / digest_dir / queue_dir / "bundles"
                  / cell)
        try:
            bundle = bundle.resolve()
            bundle.relative_to(self.queues_root.resolve())
        except ValueError:
            await send_json(writer, 404, {"error": "bundle id escapes the "
                                          "bundle root"})
            return
        if not (bundle / "manifest.json").is_file():
            await send_json(writer, 404,
                            {"error": f"no bundle {'/'.join(parts[:3])!r}"})
            return
        if len(parts) == 3:
            manifest = json.loads((bundle / "manifest.json").read_text())
            files = sorted(p.name for p in bundle.iterdir() if p.is_file())
            await send_json(writer, 200,
                            {"manifest": manifest, "files": files})
            return
        member = (bundle / parts[3]).resolve()
        try:
            member.relative_to(bundle)
        except ValueError:
            await send_json(writer, 404, {"error": "file escapes the bundle"})
            return
        if not member.is_file():
            await send_json(writer, 404,
                            {"error": f"no file {parts[3]!r} in bundle"})
            return
        body = member.read_bytes()
        head = (f"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream"
                f"\r\nContent-Length: {len(body)}\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    def health(self) -> dict:
        payload = {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "breaker": self.breaker.to_dict(),
            "admission": self.admission.to_dict(),
            "submissions": {},
            "worker_pids": [],
        }
        for digest, sub in self._submissions.items():
            entry = sub.summary()
            if sub.fleet is not None:
                entry["fleet"] = sub.fleet.health()
                payload["worker_pids"].extend(entry["fleet"]["pids"])
            if sub.queue is not None:
                entry["queue"] = sub.queue.health().to_dict()
            payload["submissions"][digest] = entry
        return payload

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (the actual port lands in ``port``)."""
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain every running submission, release all."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        running = [s for s in self._submissions.values()
                   if not s.done_event.is_set()]
        for sub in running:
            sub.cancel("shutdown")
        if drain and running:
            await asyncio.gather(
                *(s.done_event.wait() for s in running)
            )
        if drain:
            # Let attached NDJSON streams flush their final events and
            # close cleanly before the loop (and its tasks) go away.
            waited = 0.0
            while self._active_streams > 0 and waited < 10.0:
                await asyncio.sleep(self.poll_interval)
                waited += self.poll_interval
        elif not drain:
            for sub in running:
                if sub.fleet is not None:
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, sub.fleet.drain, 0.0)

    def request_stop(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def _main(self, install_signals: bool = False,
                    ready: Optional[threading.Event] = None) -> None:
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.request_stop)
            print(f"repro serve listening on http://{self.host}:{self.port} "
                  f"(root {self.root})", flush=True)
        if ready is not None:
            ready.set()
        await self._stop_requested.wait()
        await self.shutdown(drain=True)

    def run(self) -> int:
        """Serve until SIGTERM/SIGINT; drain gracefully; exit 0."""
        asyncio.run(self._main(install_signals=True))
        stop_worker_launcher()
        return 0

    # -- test harness helpers ------------------------------------------

    def start_background(self) -> "ExperimentService":
        """Run the service on a daemon thread; returns when bound."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(ready=ready)), daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        return self

    def stop_background(self, timeout: float = 60.0) -> None:
        """Graceful drain + stop of a background service thread."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self.request_stop)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("service did not stop within the timeout")
        self._thread = None


class ServiceUnavailable(RuntimeError):
    """Compute refused while the circuit breaker is open (HTTP 503)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def _retry_after(seconds: float) -> str:
    """Retry-After header value: whole seconds, at least 1."""
    return str(max(1, int(seconds + 0.999)))
