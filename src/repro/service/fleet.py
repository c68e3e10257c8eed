"""Worker-fleet supervision for ``repro serve``.

A :class:`FleetSupervisor` owns the local worker processes draining one
submission's :class:`~repro.harness.queue.SweepQueue`.  Its contract:

* a worker that exits while the grid is still live is a *fleet failure*:
  it is restarted after capped exponential backoff with decorrelated
  jitter (the same :func:`~repro.harness.queue.jittered_backoff_delay`
  the queue uses for lease reclamation), and the failure is recorded on
  the service's circuit breaker;
* a worker that exits once the grid is drained simply retired — no
  restart, no breaker event;
* when the breaker opens, or a slot exhausts ``max_restarts``, the slot
  is retired; a fleet with every slot retired while the grid is live is
  *dead*, and the submission degrades instead of hanging;
* ``drain()`` SIGTERMs every live worker (they finish or release their
  lease — never strand it), escalating to SIGKILL only past the grace
  period, then reaps the queue so any killed stragglers' leases recover.

The supervisor is poll-driven (``poll()``) so the service's asyncio loop
can drive it without threads; everything it calls is non-blocking.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.harness.queue import SweepQueue, jittered_backoff_delay
from repro.harness.worker import run_worker

# Workers never fork from the service itself: its executor threads may
# hold locks at that moment, and a forked child inherits them held and
# deadlocks on the first one it takes.  A forkserver forks each worker
# from a single-threaded server process instead (spawn where the
# platform has no forkserver), preloaded so a worker starts warm.
if "forkserver" in multiprocessing.get_all_start_methods():
    _CTX = multiprocessing.get_context("forkserver")
    _CTX.set_forkserver_preload([__name__])
else:
    _CTX = multiprocessing.get_context("spawn")


def _worker_entry(queue_dir: str) -> None:
    # Detach from any inherited signal wakeup fd (a fork child would
    # share the service loop's self-pipe, and a SIGTERM meant for the
    # worker would shut the whole service down) before installing the
    # worker's own handlers.
    signal.set_wakeup_fd(-1)
    run_worker(queue_dir, install_signal_handlers=True)


def stop_worker_launcher() -> None:
    """Stop and reap the helper processes that starting workers left.

    The forkserver, and the resource tracker it starts, live as long as
    the process that started them and exit after it — as orphans that
    nothing may reap.  A service process calls this on its way out,
    once every fleet has drained, so it leaves no process behind.  The
    stdlib only offers this through its private ``_stop`` methods.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        helper._stop()


def default_worker_factory(queue_dir: str):
    """Start one queue worker process (the production fleet member)."""
    proc = _CTX.Process(target=_worker_entry, args=(queue_dir,))
    proc.start()
    return proc


@dataclass
class _Slot:
    """One fleet position: a live process, a pending restart, or retired."""

    proc: Optional[object] = None
    restarts: int = 0
    not_before: float = 0.0  # monotonic time the next restart may run
    retired: bool = False
    exits: list = field(default_factory=list)  # observed exit codes


class FleetSupervisor:
    """Supervise ``size`` workers on one queue until it drains or dies."""

    def __init__(
        self,
        queue: SweepQueue,
        size: int = 2,
        *,
        restart_base: float = 0.25,
        restart_cap: float = 5.0,
        max_restarts: int = 5,
        breaker=None,
        worker_factory: Optional[Callable] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if size < 1:
            raise ValueError("fleet size must be >= 1")
        self.queue = queue
        self.size = size
        self.restart_base = restart_base
        self.restart_cap = restart_cap
        self.max_restarts = max_restarts
        self.breaker = breaker
        self.worker_factory = worker_factory or default_worker_factory
        self._clock = clock
        self._slots = [_Slot() for _ in range(size)]
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        for slot in self._slots:
            slot.proc = self.worker_factory(str(self.queue.root))
        self._started = True

    def poll(self) -> None:
        """Reap dead workers; restart (with backoff) or retire them."""
        if not self._started:
            return
        now = self._clock()
        drained = self.queue.drained()
        for index, slot in enumerate(self._slots):
            if slot.retired:
                continue
            if slot.proc is not None:
                if slot.proc.is_alive():
                    continue
                exitcode = slot.proc.exitcode
                slot.proc.join()
                slot.proc = None
                slot.exits.append(exitcode)
                if drained:
                    slot.retired = True  # finished its job; not a failure
                    continue
                # Died with live cells: a fleet failure.
                if self.breaker is not None:
                    self.breaker.record_failure()
                slot.restarts += 1
                if slot.restarts > self.max_restarts:
                    slot.retired = True
                    continue
                delay = jittered_backoff_delay(
                    slot.restarts, self.restart_base, self.restart_cap,
                    token=f"fleet:{self.queue.root}:{index}:{slot.restarts}",
                )
                slot.not_before = now + delay
                continue
            # Pending restart.
            if drained:
                slot.retired = True
                continue
            if self.breaker is not None and not self.breaker.allow():
                slot.retired = True  # circuit open: stop feeding it workers
                continue
            if now >= slot.not_before:
                slot.proc = self.worker_factory(str(self.queue.root))

    def drain(self, grace: float = 10.0) -> None:
        """Stop the fleet gracefully; never leave a stranded lease.

        SIGTERM first (workers finish or release their current lease),
        SIGKILL only past ``grace`` seconds, then a queue reap so a
        killed straggler's lease re-opens immediately instead of waiting
        out its deadline.
        """
        live = [s for s in self._slots if s.proc is not None
                and s.proc.is_alive()]
        for slot in live:
            try:
                os.kill(slot.proc.pid, signal.SIGTERM)
            except (ProcessLookupError, TypeError):
                pass
        deadline = time.monotonic() + grace
        for slot in live:
            slot.proc.join(max(0.0, deadline - time.monotonic()))
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join()
            slot.exits.append(slot.proc.exitcode)
            slot.proc = None
            slot.retired = True
        for slot in self._slots:
            slot.retired = True
        self._started = False
        self.queue.reap()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    @property
    def alive(self) -> int:
        return sum(1 for s in self._slots
                   if s.proc is not None and s.proc.is_alive())

    @property
    def pending_restarts(self) -> int:
        return sum(1 for s in self._slots
                   if s.proc is None and not s.retired)

    @property
    def dead(self) -> bool:
        """Every slot retired (nothing running, nothing coming back)."""
        return self._started and all(s.retired for s in self._slots)

    @property
    def pids(self) -> list:
        return [s.proc.pid for s in self._slots
                if s.proc is not None and s.proc.is_alive()]

    @property
    def total_restarts(self) -> int:
        return sum(s.restarts for s in self._slots)

    def health(self) -> dict:
        return {
            "size": self.size,
            "alive": self.alive,
            "pids": self.pids,
            "pending_restarts": self.pending_restarts,
            "restarts": self.total_restarts,
            "dead": self.dead,
        }
