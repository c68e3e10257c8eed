"""Compute Unit model.

A CU interleaves a configurable number of workgroups; each wavefront of a
resident workgroup issues its memory transactions as a dependent chain
(issue -> completion -> compute delay -> next issue).  The CU maintains the
bounded in-flight transaction buffer the paper's ACUD mechanism scans:
"every CU maintains a buffer of in-flight memory transactions ... these
memory addresses are then compared against the memory addresses of the
pages that are about to be migrated."

Drain protocol (ACUD): on a drain request the workgroup scheduler stops
issuing; the CU reports *Drain Complete* as soon as it has no outstanding
transaction touching any page in the request — other in-flight work keeps
running.  Issue resumes on :meth:`resume`.

Flush protocol (baseline pipeline flush): issue stops, every in-flight
transaction is discarded and must be replayed; the CU reports completion
only after all in-flight work lands and pays a per-transaction replay
penalty on top of the fixed flush cost.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.config.system import GPUConfig, TimingConfig
from repro.mem.access import MemoryTransaction
from repro.sim.component import Component
from repro.sim.engine import Engine

IssueFn = Callable[[MemoryTransaction, Callable[[MemoryTransaction, float], None]], None]


class _WavefrontCursor:
    """Progress of one wavefront through its access trace."""

    __slots__ = ("workgroup", "accesses", "index")

    def __init__(self, workgroup, accesses) -> None:
        self.workgroup = workgroup
        self.accesses = accesses
        self.index = 0


class ComputeUnit(Component):
    """One CU: workgroup execution plus the in-flight transaction buffer."""

    def __init__(
        self,
        engine: Engine,
        gpu_id: int,
        se_id: int,
        cu_id: int,
        config: GPUConfig,
        timing: TimingConfig,
        issue_fn: IssueFn,
        on_workgroup_complete: Callable[[object], None],
    ) -> None:
        super().__init__(engine, f"gpu{gpu_id}.se{se_id}.cu{cu_id}")
        self.gpu_id = gpu_id
        self.se_id = se_id
        self.cu_id = cu_id
        self.config = config
        self.timing = timing
        self._issue_fn = issue_fn
        self._on_workgroup_complete = on_workgroup_complete

        self._wg_queue: deque = deque()
        self._running_wgs: dict[int, int] = {}  # wg_id -> live wavefronts
        self._ready: deque = deque()  # cursors blocked on slots or pause
        self._active_cursors: set = set()

        self.outstanding: dict[int, MemoryTransaction] = {}
        self._outstanding_by_page: dict[int, int] = {}
        self._cursor_for: dict[int, _WavefrontCursor] = {}
        self._max_inflight = config.max_inflight_per_cu
        # Per-CU id stream (ids only key this CU's in-flight dicts).  A
        # process-global itertools.count would make restored snapshots
        # diverge from the run they were captured from.
        self._txn_seq = 0
        # One bound method shared by every issue, instead of a fresh
        # closure per transaction.
        self._completion = self._txn_done

        self.issue_paused = False
        self._drain_pending: Optional[set[int]] = None
        self._drain_callback: Optional[Callable[[], None]] = None
        self._flush_callback: Optional[Callable[[], None]] = None
        self._flush_discarded = 0
        # Fault injection: multiplier (>= 1) applied to inter-access issue
        # delays; wired by Machine when a throttle fault targets this GPU.
        self.throttle_fn: Optional[Callable[[float], float]] = None

    def _issue_delay(self, delay: float) -> float:
        if self.throttle_fn is not None:
            return delay * self.throttle_fn(self.now)
        return delay

    # ------------------------------------------------------------------
    # Workgroup lifecycle
    # ------------------------------------------------------------------

    def enqueue_workgroup(self, workgroup, start_time: float) -> None:
        """Queue a workgroup; it becomes eligible to start at start_time."""
        self.engine.post_at(start_time, self._admit_workgroup, workgroup)

    def _admit_workgroup(self, workgroup) -> None:
        self._wg_queue.append(workgroup)
        self._try_start_workgroups()

    def _try_start_workgroups(self) -> None:
        limit = self.config.concurrent_workgroups_per_cu
        while self._wg_queue and len(self._running_wgs) < limit:
            workgroup = self._wg_queue.popleft()
            live = [w for w in workgroup.wavefronts if len(w) > 0]
            if not live:
                self._on_workgroup_complete(workgroup)
                continue
            self._running_wgs[workgroup.wg_id] = len(live)
            self.bump("workgroups_started")
            for trace in live:
                cursor = _WavefrontCursor(workgroup, trace.accesses)
                self._active_cursors.add(cursor)
                delay = trace.accesses[0][0]
                if self.throttle_fn is not None:
                    delay = delay * self.throttle_fn(self.engine._now)
                self.engine.post(delay, self._ready_to_issue, cursor)

    def _finish_wavefront(self, cursor: _WavefrontCursor) -> None:
        self._active_cursors.discard(cursor)
        workgroup = cursor.workgroup
        remaining = self._running_wgs[workgroup.wg_id] - 1
        if remaining:
            self._running_wgs[workgroup.wg_id] = remaining
            return
        del self._running_wgs[workgroup.wg_id]
        self.bump("workgroups_completed")
        self._on_workgroup_complete(workgroup)
        self._try_start_workgroups()

    # ------------------------------------------------------------------
    # Transaction issue chain
    # ------------------------------------------------------------------

    def _ready_to_issue(self, cursor: _WavefrontCursor) -> None:
        if self.issue_paused or len(self.outstanding) >= self._max_inflight:
            self._ready.append(cursor)
            return
        # Inlined _issue(cursor) — this event callback fires once per
        # transaction and the extra frame is measurable.
        _delay, address, is_write = cursor.accesses[cursor.index]
        txn = MemoryTransaction.__new__(MemoryTransaction)
        txn.gpu_id = self.gpu_id
        txn.se_id = self.se_id
        txn.cu_id = self.cu_id
        txn.address = address
        txn.is_write = is_write
        txn.issue_time = self.engine._now
        txn.page = -1
        txn.complete_time = None
        txn.kind = None
        txn.workgroup_id = cursor.workgroup.wg_id
        txn.txn_id = txn_id = self._txn_seq
        self._txn_seq = txn_id + 1
        self.outstanding[txn_id] = txn
        self._cursor_for[txn_id] = cursor
        stats = self.stats
        try:
            stats["transactions_issued"] += 1
        except KeyError:
            stats["transactions_issued"] = 1
        self._issue_fn(txn, self._completion)

    def _issue(self, cursor: _WavefrontCursor) -> None:
        _delay, address, is_write = cursor.accesses[cursor.index]
        # Slot-for-slot equivalent of the dataclass constructor, minus the
        # generated __init__ frame and the default-factory call.
        txn = MemoryTransaction.__new__(MemoryTransaction)
        txn.gpu_id = self.gpu_id
        txn.se_id = self.se_id
        txn.cu_id = self.cu_id
        txn.address = address
        txn.is_write = is_write
        txn.issue_time = self.engine._now
        txn.page = -1
        txn.complete_time = None
        txn.kind = None
        txn.workgroup_id = cursor.workgroup.wg_id
        txn.txn_id = txn_id = self._txn_seq
        self._txn_seq = txn_id + 1
        self.outstanding[txn_id] = txn
        self._cursor_for[txn_id] = cursor
        stats = self.stats
        try:
            stats["transactions_issued"] += 1
        except KeyError:
            stats["transactions_issued"] = 1
        self._issue_fn(txn, self._completion)

    def _txn_done(self, txn: MemoryTransaction, complete_time: float) -> None:
        # Full completion body in one event-callback frame per transaction.
        cursor = self._cursor_for.pop(txn.txn_id)
        txn.complete_time = self.engine._now
        del self.outstanding[txn.txn_id]
        page = txn.page
        if page >= 0:
            count = self._outstanding_by_page.get(page, 0) - 1
            if count > 0:
                self._outstanding_by_page[page] = count
            else:
                self._outstanding_by_page.pop(page, None)
        stats = self.stats
        try:
            stats["transactions_completed"] += 1
        except KeyError:
            stats["transactions_completed"] = 1

        if self._drain_pending is not None:
            self._check_drain_progress(page)
        if self._flush_callback is not None:
            self._check_flush_progress()

        # A slot freed: release a blocked wavefront if issue is allowed.
        if not self.issue_paused and self._ready:
            if len(self.outstanding) < self._max_inflight:
                self._issue(self._ready.popleft())

        # Advance this wavefront's chain.
        cursor.index += 1
        if cursor.index >= len(cursor.accesses):
            self._finish_wavefront(cursor)
            return
        delay = cursor.accesses[cursor.index][0]
        if self.throttle_fn is not None:
            delay = delay * self.throttle_fn(self.engine._now)
        self.engine.post(delay, self._ready_to_issue, cursor)

    def note_translated(self, txn: MemoryTransaction) -> None:
        """Record the page of an in-flight transaction (ACUD's buffer scan
        compares in-flight addresses at page granularity)."""
        page = txn.page
        self._outstanding_by_page[page] = self._outstanding_by_page.get(page, 0) + 1

    # ------------------------------------------------------------------
    # ACUD drain
    # ------------------------------------------------------------------

    def request_drain(self, pages: set, callback: Callable[[], None]) -> None:
        """ACUD drain: pause issue; report when no in-flight transaction
        touches any of ``pages``."""
        self.issue_paused = True
        self.bump("drain_requests")
        pending = {p for p in pages if self._outstanding_by_page.get(p, 0) > 0}
        if not pending:
            self.bump("drain_immediate")
            callback()
            return
        self._drain_pending = pending
        self._drain_callback = callback

    def _check_drain_progress(self, completed_page: int) -> None:
        if self._drain_pending is None:
            return
        if completed_page in self._drain_pending:
            if self._outstanding_by_page.get(completed_page, 0) == 0:
                self._drain_pending.discard(completed_page)
        if not self._drain_pending:
            callback = self._drain_callback
            self._drain_pending = None
            self._drain_callback = None
            if callback is not None:
                callback()

    # ------------------------------------------------------------------
    # Pipeline flush
    # ------------------------------------------------------------------

    def request_flush(self, callback: Callable[[], None]) -> None:
        """Pipeline flush: discard all in-flight work, pay replay cost.

        Besides the fixed cost and the per-discarded-transaction replay
        penalty, each live wavefront loses its most recent pipeline
        progress: its cursor rewinds ``flush_rewind_accesses`` accesses,
        which it re-executes (compute delays and memory time included)
        once issue resumes.
        """
        self.issue_paused = True
        self.bump("flush_requests")
        rewind = self.timing.flush_rewind_accesses
        for cursor in self._active_cursors:
            if cursor.index > 0:
                rolled = min(rewind, cursor.index)
                cursor.index -= rolled
                self.bump("flush_replayed_accesses", rolled)
        self._flush_discarded = len(self.outstanding)
        self.bump("flush_discarded_txns", self._flush_discarded)
        if self._flush_discarded == 0:
            self.engine.post(self.timing.gpu_flush_cycles, callback)
            return
        self._flush_callback = callback

    def _check_flush_progress(self) -> None:
        if self._flush_callback is None or self.outstanding:
            return
        callback = self._flush_callback
        self._flush_callback = None
        penalty = (
            self.timing.gpu_flush_cycles
            + self._flush_discarded * self.timing.gpu_flush_replay_per_txn
        )
        self.engine.post(penalty, callback)

    # ------------------------------------------------------------------

    def resume(self) -> None:
        """Lift the issue pause (ACUD's *Continue* message)."""
        self.issue_paused = False
        while (
            self._ready
            and len(self.outstanding) < self.config.max_inflight_per_cu
        ):
            self._issue(self._ready.popleft())

    def idle(self) -> bool:
        """True when no workgroup is running or queued here."""
        return not self._running_wgs and not self._wg_queue and not self.outstanding

    def inflight_pages(self) -> set:
        """Pages with at least one in-flight transaction (buffer scan)."""
        return set(self._outstanding_by_page)
