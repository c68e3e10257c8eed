"""The memory access path: what happens to one post-coalescing transaction.

This implements the paper's Figures 3 and 4 end to end:

1. The CU issues; the Shader Engine access counter records the page
   (pre-translation, as the VIPT L1 requires).
2. L1 TLB, then L2 TLB.  TLBs only ever hold *local* translations, so any
   hit is a local access (L1 -> L2 -> HBM).
3. On an L2 TLB miss the request crosses the fabric to the IOMMU and
   queues for a page-table walker.
4. Resolution:
   * page on the requesting GPU -> translation reply, cached in the TLBs,
     local access;
   * page on a remote GPU -> remote physical address returned (never
     cached), Direct Cache Access through the remote RDMA engine;
   * page on the CPU -> the driver decides (first-touch migrate, DFTM DCA
     denial, or CPMS-batched migration);
   * page data in transfer -> the access waits for the migration.

Every leg of an access is its own engine event fired at the leg's start
time, so shared resources (link ports, walkers, DRAM channels) are always
acquired in simulated-time order.  Composing a whole chain analytically at
issue time would acquire resources at future timestamps out of order and
manufacture queueing that does not exist.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.interconnect.link import CPU_PORT
from repro.mem.access import AccessKind, MemoryTransaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.machine import Machine

DATA_MSG_BYTES = 64


class MemoryAccessPath:
    """Routes transactions through translation and data access."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._engine = machine.engine
        # The one scheduling call of every leg: ``_sched(now, t, cb, args)``
        # puts a priority-0 callback at ``max(t, now)``.  Bound once, it is
        # EventQueue._sched on the heap backend and the C core's twin on
        # the compiled one.
        self._sched = machine.engine._queue._sched
        self._page_shift = machine.config.page_size.bit_length() - 1
        self._l1_tlb_latency = machine.config.gpu.l1_tlb.latency
        self._l2_tlb_latency = machine.config.gpu.l2_tlb.latency
        self._cpu_mem_latency = machine.config.timing.cpu_mem_latency
        self._cpu_memory = machine.cpu_memory
        self._fabric_transfer = machine.fabric.transfer
        self._timeline_record = machine.timeline.record
        # With no watch set, a timeline record is just a totals bump; the
        # dict is prebound so issue() can do it without the call.
        timeline = machine.timeline
        self._tl_totals = timeline._totals if timeline._watch_none else None
        self._reply_time = machine.iommu.reply_time
        self._page_table = machine.page_table
        # Per-device dispatch tables (bound methods and components indexed
        # by gpu_id / cu_id).  The GPUs are built after this object — each
        # receives ``issue`` as its issue_fn — so the tables are filled
        # lazily on the first transaction.
        self._se_record: list = []
        self._note: list = []
        self._l1: list = []
        self._l2: list = []
        self._hier: list = []
        self._rdma_service: list = []
        # Counters keyed by member identity: ``id(kind)`` hashes at C
        # speed, where an AccessKind key would call the Python-level
        # ``Enum.__hash__`` on every bump.  ``kind_counts`` rebuilds the
        # enum-keyed view (in enum order, as before) on demand.
        self._kc: dict[int, int] = {id(k): 0 for k in AccessKind}
        # Sanitizer tap — None on ordinary runs; the checked path attaches
        # the CheckRuntime here so issue() can flag CU activity during an
        # ACUD drain.
        self._checks = None
        self.l1_tlb_hits = 0
        self.l2_tlb_hits = 0
        self.iommu_trips = 0
        self.total_issued = 0

    def _bind_gpus(self) -> None:
        """Snapshot per-GPU hot references (topology is fixed after build)."""
        for gpu in self.machine.gpus:
            recs, notes = [], []
            for se in gpu.shader_engines:
                for cu in se.cus:
                    recs.append(se.counters.record)
                    notes.append(cu._outstanding_by_page)
            self._se_record.append(recs)
            self._note.append(notes)
            self._l1.append(gpu.l1_tlbs)
            self._l2.append(gpu.l2_tlb)
            self._hier.append(gpu.hierarchy)
            self._rdma_service.append(gpu.rdma.service)

    def _at(self, time: float, callback: Callable, *args) -> None:
        """Schedule a leg at ``time`` (clamped to the present)."""
        self._sched(self._engine._now, time, callback, args)

    # ------------------------------------------------------------------
    # Issue side (called synchronously by CUs)
    # ------------------------------------------------------------------

    def issue(self, txn: MemoryTransaction, on_complete: Callable) -> None:
        """Entry point handed to every CU as its ``issue_fn``."""
        se_record = self._se_record
        if not se_record:
            self._bind_gpus()
            se_record = self._se_record
        page = txn.address >> self._page_shift
        txn.page = page
        self.total_issued += 1
        ck = self._checks
        if ck is not None:
            ck.on_issue(txn)

        gpu_id = txn.gpu_id
        cu_id = txn.cu_id
        se_record[gpu_id][cu_id](page)
        # Inlined ComputeUnit.note_translated (ACUD's in-flight page scan).
        obp = self._note[gpu_id][cu_id]
        try:
            obp[page] += 1
        except KeyError:
            obp[page] = 1
        now = self._engine._now
        tl_totals = self._tl_totals
        if tl_totals is not None:
            # Inlined PageAccessTimeline.record for the no-watch case.
            try:
                tl_totals[page][gpu_id] += 1
            except KeyError:
                self._timeline_record(now, gpu_id, page)
        else:
            self._timeline_record(now, gpu_id, page)

        l1_tlb = self._l1[gpu_id][cu_id]
        t = now + self._l1_tlb_latency
        # Inline the TLB's MRU memo probe; fall back to the full lookup.
        if page == l1_tlb._mru_page:
            l1_tlb.hits += 1
            hit = True
        else:
            hit = l1_tlb.lookup(page)
        if hit:
            self.l1_tlb_hits += 1
            self._sched(now, t, self._local_leg, (txn, on_complete))
            return
        t += self._l2_tlb_latency
        l2_tlb = self._l2[gpu_id]
        if page == l2_tlb._mru_page:
            l2_tlb.hits += 1
            hit = True
        else:
            hit = l2_tlb.lookup(page)
        if hit:
            self.l2_tlb_hits += 1
            l1_tlb.insert(page, gpu_id)
            self._sched(now, t, self._local_leg, (txn, on_complete))
            return
        self.iommu_trips += 1
        self.machine.iommu.translate(txn, t, on_complete)

    # ------------------------------------------------------------------
    # IOMMU resolution (wired as machine.iommu.resolver; fires at
    # walk-completion time)
    # ------------------------------------------------------------------

    def resolve(self, txn: MemoryTransaction, walk_done: float, on_complete: Callable) -> None:
        """Translation walked; route by page residency."""
        if not self._l2:
            self._bind_gpus()
        entry = self._page_table.entry(txn.page)

        if entry.migrating:
            self.machine.driver.wait_for_page(txn.page, txn, on_complete)
            return

        location = entry.device
        if location == txn.gpu_id:
            reply = self._reply_time(self._engine._now, txn.gpu_id)
            self._l2[txn.gpu_id].insert(txn.page, location)
            self._l1[txn.gpu_id][txn.cu_id].insert(txn.page, location)
            self._at(reply, self._local_leg, txn, on_complete)
            return
        if location >= 0:
            # Remote GPU: physical address returned but never cached.
            reply = self._reply_time(self._engine._now, txn.gpu_id)
            if txn.kind is None:
                txn.kind = AccessKind.REMOTE_DCA
            self._at(reply, self._remote_request_leg, txn, location, on_complete)
            return
        self.machine.driver.handle_cpu_fault(txn, self._engine._now, on_complete)

    # ------------------------------------------------------------------
    # Access legs (each fires at its own start time)
    # ------------------------------------------------------------------

    def _local_leg(self, txn: MemoryTransaction, on_complete: Callable) -> None:
        if txn.kind is None:
            txn.kind = AccessKind.LOCAL
        self._kc[id(txn.kind)] += 1
        now = self._engine._now
        finish = self._hier[txn.gpu_id].local_access(
            now, txn.cu_id, txn.address, txn.is_write
        )
        self._sched(now, finish, on_complete, (txn, finish))

    def _remote_request_leg(self, txn: MemoryTransaction, owner: int, on_complete: Callable) -> None:
        hierarchy = self._hier[txn.gpu_id]
        now = self._engine._now
        if not txn.is_write:
            # CARVE-style remote cache: serve remote reads locally.
            hit = hierarchy.remote_cache_lookup(now, txn.address)
            if hit >= 0:
                txn.kind = AccessKind.REMOTE_CACHE
                self._kc[id(AccessKind.REMOTE_CACHE)] += 1
                self._sched(now, hit, on_complete, (txn, hit))
                return
        elif hierarchy.remote_cache is not None:
            # Remote write: any locally cached copy becomes stale.
            hierarchy.remote_cache.invalidate_address(txn.address)
        self._kc[id(AccessKind.REMOTE_DCA)] += 1
        arrive = self._fabric_transfer(now, txn.gpu_id, owner, DATA_MSG_BYTES)
        self._sched(now, arrive, self._remote_service_leg,
                    (txn, owner, on_complete))

    def _remote_service_leg(self, txn: MemoryTransaction, owner: int, on_complete: Callable) -> None:
        now = self._engine._now
        served = self._rdma_service[owner](now, txn.address, txn.is_write)
        self._sched(now, served, self._remote_response_leg,
                    (txn, owner, on_complete))

    def _remote_response_leg(self, txn: MemoryTransaction, owner: int, on_complete: Callable) -> None:
        now = self._engine._now
        arrive = self._fabric_transfer(now, owner, txn.gpu_id, DATA_MSG_BYTES)
        if not txn.is_write:
            self._hier[txn.gpu_id].remote_cache_fill(txn.address)
        self._sched(now, arrive, on_complete, (txn, arrive))

    # CPU DCA (DFTM denial path) -----------------------------------------

    def cpu_dca_access(self, txn: MemoryTransaction, start: float, on_complete: Callable) -> None:
        """DCA to CPU memory; ``start`` is when the translation reply lands."""
        self._kc[id(AccessKind.CPU_DCA)] += 1
        self._at(start, self._cpu_request_leg, txn, on_complete)

    def _cpu_request_leg(self, txn: MemoryTransaction, on_complete: Callable) -> None:
        now = self._engine._now
        arrive = self._fabric_transfer(now, txn.gpu_id, CPU_PORT, DATA_MSG_BYTES)
        self._sched(now, arrive, self._cpu_service_leg, (txn, on_complete))

    def _cpu_service_leg(self, txn: MemoryTransaction, on_complete: Callable) -> None:
        now = self._engine._now
        served = (
            self._cpu_memory.acquire(now, DATA_MSG_BYTES) + self._cpu_mem_latency
        )
        self._sched(now, served, self._cpu_response_leg, (txn, on_complete))

    def _cpu_response_leg(self, txn: MemoryTransaction, on_complete: Callable) -> None:
        now = self._engine._now
        arrive = self._fabric_transfer(now, CPU_PORT, txn.gpu_id, DATA_MSG_BYTES)
        self._sched(now, arrive, on_complete, (txn, arrive))

    # Post-migration routing ----------------------------------------------

    def route_after_migration(self, txn: MemoryTransaction, start: float, on_complete: Callable) -> None:
        """Resume an access that waited for a page migration."""
        location = self._page_table.location(txn.page)
        if location == txn.gpu_id:
            if not self._l2:
                self._bind_gpus()
            self._l2[txn.gpu_id].insert(txn.page, location)
            self._l1[txn.gpu_id][txn.cu_id].insert(txn.page, location)
            if txn.kind is None:
                txn.kind = AccessKind.FAULT_MIGRATE
            self._at(start, self._local_leg, txn, on_complete)
            return
        if location >= 0:
            txn.kind = AccessKind.REMOTE_DCA
            self._at(start, self._remote_request_leg, txn, location, on_complete)
            return
        # Still CPU-resident (page bounced back); serve via CPU DCA.
        txn.kind = AccessKind.CPU_DCA
        self._kc[id(AccessKind.CPU_DCA)] += 1
        self._at(start, self._cpu_request_leg, txn, on_complete)

    # ------------------------------------------------------------------

    @property
    def kind_counts(self) -> dict:
        """Transactions by service kind (enum-keyed, enum order)."""
        kc = self._kc
        return {k: kc[id(k)] for k in AccessKind}

    # ------------------------------------------------------------------
    # State capture (snapshot/fork support)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """``id()`` keys are process-local, so ``_kc`` travels as a plain
        list in ``AccessKind`` order.

        The per-GPU dispatch tables pickle as-is: they hold bound methods
        and component sub-objects the pickle memo keeps aliased to the
        live components, and a restored run's first event may be a mid-
        chain leg that indexes them without the lazy-rebuild check.
        """
        state = self.__dict__.copy()
        state["_kc"] = [self._kc[id(k)] for k in AccessKind]
        state["_checks"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kc = {
            id(k): count for k, count in zip(AccessKind, state["_kc"])
        }

    def local_fraction(self) -> float:
        """Fraction of transactions serviced from local GPU memory."""
        total = sum(self.kind_counts.values())
        if total == 0:
            return 0.0
        local = (
            self.kind_counts[AccessKind.LOCAL]
            + self.kind_counts[AccessKind.FAULT_MIGRATE]
            + self.kind_counts[AccessKind.REMOTE_CACHE]
        )
        return local / total
