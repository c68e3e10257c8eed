"""The assembled multi-GPU machine.

``Machine`` wires every substrate together — GPUs, fabric, IOMMU, page
table, driver, dispatcher — under one engine, runs a workload's kernels to
completion, and exposes the collectors the harness turns into results.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Optional

from repro.config.faults import FaultConfig
from repro.config.hyperparams import GriffinHyperParams
from repro.config.system import SystemConfig
from repro.core.policies import PolicyConfig, get_policy
from repro.driver.driver import GPUDriver
from repro.gpu.dispatcher import Dispatcher
from repro.gpu.gpu import GPU
from repro.gpu.pmc import PageMigrationController
from repro.gpu.wavefront import Kernel
from repro.interconnect.arbiter import BiasedArbiter
from repro.interconnect.link import InterconnectFabric
from repro.metrics.timeline import MigrationEvent, PageAccessTimeline
from repro.resilience.injector import FaultInjector
from repro.sim.engine import Engine, SimulationStall
from repro.sim.backends import build_engine, resolve_backend
from repro.sim.resource import ThroughputResource
from repro.system.access_path import MemoryAccessPath
from repro.vm.iommu import IOMMU
from repro.vm.page_table import PageTable
from repro.vm.shootdown import ShootdownAccounting

# Knobs consumed exclusively by the periodic migration phase — i.e. read
# for the first time at t = migration_period, never during warm-up.  Two
# (policy, hyper) variants that agree on everything *except* these fields
# produce byte-identical simulations up to any cycle before the first
# migration phase, so a warm prefix can be shared and forked per variant
# (see docs/performance.md, "Sweep throughput").
#
# Deliberately absent: ``alpha`` and ``t_ac`` feed the EWMA during every
# collection period; ``n_ptw``/``fault_batch_timeout`` shape CPU fault
# batching from cycle 0; ``counter_*`` are baked into the Shader Engine
# tables at construction; ``migration_period`` determines the fork point
# itself.  ``PredictiveMigration.observe`` reads ``lambda_t`` each
# collection period, so predictive policies must not fork across
# lambda variants (the sweep runs them cold).
LATE_HYPER_FIELDS = frozenset({
    "lambda_d",
    "lambda_s",
    "lambda_t",
    "shared_min_share",
    "trend_fraction",
    "max_pages_per_round",
    "min_pages_per_source",
    "max_source_gpus_per_round",
})

# Policy fields a forked variant may change: the drain strategy is first
# consulted when the first migration round executes, and the name is
# display-only.
LATE_POLICY_FIELDS = frozenset({"name", "drain"})

# Hyperparameters whose only readers a mechanism flag switches off.
# ``batch_cpu_faults`` off: the driver forces the fault batch size to 1,
# and ``FaultBatcher`` arms its timeout only for batches above 1.
_FAULT_BATCH_FIELDS = frozenset({"n_ptw", "fault_batch_timeout"})
# ``inter_gpu_migration`` off: ``GPUDriver.start`` never arms
# ``_collect_counts`` / ``_migration_phase``, the only callers of DPC,
# the planner and the predictor.  The Shader Engine counter tables still
# count every access, but only ``_collect_counts`` reads or sizes a
# report from them, so their width and size never reach a result.
_INTER_GPU_FIELDS = frozenset({
    "t_ac",
    "alpha",
    "lambda_d",
    "lambda_s",
    "lambda_t",
    "trend_fraction",
    "shared_min_share",
    "migration_period",
    "max_pages_per_round",
    "max_source_gpus_per_round",
    "min_pages_per_source",
    "counter_bits",
    "counter_table_entries",
})


def unread_hyper_fields(policy: PolicyConfig) -> frozenset:
    """Hyperparameter fields a run under ``policy`` never reads.

    Two runs that differ only in these fields are byte-identical, so a
    sweep runs one of them and answers the other from its result (see
    docs/performance.md, "Sweep throughput").  ``page_id_bits`` is
    always unread: only :mod:`repro.core.hardware_cost` uses it.
    Policy fields are never unread.
    """
    fields = {"page_id_bits"}
    if not policy.batch_cpu_faults:
        fields |= _FAULT_BATCH_FIELDS
    if not policy.inter_gpu_migration:
        fields |= _INTER_GPU_FIELDS
    return frozenset(fields)


def variant_mismatches(
    policy_a: PolicyConfig,
    hyper_a: GriffinHyperParams,
    policy_b: PolicyConfig,
    hyper_b: GriffinHyperParams,
) -> list[str]:
    """Fields that make two variants unsafe to fork from one prefix."""
    bad: list[str] = []
    safe = LATE_HYPER_FIELDS | (
        unread_hyper_fields(policy_a) & unread_hyper_fields(policy_b)
    )
    for f in dataclasses.fields(GriffinHyperParams):
        if f.name in safe:
            continue
        if getattr(hyper_a, f.name) != getattr(hyper_b, f.name):
            bad.append(f"hyper.{f.name}")
    for f in dataclasses.fields(PolicyConfig):
        if f.name in LATE_POLICY_FIELDS:
            continue
        if getattr(policy_a, f.name) != getattr(policy_b, f.name):
            bad.append(f"policy.{f.name}")
    return bad


class Machine:
    """A complete simulated NUMA multi-GPU system."""

    def __init__(
        self,
        config: SystemConfig,
        policy: PolicyConfig | str = "baseline",
        hyper: Optional[GriffinHyperParams] = None,
        timeline_bucket: int = 10_000,
        watch_pages=None,
        dispatch_strategy: str = "round_robin",
        faults: Optional[FaultConfig] = None,
        fault_seed: int = 0,
    ) -> None:
        if isinstance(policy, str):
            policy = get_policy(policy)
        self.config = config
        self.policy = policy
        self.hyper = hyper or GriffinHyperParams()
        self.num_gpus = config.num_gpus

        # Event-core backend: config-selected, env-overridable (the
        # compiled-parity CI job replays the whole suite this way).
        self.engine = build_engine(resolve_backend(config.sim.engine_backend))
        # Fault injection: a disabled (or absent) FaultConfig leaves every
        # component un-hooked so clean runs stay byte-identical.
        self.faults = faults if faults is not None and faults.enabled else None
        self.fault_injector = (
            FaultInjector(self.engine, self.faults, fault_seed)
            if self.faults is not None else None
        )
        self.page_table = PageTable(config.num_gpus, config.page_size)
        self.fabric = InterconnectFabric(
            config.link, config.num_gpus, config.gpu.clock_ghz
        )
        self.fabric.injector = self.fault_injector
        self.arbiter = BiasedArbiter(config.num_gpus, bias=config.arbiter_bias)
        self.iommu = IOMMU(self.engine, config.iommu, self.fabric, self.arbiter)
        # CPU DRAM serving GPU DCA traffic (DDR-class bandwidth).
        self.cpu_memory = ThroughputResource("cpu.dram", 16.0)
        self.shootdowns = ShootdownAccounting()
        self.timeline = PageAccessTimeline(
            config.num_gpus, timeline_bucket, watch_pages
        )
        self.migration_events: list[MigrationEvent] = []

        self.access_path = MemoryAccessPath(self)
        self.iommu.resolver = self.access_path.resolve

        self.gpus: list[GPU] = []
        self.dispatcher = Dispatcher(
            self.engine,
            self.gpus,
            config.dispatch_skew_cycles,
            on_all_done=self._on_all_done,
            strategy=dispatch_strategy,
        )
        for gpu_id in range(config.num_gpus):
            self.gpus.append(
                GPU(
                    self.engine,
                    gpu_id,
                    config.gpu,
                    config.timing,
                    self.hyper,
                    config.page_size,
                    self.access_path.issue,
                    self.dispatcher.workgroup_complete,
                )
            )
        if self.fault_injector is not None:
            injector = self.fault_injector
            for gpu in self.gpus:
                if injector.has_throttle(gpu.gpu_id):
                    fn = partial(injector.throttle_factor, gpu.gpu_id)
                    for cu in gpu.all_cus():
                        cu.throttle_fn = fn
        self.pmc = PageMigrationController(
            self.engine, self.fabric, config.page_size
        )
        self.driver = GPUDriver(self, policy)

        self.finish_time: Optional[float] = None
        # Sanitizer runtime (repro.check.runtime.CheckRuntime) — attached
        # by the checked harness path; None on ordinary runs so no hook
        # fires anywhere on the hot path.
        self.checks = None

    # ------------------------------------------------------------------

    def record_migration(self, now: float, page: int, src: int, dst: int) -> None:
        """Log one completed page migration (Figure 10 overlay data)."""
        self.migration_events.append(MigrationEvent(now, page, src, dst))

    def _on_all_done(self, now: float) -> None:
        self.finish_time = now
        self.driver.stop()
        self.engine.stop()
        if self.checks is not None:
            self.checks.on_finish(now)

    def __getstate__(self):
        """Snapshots never carry the sanitizer runtime.

        The check runtime holds its own snapshots (and a live ring
        buffer); pickling it into a MachineSnapshot would recurse and
        bloat every capture.  Replay re-attaches a fresh runtime.
        """
        state = self.__dict__.copy()
        state["checks"] = None
        return state

    def run(
        self,
        kernels: list[Kernel],
        max_events: Optional[int] = None,
        stall_threshold: Optional[int] = 1_000_000,
    ) -> float:
        """Execute the kernel sequence to completion.

        Args:
            max_events: Event budget for the whole run.  Exhausting it raises
                :class:`SimulationStall` (the engine's ``exhausted`` flag
                distinguishes it from a clean drain) instead of silently
                returning a half-finished simulation.
            stall_threshold: Engine watchdog — consecutive zero-progress
                events tolerated before declaring livelock (None disables).

        Returns the makespan in cycles.
        """
        self.start(kernels)
        return self.finish(max_events=max_events, stall_threshold=stall_threshold)

    def start(self, kernels: list[Kernel]) -> None:
        """Arm the driver and dispatch; pair with ``run_until``/``finish``."""
        self.driver.start()
        self.dispatcher.run_kernels(kernels)

    def run_until(
        self,
        cycle: float,
        max_events: Optional[int] = None,
        stall_threshold: Optional[int] = 1_000_000,
    ) -> None:
        """Advance the simulation up to and including cycle ``cycle``.

        Executes every event with ``time <= cycle`` and pauses; events
        scheduled later stay queued, so a subsequent ``finish`` (possibly
        on a forked copy) continues byte-identically to an uninterrupted
        run.  Returns early if the workload completes first.

        ``max_events`` budgets the whole run from cycle zero: events this
        machine already executed — in earlier stages, or in the prefix
        it was forked from — count against it, so a staged or forked run
        fails exactly where an uninterrupted one does, with the same
        message.
        """
        self.engine.run(
            until=cycle, max_events=self._events_left(max_events),
            stall_threshold=stall_threshold,
        )
        if self.engine.exhausted:
            raise SimulationStall(
                f"simulation exhausted its event budget ({max_events} events) "
                f"before reaching cycle {cycle:.0f} "
                f"(t={self.engine.now:.0f}, "
                f"pending: {self.engine.pending_events()})",
                self.engine.dump_pending(),
            )

    def finish(
        self,
        max_events: Optional[int] = None,
        stall_threshold: Optional[int] = 1_000_000,
    ) -> float:
        """Run the (possibly already-started) simulation to completion.

        ``max_events`` budgets the whole run, as in :meth:`run_until`.
        """
        self.engine.run(
            max_events=self._events_left(max_events),
            stall_threshold=stall_threshold,
        )
        if self.engine.exhausted:
            raise SimulationStall(
                f"simulation exhausted its event budget ({max_events} events) "
                "without completing all workgroups "
                f"(t={self.engine.now:.0f}, "
                f"pending: {self.engine.pending_events()})",
                self.engine.dump_pending(),
            )
        if self.finish_time is None:
            raise RuntimeError(
                "simulation ended without completing all workgroups "
                f"(events executed: {self.engine.events_executed}, "
                f"pending: {self.engine.pending_events()})"
            )
        return self.finish_time

    def _events_left(self, max_events: Optional[int]) -> Optional[int]:
        if max_events is None:
            return None
        return max_events - self.engine.events_executed

    # ------------------------------------------------------------------
    # Snapshot / fork support
    # ------------------------------------------------------------------

    def shared_snapshot_objects(self) -> list:
        """Objects a snapshot stores by reference instead of by value.

        The workload trace — kernels, workgroups, wavefront traces and
        their access lists — is immutable once built (only the per-CU
        cursor *index* advances), so every fork of a prefix can share one
        copy instead of re-pickling what is by far the largest part of
        the machine state.
        """
        shared: list = []
        for kernel in self.dispatcher._kernels:
            shared.append(kernel)
            for wg in kernel.workgroups:
                shared.append(wg)
                for trace in wg.wavefronts:
                    shared.append(trace)
                    shared.append(trace.accesses)
        return shared

    def snapshot(self):
        """Capture full simulation state as a picklable, forkable value."""
        from repro.sim.snapshot import MachineSnapshot

        return MachineSnapshot.capture(self)

    def adopt_variant(
        self,
        policy: PolicyConfig | str,
        hyper: Optional[GriffinHyperParams] = None,
    ) -> None:
        """Swap in a (policy, hyper) variant on a forked machine.

        Only fields first consulted by the periodic migration phase
        (``LATE_HYPER_FIELDS`` / ``LATE_POLICY_FIELDS``) may differ from
        the values the prefix ran with; anything else would make the
        shared prefix a lie, so it raises instead.
        """
        if isinstance(policy, str):
            policy = get_policy(policy)
        hyper = hyper or GriffinHyperParams()
        bad = variant_mismatches(self.policy, self.hyper, policy, hyper)
        if bad:
            raise ValueError(
                "variant differs from the prefix in fields the warm-up "
                f"already consumed: {', '.join(bad)}"
            )
        self.policy = policy
        self.hyper = hyper
        driver = self.driver
        driver.policy = policy
        driver.dpc.hyper = hyper
        driver.planner.hyper = hyper
        if driver.predictor is not None:
            driver.predictor.hyper = hyper

    # ------------------------------------------------------------------
    # Collected results
    # ------------------------------------------------------------------

    def occupancy_snapshot(self):
        from repro.metrics.occupancy import OccupancySnapshot

        counts = self.page_table.gpu_page_counts()
        cpu_pages = sum(
            1 for _ in self.page_table.known_pages()
        ) - sum(counts)
        return OccupancySnapshot(tuple(counts), cpu_pages)
