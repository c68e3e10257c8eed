"""Run one workload on one policy and harvest a :class:`RunResult`."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.config.faults import FaultConfig
from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import small_system
from repro.config.system import SystemConfig
from repro.core.policies import PolicyConfig, get_policy, list_policies
from repro.gpu.dispatcher import DISPATCH_STRATEGIES
from repro.harness.results import RunResult
from repro.system.machine import Machine
from repro.workloads.base import WorkloadBase
from repro.workloads.registry import get_workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.config import CheckConfig


def run_workload(
    workload: Union[str, WorkloadBase],
    policy: Union[str, PolicyConfig] = "baseline",
    config: Optional[SystemConfig] = None,
    hyper: Optional[GriffinHyperParams] = None,
    scale: float = 0.02,
    seed: int = 7,
    watch_pages=None,
    timeline_bucket: int = 10_000,
    keep_timeline: bool = False,
    collect_detail: bool = False,
    dispatch_strategy: str = "round_robin",
    faults: Optional[FaultConfig] = None,
    max_events: Optional[int] = None,
    stall_threshold: Optional[int] = 1_000_000,
    checks: Optional["CheckConfig"] = None,
    bundle_dir=None,
) -> RunResult:
    """Simulate ``workload`` under ``policy`` and return the results.

    Args:
        workload: Table III abbreviation or a pre-built workload object.
        policy: Policy name or config (see :mod:`repro.core.policies`).
        config: System configuration; defaults to the shrunken
            :func:`~repro.config.presets.small_system` for tractable runs.
        hyper: Griffin hyperparameters (Table I defaults if omitted).
        scale: Footprint scale applied when ``workload`` is a name.
        seed: Deterministic seed applied when ``workload`` is a name.
        watch_pages: Pages to keep bucketized access time series for.
        timeline_bucket: Bucket width (cycles) of the time series.
        keep_timeline: Attach the timeline tracker to the result.
        collect_detail: Attach the full component-level statistics report
            (:func:`repro.metrics.collector.collect_machine_stats`).
        dispatch_strategy: Workgroup-to-GPU assignment ("round_robin",
            the paper's policy, or "chunked").
        faults: Fault-injection plan (None or a disabled config leaves the
            run bit-identical to a fault-free simulation).
        max_events: Per-run event budget; exhausting it raises
            :class:`~repro.sim.engine.SimulationStall` instead of hanging.
        stall_threshold: Engine livelock watchdog (None disables).
        checks: Sanitizer config (:class:`repro.check.CheckConfig`); when
            enabled, runtime invariant monitors ride the run and any
            violation raises :class:`~repro.check.monitors.InvariantViolation`.
            None (the default) installs no hooks at all.
        bundle_dir: Directory for crash bundles.  Only consulted when
            ``checks`` is enabled; None disables bundle writing (the
            monitors still run).
    """
    machine, workload, kernels = prepare_run(
        workload,
        policy=policy,
        config=config,
        hyper=hyper,
        scale=scale,
        seed=seed,
        watch_pages=watch_pages,
        timeline_bucket=timeline_bucket,
        dispatch_strategy=dispatch_strategy,
        faults=faults,
    )
    if checks is not None and checks.enabled:
        return _run_checked(
            machine,
            workload,
            kernels,
            checks,
            bundle_dir,
            max_events=max_events,
            stall_threshold=stall_threshold,
            keep_timeline=keep_timeline,
            collect_detail=collect_detail,
        )
    machine.run(kernels, max_events=max_events, stall_threshold=stall_threshold)
    return harvest_result(
        machine,
        workload,
        keep_timeline=keep_timeline,
        collect_detail=collect_detail,
    )


def _run_checked(
    machine: Machine,
    workload: WorkloadBase,
    kernels: list,
    checks: "CheckConfig",
    bundle_dir,
    max_events: Optional[int],
    stall_threshold: Optional[int],
    keep_timeline: bool,
    collect_detail: bool,
) -> RunResult:
    """Drive a run with the sanitizer attached.

    The machine runs in stages (``start`` / ``run_until`` / ``finish`` —
    byte-identical to an uninterrupted run, pinned by the parity suite)
    so warm snapshots can be captured every ``checks.snapshot_interval``
    cycles for crash bundles.  On any failure — invariant violation,
    stall, or unhandled exception — a bundle is written (when
    ``bundle_dir`` is set), its path attached to the exception as
    ``bundle_path``, and the exception re-raised.
    """
    # Local imports keep the check package entirely out of unchecked runs.
    from repro.check.bundle import write_crash_bundle
    from repro.check.monitors import InvariantViolation
    from repro.check.runtime import CheckRuntime
    from repro.sim.engine import SimulationStall

    runtime = CheckRuntime.attach(machine, checks)

    def _bundle(kind, violation=None, error=None):
        if bundle_dir is None:
            return None
        return write_crash_bundle(
            bundle_dir, kind, machine, runtime,
            workload=workload.spec.abbrev,
            policy=machine.policy.name,
            seed=workload.seed,
            scale=workload.scale,
            max_events=max_events,
            stall_threshold=stall_threshold,
            violation=violation,
            error=error,
        )

    try:
        machine.start(kernels)
        runtime.note_snapshot(machine.snapshot())
        drive_checked(
            machine, runtime, checks,
            max_events=max_events, stall_threshold=stall_threshold,
        )
    except InvariantViolation as exc:
        exc.bundle_path = _bundle(
            "violation", violation=exc.report.to_dict(), error=exc
        )
        raise
    except SimulationStall as exc:
        exc.bundle_path = _bundle("stall", error=exc)
        raise
    except Exception as exc:
        try:
            exc.bundle_path = _bundle("error", error=exc)
        except AttributeError:
            pass  # exceptions with __slots__ cannot carry the path
        raise

    result = harvest_result(
        machine,
        workload,
        keep_timeline=keep_timeline,
        collect_detail=collect_detail,
    )
    if (
        runtime.exhaustions
        and checks.bundle_on_exhaustion
        and bundle_dir is not None
    ):
        result.bundle_path = _bundle("retry_exhaustion")
    return result


def drive_checked(
    machine: Machine,
    runtime,
    checks: "CheckConfig",
    max_events: Optional[int],
    stall_threshold: Optional[int],
) -> None:
    """Advance a sanitized machine to completion and finalize the monitors.

    Shared between fresh checked runs and bundle replay
    (:func:`repro.check.replay.replay_bundle`): a replayed tail must hit
    the same snapshot-interval audit points as the original run did, or a
    violation first caught by a periodic audit would be detected at a
    different cycle on replay.  The interval boundaries line up because
    each is computed from ``engine.now`` at the previous boundary — which
    is exactly the cycle the bundle's snapshot was captured at.
    """
    engine = machine.engine
    interval = checks.snapshot_interval
    if interval is None:
        machine.finish(max_events=max_events, stall_threshold=stall_threshold)
    else:
        while machine.finish_time is None:
            bound = engine.now + interval
            next_time = engine.next_event_time()
            if next_time is not None and next_time > bound:
                # Nothing lands in this window.  Jump straight to the
                # next event instead of snapshotting empty intervals —
                # exponential retry backoff can open astronomically long
                # idle gaps that would otherwise take forever to cross.
                bound = next_time
            machine.run_until(
                bound,
                max_events=max_events,
                stall_threshold=stall_threshold,
            )
            if machine.finish_time is None:
                if not engine.pending_events():
                    # Drained without completing: let finish() raise
                    # its diagnostic instead of looping forever.
                    machine.finish(
                        max_events=None, stall_threshold=stall_threshold
                    )
                    break
                # Audit first so a bundle's snapshot is never already
                # corrupt at capture time.
                runtime.on_snapshot_point()
                runtime.note_snapshot(machine.snapshot())
    runtime.finalize()


def prepare_run(
    workload: Union[str, WorkloadBase],
    policy: Union[str, PolicyConfig] = "baseline",
    config: Optional[SystemConfig] = None,
    hyper: Optional[GriffinHyperParams] = None,
    scale: float = 0.02,
    seed: int = 7,
    watch_pages=None,
    timeline_bucket: int = 10_000,
    dispatch_strategy: str = "round_robin",
    faults: Optional[FaultConfig] = None,
) -> tuple[Machine, WorkloadBase, list]:
    """Validate inputs and build (machine, workload, kernels) unrun.

    This is :func:`run_workload` minus the run itself, split out so the
    sweep's snapshot-fork path can drive the machine in stages
    (``start`` / ``run_until`` / ``snapshot`` / ``finish``) while sharing
    every validation and construction rule with the cold path.
    """
    # Validate the cheap knobs eagerly, with the valid choices in the
    # error, instead of failing deep inside Machine construction.
    if isinstance(policy, str):
        try:
            policy = get_policy(policy)
        except KeyError:
            raise ValueError(
                f"unknown policy {policy!r}; valid choices: "
                f"{', '.join(list_policies())}"
            ) from None
    if dispatch_strategy not in DISPATCH_STRATEGIES:
        raise ValueError(
            f"unknown dispatch strategy {dispatch_strategy!r}; valid "
            f"choices: {', '.join(DISPATCH_STRATEGIES)}"
        )
    if config is None:
        config = small_system()
    if isinstance(workload, str):
        workload = get_workload(
            workload, scale=scale, seed=seed, page_size=config.page_size
        )
    if workload.page_size != config.page_size:
        raise ValueError(
            f"workload page size {workload.page_size} does not match "
            f"system page size {config.page_size}"
        )
    if hyper is None:
        # Table I values recalibrated to this simulator's access
        # intensity; see GriffinHyperParams.calibrated.
        hyper = GriffinHyperParams.calibrated()

    machine = Machine(
        config,
        policy=policy,
        hyper=hyper,
        timeline_bucket=timeline_bucket,
        watch_pages=watch_pages,
        dispatch_strategy=dispatch_strategy,
        faults=faults,
        fault_seed=workload.seed,
    )
    kernels = workload.build_kernels(config.num_gpus)
    return machine, workload, kernels


def harvest_result(
    machine: Machine,
    workload: WorkloadBase,
    keep_timeline: bool = False,
    collect_detail: bool = False,
) -> RunResult:
    """Turn a completed machine into a :class:`RunResult`."""
    if machine.finish_time is None:
        raise RuntimeError("cannot harvest an unfinished machine")
    driver = machine.driver
    page_table = machine.page_table
    injector = machine.fault_injector
    result = RunResult(
        workload=workload.spec.abbrev,
        policy=machine.policy.name,
        cycles=machine.finish_time,
        transactions=machine.access_path.total_issued,
        occupancy=machine.occupancy_snapshot(),
        cpu_shootdowns=machine.shootdowns.cpu_shootdowns,
        gpu_shootdowns=machine.shootdowns.gpu_shootdowns,
        cpu_to_gpu_migrations=page_table.cpu_to_gpu_migrations,
        gpu_to_gpu_migrations=page_table.gpu_to_gpu_migrations,
        dftm_denials=driver.dftm.denials,
        kind_counts=dict(machine.access_path.kind_counts),
        local_fraction=machine.access_path.local_fraction(),
        migration_events=list(machine.migration_events),
        seed=workload.seed,
        scale=workload.scale,
        migration_retries=int(driver.stat("migration_retries")),
        migration_fallbacks=int(driver.stat("migration_fallbacks")),
        pages_pinned=int(driver.stat("pages_pinned")),
        shootdown_timeouts=machine.shootdowns.timeouts,
        transfers_dropped=(
            int(injector.stat("transfers_dropped")) if injector else 0
        ),
        events_executed=machine.engine.events_executed,
        cpu_pages_covered=machine.shootdowns.cpu_pages_covered,
        timeline=machine.timeline if keep_timeline else None,
    )
    if collect_detail:
        from repro.metrics.collector import collect_machine_stats

        result.detail = collect_machine_stats(machine)
    return result


def compare_policies(
    workload: str,
    policies=("baseline", "griffin"),
    config: Optional[SystemConfig] = None,
    hyper: Optional[GriffinHyperParams] = None,
    scale: float = 0.02,
    seed: int = 7,
) -> dict[str, RunResult]:
    """Run the same workload under several policies (same trace, same seed)."""
    return {
        str(policy if isinstance(policy, str) else policy.name): run_workload(
            workload, policy, config=config, hyper=hyper, scale=scale, seed=seed
        )
        for policy in policies
    }
