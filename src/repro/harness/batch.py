"""Batched multi-run execution: N independent simulations, one process.

Campaign-shaped work — seed-robustness studies, Monte Carlo fault
sweeps, sweep cells forked off one snapshot prefix — runs N *independent*
machines.  Spawning a process per run pays interpreter start-up, imports,
and machine construction N times; :class:`BatchRunner` instead advances
all N inside one process with per-run scheduling state (next event time,
remaining event budget) held in arrays, and a single driver loop that
repeatedly picks the laggard machine and advances it one bounded slice.

Byte-parity contract
--------------------

The member simulations never interact: each slice is an ordinary
``engine.run(until=...)`` on one machine, so each member executes exactly
the event stream its serial run would — the batched-vs-serial parity
test pins this bit-for-bit.  Error behaviour is also mirrored: a member
that exhausts its event budget or stalls fails with the same exception
and message a serial :meth:`Machine.finish` raises, and one failed
member never takes down its siblings (outcomes are recorded per member).

The slice bound only controls *interleaving*, never semantics.  A
watchdog subtlety that makes this true for stalls too: the engine resets
its no-progress counter whenever the clock advances, and a slice
boundary is only reached when the next event lies strictly beyond the
bound (the clock is about to advance), so slicing can never split a
livelock plateau that a serial run would have detected.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.config.hyperparams import GriffinHyperParams
from repro.config.system import SystemConfig
from repro.harness.runner import harvest_result, prepare_run
from repro.harness.results import RunResult
from repro.sim.engine import SimulationStall

#: Default slice width in cycles.  Large enough that driver overhead
#: (argmin + one engine.run call per slice) is noise next to the events
#: inside the slice; small enough that members stay loosely in step.
DEFAULT_QUANTUM = 5_000.0

_INF = float("inf")


class _Member:
    """One machine's scheduling state inside a batch."""

    __slots__ = ("machine", "workload", "budget", "remaining",
                 "stall_threshold", "error", "done")

    def __init__(self, machine, workload, max_events, stall_threshold):
        self.machine = machine
        self.workload = workload
        # ``budget`` spans the machine's whole run and is the number
        # quoted in failure messages (what a serial run reports);
        # ``remaining`` is what is actually left to hand the engine — a
        # forked member has already spent its prefix's events.
        self.budget = max_events
        self.remaining = (
            None if max_events is None
            else max_events - machine.engine.events_executed
        )
        self.stall_threshold = stall_threshold
        self.error: Optional[BaseException] = None
        self.done = False


class BatchRunner:
    """Advance N started machines to completion in one event-loop driver.

    Members must already be ``start()``-ed (or forked from a started
    snapshot).  ``drive()`` interleaves them in bounded slices, always
    advancing the machine whose next event is earliest; per-member
    outcomes (completion or exception) land on the runner, so callers
    can harvest successes and report failures individually.
    """

    def __init__(self, quantum: float = DEFAULT_QUANTUM) -> None:
        self.quantum = quantum
        self.members: list[_Member] = []

    def add(self, machine, workload=None,
            max_events: Optional[int] = None,
            stall_threshold: Optional[int] = 1_000_000) -> _Member:
        """Register a started machine; returns its member record."""
        member = _Member(machine, workload, max_events, stall_threshold)
        if machine.finish_time is not None:
            # Possible for forked members whose prefix already finished.
            member.done = True
        self.members.append(member)
        return member

    # -- driving -------------------------------------------------------

    def _slice(self, member: _Member, bound: Optional[float]) -> None:
        """Advance one member to ``bound`` (None = to completion),
        mirroring :meth:`Machine.finish` error semantics exactly."""
        engine = member.machine.engine
        before = engine.events_executed
        engine.run(
            until=bound,
            max_events=member.remaining,
            stall_threshold=member.stall_threshold,
        )
        if member.remaining is not None:
            member.remaining -= engine.events_executed - before
        if engine.exhausted:
            raise SimulationStall(
                f"simulation exhausted its event budget "
                f"({member.budget} events) without completing all "
                f"workgroups (t={engine.now:.0f}, "
                f"pending: {engine.pending_events()})",
                engine.dump_pending(),
            )
        if member.machine.finish_time is not None:
            member.done = True
        elif engine.next_event_time() is None:
            raise RuntimeError(
                "simulation ended without completing all workgroups "
                f"(events executed: {engine.events_executed}, "
                f"pending: {engine.pending_events()})"
            )

    def drive(self) -> None:
        """Run every member to completion (or individual failure)."""
        members = self.members
        n = len(members)
        if n == 0:
            return
        # inf = retired (done or failed); the argmin driver skips it.
        next_time = np.full(n, _INF)
        for i, member in enumerate(members):
            if member.done or member.error is not None:
                continue
            t = member.machine.engine.next_event_time()
            if t is None:
                # Started but nothing queued: fail exactly as a serial
                # finish would.
                try:
                    self._slice(member, None)
                except Exception as exc:
                    member.error = exc
                if member.error is None and not member.done:
                    member.error = RuntimeError(
                        "simulation ended without completing all workgroups "
                        f"(events executed: "
                        f"{member.machine.engine.events_executed}, "
                        f"pending: "
                        f"{member.machine.engine.pending_events()})"
                    )
                continue
            next_time[i] = t
        quantum = self.quantum
        while True:
            i = int(np.argmin(next_time))
            head = next_time[i]
            if head == _INF:
                break
            member = members[i]
            # Bound: let the laggard catch up past the runner-up, plus a
            # quantum so slice overhead amortizes.  With one live member
            # left, run it straight to completion.
            others = np.partition(next_time, 1)[1] if n > 1 else _INF
            bound = None if others == _INF else max(others, head + quantum)
            try:
                self._slice(member, bound)
            except Exception as exc:
                member.error = exc
                next_time[i] = _INF
                continue
            if member.done:
                next_time[i] = _INF
                continue
            t = member.machine.engine.next_event_time()
            next_time[i] = _INF if t is None else t
            if t is None and not member.done:
                member.error = RuntimeError(
                    "simulation ended without completing all workgroups "
                    f"(events executed: "
                    f"{member.machine.engine.events_executed}, "
                    f"pending: {member.machine.engine.pending_events()})"
                )


def run_replicas(
    workload: str,
    policy: str = "baseline",
    config: Optional[SystemConfig] = None,
    hyper: Optional[GriffinHyperParams] = None,
    scale: float = 0.02,
    seeds: Sequence[int] = (),
    faults=None,
    max_events: Optional[int] = None,
    stall_threshold: Optional[int] = 1_000_000,
    quantum: float = DEFAULT_QUANTUM,
) -> list[Union[RunResult, BaseException]]:
    """Run one configuration across N seeds as a single batched program.

    Semantically ``[run_workload(..., seed=s) for s in seeds]`` — the
    parity suite pins the results byte-identical — but all replicas share
    one process, one warm interpreter, and one driver loop, which is
    where the campaign-scale speedup over process-per-replica comes from.

    Returns one entry per seed, in order: the :class:`RunResult`, or the
    exception that replica raised (a failed replica never aborts its
    siblings).
    """
    runner = BatchRunner(quantum=quantum)
    built = []
    for seed in seeds:
        machine, wl, kernels = prepare_run(
            workload, policy=policy, config=config, hyper=hyper,
            scale=scale, seed=seed, faults=faults,
        )
        machine.start(kernels)
        built.append(runner.add(machine, wl, max_events, stall_threshold))
    runner.drive()
    out: list[Union[RunResult, BaseException]] = []
    for member in built:
        if member.error is not None:
            out.append(member.error)
        else:
            out.append(harvest_result(member.machine, member.workload))
    return out
