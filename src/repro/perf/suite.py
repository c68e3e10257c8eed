"""The pinned benchmark suite measured by ``griffin-sim bench``.

Two kinds of cases:

* **micro** — tight loops over one subsystem (event loop, event queue,
  cache, TLB).  They return the number of operations performed so the
  harness can report ops/sec per subsystem.
* **e2e** — full :func:`repro.harness.runner.run_workload` simulations with
  pinned (workload, policy, config, scale, seed).  They return the number
  of engine events executed, the figure the ≥3x events/sec target is
  measured on.

Everything here is deliberately deterministic: same suite, same simulated
work, every run.  The ``calibration`` micro case is a machine-speed proxy —
comparisons across machines normalize end-to-end events/sec by it, so a
committed ``BENCH_*.json`` from one host still yields a meaningful
regression gate on another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.config.faults import FaultConfig
from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import small_system, tiny_system
from repro.config.system import CacheConfig, TLBConfig


@dataclass(frozen=True)
class MicroCase:
    """One micro benchmark: ``fn(scale_factor) -> ops_performed``."""

    name: str
    fn: Callable[[int], int]
    unit: str = "ops"


@dataclass(frozen=True)
class E2ECase:
    """One pinned end-to-end simulation."""

    name: str
    workload: str
    policy: str
    gpus: int
    scale: float
    seed: int
    config_name: str = "small"  # "small" | "tiny"
    faults: bool = False

    def build_config(self):
        factory = {"small": small_system, "tiny": tiny_system}[self.config_name]
        return factory(self.gpus)

    def build_faults(self):
        if not self.faults:
            return None
        return FaultConfig(
            migration_drop_rate=0.3,
            shootdown_ack_delay=25,
            shootdown_timeout_rate=0.2,
            max_migration_attempts=3,
        )


@dataclass(frozen=True)
class SweepCase:
    """One pinned knob-only sweep grid, measured cold vs snapshot-forked.

    The grid varies only late-binding knobs (policy drain strategy plus
    ``hyper_variants`` overrides of late hyperparameters), so every cell
    shares one warm-up prefix — the configuration the snapshot-fork
    scheduler is built to accelerate.  The harness times the same grid
    with ``fork=False`` and ``fork=True`` and reports cells/sec for both.
    """

    name: str
    workload: str
    policies: tuple  # late-compatible policy names, e.g. griffin+flush
    gpus: int
    scale: float
    seed: int
    config_name: str = "tiny"  # "small" | "tiny"
    # Applied to every variant (shared prefix): non-late fields such as
    # migration_period, as (field, value) pairs.
    base_overrides: tuple = ()
    # Each variant: a tuple of (late_hyper_field, value) pairs.
    hyper_variants: tuple = ()

    def build_sweep(self):
        """Materialize the pinned :class:`repro.harness.sweep.Sweep`."""
        # Imported lazily: repro.harness.sweep reaches back into
        # repro.perf for the code fingerprint.
        from repro.harness.sweep import Sweep

        factory = {"small": small_system, "tiny": tiny_system}[self.config_name]
        base = GriffinHyperParams.calibrated().with_overrides(
            **dict(self.base_overrides)
        )
        hypers = {"default": base}
        for index, overrides in enumerate(self.hyper_variants):
            hypers[f"v{index}"] = base.with_overrides(**dict(overrides))
        return Sweep(
            workloads=[self.workload],
            policies=list(self.policies),
            configs={self.config_name: factory(self.gpus)},
            hypers=hypers,
        )


@dataclass(frozen=True)
class CompiledCase:
    """One pinned e2e cell timed heap-vs-compiled (the C event core).

    The identical (workload, policy, config, scale, seed) runs once on
    the pure-Python heap queue and once on the compiled C extension
    backend; the case reports both throughputs, the compiled/heap
    speedup, and whether the two result dicts came out identical.  On hosts where ``repro.sim._ckernel`` is
    not built the case degrades to a heap-only measurement flagged with
    ``compiled_available: false`` instead of failing the bench run.
    """

    name: str
    workload: str
    policy: str
    gpus: int
    scale: float
    seed: int
    config_name: str = "small"  # "small" | "tiny"

    def build_config(self):
        factory = {"small": small_system, "tiny": tiny_system}[self.config_name]
        return factory(self.gpus)


@dataclass(frozen=True)
class BenchSuite:
    """The full pinned suite (micro + e2e + sweep + compiled)."""

    name: str
    micro: tuple = field(default_factory=tuple)
    e2e: tuple = field(default_factory=tuple)
    sweeps: tuple = field(default_factory=tuple)
    compiled: tuple = field(default_factory=tuple)

    def fingerprint_payload(self) -> dict:
        """The suite definition, as data, for the config fingerprint."""
        return {
            "suite": self.name,
            "micro": [m.name for m in self.micro],
            "e2e": [
                {
                    "name": c.name,
                    "workload": c.workload,
                    "policy": c.policy,
                    "gpus": c.gpus,
                    "scale": c.scale,
                    "seed": c.seed,
                    "config": c.config_name,
                    "faults": c.faults,
                }
                for c in self.e2e
            ],
            "sweeps": [
                {
                    "name": c.name,
                    "workload": c.workload,
                    "policies": list(c.policies),
                    "gpus": c.gpus,
                    "scale": c.scale,
                    "seed": c.seed,
                    "config": c.config_name,
                    "base_overrides": [list(pair) for pair in c.base_overrides],
                    "hyper_variants": [
                        [list(pair) for pair in variant]
                        for variant in c.hyper_variants
                    ],
                }
                for c in self.sweeps
            ],
            "compiled": [
                {
                    "name": c.name,
                    "workload": c.workload,
                    "policy": c.policy,
                    "gpus": c.gpus,
                    "scale": c.scale,
                    "seed": c.seed,
                    "config": c.config_name,
                }
                for c in self.compiled
            ],
        }


# ----------------------------------------------------------------------
# Micro benchmarks
# ----------------------------------------------------------------------

def _micro_engine_chain(scale: int) -> int:
    """Self-rescheduling event chains: raw scheduler dispatch throughput.

    Also the **calibration** case: a machine-speed proxy used to normalize
    end-to-end events/sec across hosts.
    """
    from repro.sim.engine import Engine

    n_chains = 8
    hops = 2_000 * scale
    engine = Engine()
    remaining = [hops] * n_chains

    def hop(i: int) -> None:
        remaining[i] -= 1
        if remaining[i]:
            engine.schedule(1, hop, i)

    for i in range(n_chains):
        engine.schedule(1, hop, i)
    engine.run()
    return engine.events_executed


def _micro_engine_zero_delay(scale: int) -> int:
    """Zero-delay event bursts: the same-cycle fast-lane path."""
    from repro.sim.engine import Engine

    rounds = 400 * scale
    burst = 16
    engine = Engine()
    executed = [0]

    def leaf() -> None:
        executed[0] += 1

    def fan_out(r: int) -> None:
        for _ in range(burst):
            engine.schedule(0, leaf)
        if r:
            engine.schedule(1, fan_out, r - 1)

    engine.schedule(1, fan_out, rounds)
    engine.run()
    return engine.events_executed


def _micro_queue_churn(scale: int) -> int:
    """Interleaved push/pop on the event queue (heap pressure)."""
    from repro.sim.event import Event, EventQueue

    ops = 20_000 * scale
    q = EventQueue()

    def noop() -> None:
        pass

    t = 0.0
    for i in range(ops):
        # Deterministic, mildly out-of-order times.
        q.push(Event(t + ((i * 7919) % 97), noop))
        t += 1.0
        if i % 3 == 2:
            q.pop()
    while q.pop() is not None:
        pass
    return ops


def _micro_cache_hits(scale: int) -> int:
    """L1-sized cache access loop (hit-dominated, some conflict misses)."""
    from repro.mem.cache import Cache

    accesses = 30_000 * scale
    cache = Cache("bench.l1", CacheConfig(16 * 1024, 4), 4096)
    line = 64
    for i in range(accesses):
        # 8 hot lines with a periodic cold stride.
        addr = (i % 8) * line if i % 17 else (i * 13) * line
        cache.access(addr, i % 5 == 0)
    return accesses


def _micro_tlb_lookup(scale: int) -> int:
    """TLB lookup/insert loop over a small hot page set."""
    from repro.vm.tlb import TLB

    lookups = 30_000 * scale
    tlb = TLB("bench.tlb", TLBConfig(32, 16))
    for i in range(lookups):
        page = i % 24 if i % 11 else i
        if not tlb.lookup(page):
            tlb.insert(page, 0)
    return lookups


MICRO_CASES = (
    MicroCase("calibration", _micro_engine_chain, unit="events"),
    MicroCase("engine_zero_delay", _micro_engine_zero_delay, unit="events"),
    MicroCase("queue_churn", _micro_queue_churn, unit="pushes"),
    MicroCase("cache_hits", _micro_cache_hits, unit="accesses"),
    MicroCase("tlb_lookup", _micro_tlb_lookup, unit="lookups"),
)


# ----------------------------------------------------------------------
# Pinned suites
# ----------------------------------------------------------------------

# A knob-only grid in the regime snapshot-forking targets: warm-up is
# most of each MT run, and ``migration_period=45000`` (shared by every
# variant, so it does not split the fork group) leaves one migration
# phase in the continuation.  ``min_pages_per_source=1`` lets that phase
# actually migrate at this scale, so the late knobs produce genuinely
# divergent cells rather than eight replays of the same run.
_MT_KNOB_SWEEP = SweepCase(
    "mt_knob_sweep", "MT", ("griffin", "griffin_flush"),
    gpus=4, scale=0.015, seed=3, config_name="small",
    base_overrides=(("migration_period", 45000),),
    hyper_variants=(
        (("min_pages_per_source", 1),),
        (("min_pages_per_source", 1), ("lambda_d", 1.5),
         ("max_pages_per_round", 64)),
        (("min_pages_per_source", 1), ("lambda_s", 1.1),
         ("shared_min_share", 0.25)),
    ),
)

# Heap-vs-compiled on the heaviest pinned e2e cell: MT under griffin
# drives the access path hardest.  The compiled core's win concentrates
# in queue ops and the drain loop, so the speedup here is an end-to-end
# (Amdahl-limited) figure, not the pure event-chain micro number.
_COMPILED_VS_PYTHON = CompiledCase(
    "compiled_vs_python", "MT", "griffin", gpus=4, scale=0.015, seed=3,
    config_name="small",
)

FULL_SUITE = BenchSuite(
    name="full",
    micro=MICRO_CASES,
    e2e=(
        E2ECase("sc_griffin", "SC", "griffin", gpus=4, scale=0.015, seed=3),
        E2ECase("sc_baseline", "SC", "baseline", gpus=4, scale=0.015, seed=3),
        E2ECase("mt_griffin", "MT", "griffin", gpus=4, scale=0.015, seed=3),
        E2ECase("pr_griffin", "PR", "griffin", gpus=4, scale=0.015, seed=3),
        E2ECase("bfs_baseline", "BFS", "baseline", gpus=4, scale=0.015, seed=3),
        E2ECase("mt_griffin_faults", "MT", "griffin", gpus=2, scale=0.01,
                seed=9, config_name="small", faults=True),
    ),
    sweeps=(_MT_KNOB_SWEEP,),
    compiled=(_COMPILED_VS_PYTHON,),
)

QUICK_SUITE = BenchSuite(
    name="quick",
    micro=MICRO_CASES,
    e2e=(
        E2ECase("sc_griffin_tiny", "SC", "griffin", gpus=2, scale=0.008,
                seed=5, config_name="tiny"),
        E2ECase("mt_baseline_tiny", "MT", "baseline", gpus=2, scale=0.008,
                seed=5, config_name="tiny"),
        E2ECase("mt_griffin_faults_tiny", "MT", "griffin", gpus=2,
                scale=0.008, seed=9, config_name="tiny", faults=True),
    ),
    sweeps=(_MT_KNOB_SWEEP,),
    compiled=(
        CompiledCase("compiled_vs_python_tiny", "MT", "griffin", gpus=2,
                     scale=0.008, seed=5, config_name="tiny"),
    ),
)


def bench_suite(quick: bool = False) -> BenchSuite:
    """The pinned suite at the requested size."""
    return QUICK_SUITE if quick else FULL_SUITE
