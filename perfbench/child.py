"""One measured unit of work, run in a fresh interpreter by ``run.py``.

Usage: ``python3 child.py <mode> '<json args>'`` with ``src`` on
``PYTHONPATH``.  Modes:

* ``sim``   — build one machine (``prepare_run``), print ``ready``, time
  ``Machine.run``, harvest the result;
* ``sweep`` — build one ``Sweep``, print ``ready``, time ``Sweep.run``;
* ``refs``  — serial ``Sweep.run`` of every spec read from stdin (the
  service workload's reference results);
* ``queues`` — lease counts from a stopped service's queue directories;
* ``env``   — the program's engine backend and compiled-kernel state.

The parent times interpreter start to the ``ready`` line (set-up).  The
last stdout line is one JSON object with the measurements.
"""

from __future__ import annotations

import cProfile
import json
import resource
import shutil
import sys
import time

from layers import SpanTracer, profile_self_times
from measure import (
    REFERENCE_STEPS,
    canonical_digest,
    reference_kernel,
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ready() -> None:
    print("ready", flush=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _import_repro() -> float:
    start = time.perf_counter()
    import repro  # noqa: F401

    return time.perf_counter() - start


def env_info() -> dict:
    import platform

    import repro  # noqa: F401

    try:
        from repro.sim.backends import resolve_backend

        backend = resolve_backend()
    except ImportError:
        backend = "unknown"
    try:
        import repro.sim._ckernel  # noqa: F401

        ckernel = True
    except ImportError:
        ckernel = False
    return {"backend": backend, "ckernel": ckernel,
            "python": platform.python_version()}


def sim_counts(result) -> dict:
    """Layer counts from a ``collect_detail=True`` result."""
    detail = result.detail
    gpus = list(detail["gpus"].values())

    def total(*path):
        out = 0
        for gpu in gpus:
            value = gpu
            for key in path:
                value = value[key]
            out += value
        return out

    def weighted_rate(part):
        accesses = total(part, "accesses")
        hits = sum(g[part]["hit_rate"] * g[part]["accesses"] for g in gpus)
        return _ratio(hits, accesses)

    driver = detail["driver"]
    return {
        "sim.engine.events": detail["events_executed"],
        "system.access_path.remote_frac": 1.0 - result.local_fraction,
        "interconnect.rdma_requests": total("rdma_requests"),
        "mem.l1_hit_rate": _ratio(total("l1_vector", "hits"),
                                  total("l1_vector", "accesses")),
        "mem.l2_hit_rate": _ratio(total("l2", "hits"),
                                  total("l2", "accesses")),
        "mem.dram_accesses": total("dram", "accesses"),
        "vm.l1_tlb_hit_rate": weighted_rate("l1_tlbs"),
        "vm.l2_tlb_hit_rate": weighted_rate("l2_tlb"),
        "vm.iommu_walks": detail["iommu"]["walks"],
        "vm.walker_wait_cycles": detail["iommu"]["walker_wait_cycles"],
        "core.migration_rounds": driver["migration_rounds"],
        "core.inter_gpu_pages": driver["inter_gpu_pages_migrated"],
        "core.dftm_denials": driver["dftm_denials"],
        "gpu.drain_requests": total("compute_units", "drain_requests"),
        "driver.fault_batches": driver["fault_batches"],
        "driver.cpu_dca_redirects": driver["cpu_dca_redirects"],
    }


def run_sim(args: dict) -> dict:
    import_s = _import_repro()
    from repro.config import small_system
    from repro.harness import runner
    from repro.harness.io import result_to_dict

    traced = args["traced"]
    tracer = SpanTracer()
    if traced:
        # Split set-up into workload generation and machine construction.
        def trace_build(_args, workload):
            tracer.wrap(workload, "build_kernels", "workloads.build_s")

        tracer.wrap(runner, "get_workload", "workloads.build_s",
                    after=trace_build)
        tracer.wrap(runner, "Machine", "system.machine_build_s")
    machine, workload, kernels = runner.prepare_run(
        args["workload"], policy=args["policy"],
        config=small_system(args["gpus"]), scale=args["scale"],
        seed=args["seed"],
    )
    tracer.restore()
    _ready()
    ref_before = reference_kernel()
    profiler = cProfile.Profile() if traced else None
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    machine.run(kernels)
    if profiler is not None:
        profiler.disable()
    run_s = time.perf_counter() - start
    ref_s = (ref_before + reference_kernel()) / 2
    start = time.perf_counter()
    result = runner.harvest_result(machine, workload, collect_detail=traced)
    harvest_s = time.perf_counter() - start
    payload = result_to_dict(result)
    if args.get("inject_mismatch"):
        payload["cycles"] += 1
    out = {
        "run_s": run_s,
        "ref_s": ref_s,
        "transactions": result.transactions,
        "digest": canonical_digest(payload),
        "outputs": {
            "cycles": result.cycles,
            "events": result.events_executed,
            "gpu_to_gpu_migrations": result.gpu_to_gpu_migrations,
            "cpu_to_gpu_migrations": result.cpu_to_gpu_migrations,
            "shootdowns": result.total_shootdowns,
        },
        "peak_rss_mb": _peak_rss_mb(),
    }
    if traced:
        layers = {f"{name}.self_s": seconds for name, seconds
                  in profile_self_times(profiler).items()}
        layers.update(sim_counts(result))
        layers["sim.engine.ns_per_event"] = _ratio(
            layers["sim.engine.self_s"] * 1e9, layers["sim.engine.events"])
        layers["harness.import_s"] = import_s
        layers["workloads.build_s"] = tracer.self_s["workloads.build_s"]
        layers["system.machine_build_s"] = (
            tracer.self_s["system.machine_build_s"])
        layers["harness.harvest_s"] = harvest_s
        out["layers"] = layers
    return out


def trace_sweep(tracer: SpanTracer, counts: dict) -> None:
    """Span the public calls a serial ``Sweep.run`` makes."""
    from repro.harness import runner, sweep
    from repro.harness.io import SweepResultCache
    from repro.sim.snapshot import MachineSnapshot
    from repro.system.machine import Machine

    def captured(_args, snap):
        counts["captured_events"] += snap.events_executed

    def forked(args, _machine):
        counts["forked_events"] += args[0].events_executed

    tracer.wrap(runner, "prepare_run", "harness.runner.prepare_s")
    tracer.wrap(sweep, "prepare_run", "harness.runner.prepare_s")
    for method in ("run", "start", "run_until", "finish"):
        tracer.wrap(Machine, method, "system.machine.run_s")
    tracer.wrap(Machine, "snapshot", "sim.snapshot.capture_s",
                after=captured)
    tracer.wrap(MachineSnapshot, "fork", "sim.snapshot.fork_s",
                after=forked)
    tracer.wrap(SweepResultCache, "store", "harness.io.cache_write_s")
    tracer.wrap(SweepResultCache, "store_snapshot",
                "harness.io.cache_write_s")


SWEEP_SLICE_STEPS = 10_000

SWEEP_SPANS = (
    "harness.runner.prepare_s", "system.machine.run_s",
    "sim.snapshot.capture_s", "sim.snapshot.fork_s",
    "harness.io.cache_write_s",
)


def run_sweep(args: dict) -> dict:
    from repro.config import GriffinHyperParams
    from repro.harness.io import sweep_result_to_dict
    from repro.harness.sweep import Sweep

    base = GriffinHyperParams.calibrated()
    hypers = {name: base.with_overrides(**overrides)
              for name, overrides in args["hypers"].items()}
    sweep = Sweep(workloads=args["workloads"], policies=args["policies"],
                  hypers=hypers)
    _ready()
    tracer = SpanTracer()
    counts = {"captured_events": 0, "forked_events": 0}
    if args["traced"]:
        trace_sweep(tracer, counts)
    cache_dir = args["cache_dir"]
    # A slice of the reference kernel after every cell samples the host's
    # speed all through the sweep; its time is taken out of the sweep's.
    slices = []

    def sample_host(_done, _total, _key):
        slices.append(reference_kernel(SWEEP_SLICE_STEPS))

    start = time.perf_counter()
    try:
        result = sweep.run(scale=args["scale"], seed=args["seed"],
                           workers=1, cache_dir=cache_dir,
                           progress=sample_host)
    finally:
        run_s = time.perf_counter() - start - sum(slices)
        tracer.restore()
        shutil.rmtree(cache_dir, ignore_errors=True)
    ref_s = sum(slices) * REFERENCE_STEPS / (SWEEP_SLICE_STEPS * len(slices))
    payload = sweep_result_to_dict(result)
    if args.get("inject_mismatch") and payload["points"]:
        payload["points"][0]["result"]["cycles"] += 1
    out = {
        "run_s": run_s,
        "ref_s": ref_s,
        "cells": len(result.points) + len(result.failures),
        "failed_cells": len(result.failures),
        "digest": canonical_digest(payload),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if args["traced"]:
        layers = {name: tracer.self_s[name] for name in SWEEP_SPANS}
        layers["harness.sweep.other_s"] = run_s - sum(layers.values())
        skipped = counts["forked_events"] - counts["captured_events"]
        cell_events = sum(r.events_executed for r in result.points.values())
        layers.update({
            "harness.sweep.forked_cells": result.forked_cells,
            "harness.sweep.cold_cells": result.cold_cells,
            "harness.sweep.prefix_events": result.prefix_events,
            "harness.sweep.fork_saved_ratio": _ratio(
                skipped, cell_events - skipped),
        })
        out["layers"] = layers
    return out


def run_refs(_args: dict) -> dict:
    from repro.harness.io import sweep_result_to_dict
    from repro.harness.sweep import sweep_from_spec

    digests = []
    for spec in json.loads(sys.stdin.read()):
        sweep, params = sweep_from_spec(spec)
        result = sweep_result_to_dict(sweep.run(**params))
        digests.append(canonical_digest(result))
    return {"digests": digests}


def count_queues(args: dict) -> dict:
    """Executions per spec digest, lease reclaims and quarantined cells.

    The service gives each execution of a spec its own queue directory
    under ``queues/<digest[:16]>/``; a cell claimed more than once had its
    lease reclaimed.
    """
    from pathlib import Path

    from repro.harness.queue import SweepQueue

    counts = {"reclaims": 0, "quarantined": 0, "executions": {}}
    queues = Path(args["state"]) / "queues"
    for spec_dir in sorted(queues.iterdir()) if queues.is_dir() else ():
        runs = [q for q in spec_dir.iterdir() if q.is_dir()]
        counts["executions"][spec_dir.name] = len(runs)
        for run_dir in runs:
            for row in SweepQueue.open(run_dir).rows():
                status, attempts = row[1], row[4]
                counts["reclaims"] += max(0, attempts - 1)
                counts["quarantined"] += status == "quarantined"
    return counts


MODES = {
    "sim": run_sim,
    "sweep": run_sweep,
    "refs": run_refs,
    "queues": count_queues,
    "env": lambda _args: env_info(),
}


def main(argv: list) -> int:
    mode, args = argv[1], json.loads(argv[2]) if len(argv) > 2 else {}
    print(json.dumps(MODES[mode](args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
