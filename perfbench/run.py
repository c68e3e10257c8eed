"""Benchmark of the Griffin simulator, its sweeps and its service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim_sc_griffin --seed 1 \\
        --seconds 20 --trace 0

Runs one workload for about ``--seconds`` seconds, checks the program's
outputs, prints each metric on its own line with its unit and, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of ``BENCHMARK.json``.  The exit code is 0 only when
every output checked out.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import REFERENCE_KERNEL_S, summarize

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text()) \
    if (REPO / "BENCHMARK.json").is_file() else None
WORK = REPO / ".perfbench_work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # confirms claims only; never used while developing

# The program side of each workload.  "smoke" shrinks every input so the
# benchmark's own tests run in seconds; it is not a benchmark setting.
SIM = {"workload": "SC", "gpus": 4, "scale": 0.05}
SIM_SMOKE = {"workload": "MT", "gpus": 2, "scale": 0.005}
SWEEP = {
    "workloads": ["SC", "FIR"],
    "policies": ["baseline", "griffin", "griffin_flush"],
    # Four variants of knobs first read at the migration phase, so each
    # policy's cells share one warm-up prefix.
    "hypers": {
        "calibrated": {},
        "half_round": {"max_pages_per_round": 96},
        "strict_dense": {"lambda_d": 3.0},
        "low_source_min": {"min_pages_per_source": 2},
    },
    "scale": 0.01,
}
SWEEP_SMOKE = {
    "workloads": ["MT"], "policies": ["baseline", "griffin"],
    "hypers": {"calibrated": {}, "half_round": {"max_pages_per_round": 96}},
    "scale": 0.005,
}
SERVE = {
    "cells": {"workloads": ["MT", "BFS"], "policies": ["baseline", "griffin"],
              "gpus": 2, "scale": 0.005},
    "workers": 1,
    "setups": 3,
    "hit_pool": 4,
    # Per block: 100 hits, 6 misses, 2 duplicate pairs, 3 malformed specs;
    # ten blocks give 1000 hits and 100 requests that need computation.
    "mix": {"hit": 100, "miss": 6, "dup": 2, "bad": 3},
    "blocks": 10,
}
SERVE_SMOKE = {**SERVE, "setups": 2, "hit_pool": 2,
               "mix": {"hit": 10, "miss": 1, "dup": 1, "bad": 2},
               "blocks": 1}

WORKLOADS = {
    "sim_sc_griffin": ("sim", {**SIM, "policy": "griffin"}),
    "sim_sc_baseline": ("sim", {**SIM, "policy": "baseline"}),
    "sweep_policy_knobs": ("sweep", SWEEP),
    "serve_mixed": ("serve", SERVE),
}
SMOKE = {
    "sim_sc_griffin": {**SIM_SMOKE, "policy": "griffin"},
    "sim_sc_baseline": {**SIM_SMOKE, "policy": "baseline"},
    "sweep_policy_knobs": SWEEP_SMOKE,
    "serve_mixed": SERVE_SMOKE,
}


class BenchError(RuntimeError):
    """The benchmark could not run (not an output mismatch)."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------

def program_env() -> dict:
    """The environment the program runs in: default engine, ``src`` path."""
    env = dict(os.environ)
    env.pop("REPRO_ENGINE_BACKEND", None)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    root = REPO / "src" / "repro"
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (REPO / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def env_record(env: dict) -> dict:
    """What a comparison must hold equal, plus which code was measured."""
    record = Child("env", {}, env).finish()
    record.pop("setup_s")
    record["nproc"] = os.cpu_count()
    record["commit"] = git_commit()
    record["source_sha256"] = source_digest()
    return record


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

class Child:
    """One ``child.py`` process; times interpreter start to ``ready``."""

    def __init__(self, mode: str, args: dict, env: dict, stdin=None):
        self.start = time.perf_counter()
        self.setup_s = None
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(args)],
            cwd=REPO, env=env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        )
        if stdin is not None:
            self.proc.stdin.write(stdin)
            self.proc.stdin.close()

    def finish(self) -> dict:
        last = b""
        for line in self.proc.stdout:
            if line == b"ready\n" and self.setup_s is None:
                self.setup_s = time.perf_counter() - self.start
            elif line.strip():
                last = line
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"child exited with code {code}")
        try:
            out = json.loads(last)
        except ValueError:
            raise BenchError(f"child printed no result: {last!r}") from None
        out["setup_s"] = self.setup_s
        return out


def spawner(env: dict):
    """Run ``(mode, args, stdin)`` children concurrently; their outputs."""
    def spawn(jobs: list) -> list:
        children = [Child(mode, args, env, stdin)
                    for mode, args, stdin in jobs]
        outs, errors = [], []
        for child in children:  # wait for every child, even after a failure
            try:
                outs.append(child.finish())
            except BenchError as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return outs
    return spawn


def run_children(mode: str, args: dict, env: dict, seconds: float,
                 trace: bool, inject: bool) -> list:
    """Fresh processes one after another until ``seconds`` have passed.

    Untraced runs make at least three; traced runs alternate untraced and
    traced processes, at least one of each.
    """
    minimum = 2 if trace else 3
    outs = []
    start = time.perf_counter()
    while len(outs) < minimum or time.perf_counter() - start < seconds:
        traced = trace and len(outs) % 2 == 1
        child_args = {**args, "traced": traced}
        if mode == "sweep":
            child_args["cache_dir"] = str(WORK / f"cache{len(outs)}")
        if inject and len(outs) == minimum - 1:
            child_args["inject_mismatch"] = True
        out = Child(mode, child_args, env).finish()
        out["traced"] = traced
        outs.append(out)
    return outs


def layer_medians(outs: list) -> dict:
    traced = [out["layers"] for out in outs if out["traced"]]
    return {name: statistics.median(layers[name] for layers in traced)
            for name in traced[0]}


def overhead_ratio(outs: list) -> float:
    """Traced over untraced time of the measured call, host-normalized."""
    def cost(traced):
        return statistics.median(out["run_s"] / out["ref_s"] for out in outs
                                 if out["traced"] == traced)
    return cost(True) / cost(False)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def bench_processes(mode: str, work: str, cfg, seed, env, seconds, trace,
                    inject) -> dict:
    """A workload measured in fresh processes (simulations, sweeps).

    ``work`` names the output that counts the work of one process:
    simulated transactions, or sweep cells.  Timings are normalized to
    the reference host (see ``measure.reference_kernel``) with the kernel
    time each process measured around its own timed call; the raw values
    are in the detail lines.
    """
    outs = run_children(mode, {**cfg, "seed": seed}, env, seconds, trace,
                        inject)
    plain = [out for out in outs if not out["traced"]]
    raw = [out[work] / out["run_s"] for out in plain]
    normalized = [rate * out["ref_s"] / REFERENCE_KERNEL_S
                  for rate, out in zip(raw, plain)]
    setups = [out["setup_s"] for out in outs]
    metrics = {
        "throughput": statistics.median(normalized),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in plain),
        "setup_s": statistics.median(
            setup * REFERENCE_KERNEL_S / out["ref_s"]
            for setup, out in zip(setups, outs)),
    }
    layers = {}
    if trace:
        layers = layer_medians(outs)
        layers["trace_overhead_ratio"] = overhead_ratio(outs)
        layers["traced_wall_s"] = statistics.median(
            out["run_s"] for out in outs if out["traced"])
    # An operation is one simulation or one sweep cell.  A repeat whose
    # output differs from the first fails as a whole.
    ops = [out.get("cells", 1) for out in outs]
    mismatched = [i for i, out in enumerate(outs)
                  if out["digest"] != outs[0]["digest"]]
    problems = [f"repeat {i} output differs from repeat 0"
                for i in mismatched]
    problems += [f"repeat {i}: {out['failed_cells']} failed cells"
                 for i, out in enumerate(outs) if out.get("failed_cells")]
    failed = sum(out.get("failed_cells", 0) for out in outs)
    failed += sum(ops[i] - outs[i].get("failed_cells", 0) for i in mismatched)
    detail = {
        f"raw_{work}_per_s": summarize(raw),
        "raw_setup_s": summarize(setups),
        "reference_kernel_s": summarize(out["ref_s"] for out in outs),
        "run_ms": summarize(out["run_s"] * 1e3 for out in plain),
    }
    if "outputs" in outs[0]:
        detail["outputs"] = outs[0]["outputs"]
    return {
        "metrics": metrics, "layers": layers, "detail": detail,
        "samples": {"throughput": normalized, "raw": raw, "setup_s": setups,
                    "ref_s": [out["ref_s"] for out in outs]},
        "attempted": sum(ops), "failed": failed, "problems": problems,
    }


def bench_sim(cfg, seed, env, seconds, trace, inject) -> dict:
    return bench_processes("sim", "transactions", cfg, seed, env, seconds,
                           trace, inject)


def bench_sweep(cfg, seed, env, seconds, trace, inject) -> dict:
    return bench_processes("sweep", "cells", cfg, seed, env, seconds,
                           trace, inject)


def bench_serve(cfg, seed, env, seconds, trace, inject) -> dict:
    from serve_load import run_serve

    return run_serve(cfg, seed, seconds, trace, WORK, REPO, env,
                     spawner(env), inject_mismatch=inject)


BENCHES = {"sim": bench_sim, "sweep": bench_sweep, "serve": bench_serve}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def metric_specs(trace: bool) -> list:
    return SPEC["per_layer" if trace else "end_to_end"]


def render(report: dict, trace: bool) -> list:
    """Human-readable lines, then the result line the contract names."""
    lines = [f"env {json.dumps(report['env'], sort_keys=True)}"]
    for name, summary in report["detail"].items():
        lines.append(f"detail {name} {json.dumps(summary, sort_keys=True)}")
    for problem in report["problems"]:
        lines.append(f"FAILED {problem}")
    values = report["layers"] if trace else report["metrics"]
    # A workload outside BENCHMARK.json may measure more than it lists.
    units = {**report.get("units", {}),
             **{spec["name"]: spec["unit"] for spec in metric_specs(trace)}}
    names = [spec["name"] for spec in metric_specs(trace)]
    names += [name for name in values if name not in names]
    metrics = {}
    for name in names:
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": units[name]}
        lines.append(f"metric {name} {value:.6g} {units[name]}")
    attempted, failed = report["attempted"], report["failed"]
    lines.append(f"metric failed_ratio {failed / attempted:.6g} fraction "
                 f"({failed} of {attempted})")
    lines.append(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return lines


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out to confirm "
                             f"claims)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full report as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one output to prove the checks fire")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if SPEC is None or not (REPO / "src" / "repro").is_dir():
        print(f"error: no program to measure under {REPO}", file=sys.stderr)
        return 2
    kind, cfg = WORKLOADS[args.workload]
    if args.smoke:
        cfg = SMOKE[args.workload]
    env = program_env()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        record = env_record(env)
        report = BENCHES[kind](cfg, args.seed, env, args.seconds,
                               bool(args.trace), args.inject_mismatch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    report.update(env=record, workload=args.workload, seed=args.seed,
                  trace=args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2,
                                             sort_keys=True))
    for line in render(report, bool(args.trace)):
        print(line)
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
