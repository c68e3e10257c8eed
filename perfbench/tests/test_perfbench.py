"""Self-tests of the benchmark at tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each end-to-end test runs ``run.py --smoke``, which shrinks every input
so a workload takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import PROFILE_LAYERS, SpanTracer, layer_of  # noqa: E402
from measure import canonical_digest, tail_percentile  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-module self times must account for the traced wall time of
# Machine.run within this share (the profiler's own bookkeeping and the
# enable/disable calls are the rest).
SELF_TIME_TOLERANCE = 0.10


def bench(*args, cwd=REPO, timeout=300):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def smoke(workload, trace, *extra):
    proc, lines = bench("--workload", workload, "--seed", "3",
                        "--seconds", "0.5", "--trace", str(trace),
                        "--smoke", *extra)
    result = json.loads(lines[-1])
    return proc, lines, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc, lines, result = smoke(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)
        printed = [line for line in lines
                   if line.startswith(f"metric {spec['name']} ")]
        assert len(printed) == 1
        assert printed[0].split()[3] == spec["unit"]
        if not trace:
            assert metric["value"] > 0


@pytest.mark.parametrize("workload", ["sim_sc_griffin", "sweep_policy_knobs",
                                      "serve_mixed"])
def test_injected_mismatch_raises_failed_ratio(workload):
    proc, lines, result = smoke(workload, 0, "--inject-mismatch")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED ") for line in lines)
    ratio = [line for line in lines if line.startswith("metric failed_ratio")]
    assert float(ratio[0].split()[2]) > 0


def test_traced_self_times_sum_to_traced_wall():
    proc, _lines, result = smoke("sim_sc_griffin", 1)
    assert proc.returncode == 0
    metrics = result["metrics"]
    total = sum(metrics[f"{layer}.self_s"]["value"]
                for layer in PROFILE_LAYERS)
    wall = metrics["traced_wall_s"]["value"]
    assert abs(total - wall) <= SELF_TIME_TOLERANCE * wall


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    start = time.monotonic()
    proc, lines = bench("--workload", WORKLOADS[0], "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert time.monotonic() - start < 180
    assert not any(line.startswith("{") for line in lines)


def test_compare_refuses_differing_environments(tmp_path):
    base = {"workload": "sim_sc_griffin", "trace": 0,
            "env": {"backend": "heap", "ckernel": False, "python": "3.11.7",
                    "nproc": 2, "commit": "a"},
            "metrics": {"throughput": 10.0}}
    same = {**base, "env": {**base["env"], "commit": "b"},
            "metrics": {"throughput": 11.0}}
    other = {**base, "env": {**base["env"], "ckernel": True}}
    paths = {}
    for name, report in (("base", base), ("same", same), ("other", other)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(report))
    compare = [sys.executable, str(BENCH / "compare.py")]
    ok = subprocess.run(compare + [str(paths["base"]), str(paths["same"])],
                        capture_output=True, text=True)
    assert ok.returncode == 0 and "x1.1000" in ok.stdout
    refused = subprocess.run(
        compare + [str(paths["base"]), str(paths["other"])],
        capture_output=True, text=True)
    assert refused.returncode == 2 and "env.ckernel" in refused.stderr


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20)))[0] == 50.0
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(1000)))[0] == 99.0


def test_layer_of_groups_files_by_package():
    assert layer_of("~") == "builtin"
    assert layer_of("/x/src/repro/sim/engine.py") == "sim.engine"
    assert layer_of("/x/src/repro/sim/event.py") == "sim.engine"
    assert layer_of("/x/src/repro/system/access_path.py") == \
        "system.access_path"
    assert layer_of("/x/src/repro/core/dpc.py") == "core"
    assert layer_of("/x/src/repro/system/machine.py") == "other"
    assert layer_of("/usr/lib/python3.11/heapq.py") == "other"


def test_span_tracer_subtracts_nested_spans():
    class Box:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.03)

    tracer = SpanTracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner")
    try:
        Box().outer()
    finally:
        tracer.restore()
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert 0.015 < tracer.self_s["outer"] < 0.03
    assert tracer.self_s["inner"] >= 0.03
    assert Box.outer.__name__ == "outer" and not hasattr(Box.outer,
                                                         "__wrapped__")


def test_canonical_digest_ignores_key_order_and_tuples():
    assert canonical_digest({"a": (1, 2), "b": 1}) == \
        canonical_digest({"b": 1, "a": [1, 2]})
    assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})
