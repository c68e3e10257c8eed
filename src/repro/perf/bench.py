"""Run the pinned benchmark suite and record/diff ``BENCH_<date>.json``.

Each report carries, per case: best-of-N wall time, work performed (engine
events for e2e cases, ops for micro cases), throughput, and the allocation
delta of one run.  Report-level fields add peak RSS, a config fingerprint
(suite definition + interpreter), and the normalized end-to-end throughput
``e2e_events_per_sec / calibration_events_per_sec`` — a machine-independent
figure usable as a CI regression gate against a committed baseline.

Determinism: benchmarking never alters simulation results — the suite only
*measures* runs whose outputs are already pinned by (workload, policy,
config, scale, seed).
"""

from __future__ import annotations

import datetime as _dt
import gc
import hashlib
import json
import platform
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.perf.suite import BenchSuite, bench_suite

# v2 added "sweep" cases and the per-case ``extra`` dict.
# v3 added per-case ``median_wall_seconds`` alongside best-of-N, plus the
# "ring" (heap-vs-ring event core) and "batch" (batched replicas) kinds.
# Both measured code that has since been deleted; reports carrying them
# still load and render, as plain table rows.
# v4 added the "compiled" kind (heap vs the C event-core extension) and
# the optional report-level ``comparison`` block the CLI embeds when a
# baseline diff ran.  Older reports stay loadable: new fields default.
_SCHEMA_VERSION = 4
_READABLE_SCHEMAS = frozenset({1, 2, 3, 4})


def _peak_rss_kb() -> int:
    """Process peak RSS in KB (0 when the platform offers no counter)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        rss //= 1024
    return int(rss)


def _allocated_blocks() -> int:
    """Live CPython allocation count (0 on interpreters without it)."""
    getter = getattr(sys, "getallocatedblocks", None)
    return getter() if getter is not None else 0


@dataclass
class CaseResult:
    """Measurements for one benchmark case."""

    name: str
    kind: str  # "micro" | "e2e" | "sweep" | "compiled" (+ "ring"/"batch" in v3/v4)
    wall_seconds: float  # best-of-N (throughput figures use this)
    work: int  # engine events (e2e), ops (micro), or grid cells (sweep)
    work_unit: str
    per_sec: float
    alloc_blocks_delta: int
    repeats: int
    # Kind-specific measurements; sweep cases record the cold-vs-forked
    # comparison and the cache hit/miss exercise here.
    extra: dict = field(default_factory=dict)
    # Median of the N wall times — a noise-robust companion to best-of-N.
    # Defaults to 0.0 so schema-v1/v2 reports still load.
    median_wall_seconds: float = 0.0


@dataclass
class BenchReport:
    """One full suite run, as written to ``BENCH_<date>.json``."""

    suite: str
    label: str
    created: str
    fingerprint: str
    python: str
    platform: str
    repeats: int
    cases: list = field(default_factory=list)  # list[CaseResult]
    peak_rss_kb: int = 0
    schema: int = _SCHEMA_VERSION

    # ------------------------------------------------------------------

    def case(self, name: str) -> Optional[CaseResult]:
        for c in self.cases:
            if c.name == name:
                return c
        return None

    def _sum(self, kind: str, attr: str) -> float:
        return sum(getattr(c, attr) for c in self.cases if c.kind == kind)

    @property
    def e2e_wall_seconds(self) -> float:
        return self._sum("e2e", "wall_seconds")

    @property
    def e2e_events(self) -> int:
        return int(self._sum("e2e", "work"))

    @property
    def e2e_events_per_sec(self) -> float:
        wall = self.e2e_wall_seconds
        return self.e2e_events / wall if wall > 0 else 0.0

    @property
    def calibration_per_sec(self) -> float:
        cal = self.case("calibration")
        return cal.per_sec if cal is not None else 0.0

    @property
    def normalized_e2e(self) -> float:
        """End-to-end events/sec per unit of machine speed.

        Dividing by the calibration microbench makes the figure comparable
        across hosts, so a committed baseline still gates CI runners.
        """
        cal = self.calibration_per_sec
        return self.e2e_events_per_sec / cal if cal > 0 else 0.0

    def to_dict(self) -> dict:
        data = asdict(self)
        data["aggregate"] = {
            "e2e_wall_seconds": self.e2e_wall_seconds,
            "e2e_events": self.e2e_events,
            "e2e_events_per_sec": self.e2e_events_per_sec,
            "e2e_median_wall_seconds": self._sum(
                "e2e", "median_wall_seconds"
            ),
            "calibration_per_sec": self.calibration_per_sec,
            "normalized_e2e": self.normalized_e2e,
            "micro_wall_seconds": self._sum("micro", "wall_seconds"),
        }
        return data

    def render(self) -> str:
        """Human-readable summary table."""
        from repro.metrics.report import format_table

        rows = [
            [c.name, c.kind, f"{c.wall_seconds:.3f}",
             f"{c.median_wall_seconds:.3f}", f"{c.work:,}",
             f"{c.per_sec:,.0f} {c.work_unit}/s", f"{c.alloc_blocks_delta:,}"]
            for c in self.cases
        ]
        rows.append([
            "TOTAL e2e", "e2e", f"{self.e2e_wall_seconds:.3f}",
            f"{self._sum('e2e', 'median_wall_seconds'):.3f}",
            f"{self.e2e_events:,}",
            f"{self.e2e_events_per_sec:,.0f} events/s", "",
        ])
        table = format_table(
            ["Case", "Kind", "Best (s)", "Median (s)", "Work",
             "Throughput", "Alloc Δ"],
            rows, f"bench suite '{self.suite}' ({self.label})",
        )
        extra = (
            f"peak RSS: {self.peak_rss_kb:,} KB | "
            f"normalized e2e (vs calibration): {self.normalized_e2e:.4f} | "
            f"fingerprint: {self.fingerprint[:12]}"
        )
        sweep_lines = [
            (
                f"sweep '{c.name}': {c.extra.get('fork_speedup', 0.0):.2f}x "
                f"cells/sec forked vs cold "
                f"({c.per_sec:.2f} vs {c.extra.get('cold_cells_per_sec', 0.0):.2f}), "
                f"{c.extra.get('forked_cells', 0)}/{c.extra.get('cells', 0)} "
                f"cells forked, cache resume "
                f"{c.extra.get('cache_resume_hits', 0)} hits / "
                f"{c.extra.get('cache_resume_misses', 0)} misses"
            )
            for c in self.cases
            if c.kind == "sweep"
        ]
        compiled_lines = [
            (
                f"compiled '{c.name}': extension not built, "
                f"heap-only measurement "
                f"({c.extra.get('heap_events_per_sec', 0.0):,.0f} events/s)"
                if not c.extra.get("compiled_available", True)
                else
                f"compiled '{c.name}': "
                f"{c.extra.get('compiled_speedup', 0.0):.2f}x "
                f"events/sec compiled vs heap "
                f"({c.extra.get('compiled_events_per_sec', 0.0):,.0f} vs "
                f"{c.extra.get('heap_events_per_sec', 0.0):,.0f}), "
                f"results identical: "
                f"{c.extra.get('results_identical', False)}"
            )
            for c in self.cases
            if c.kind == "compiled"
        ]
        return "\n".join(
            [table, extra]
            + sweep_lines + compiled_lines
        )


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------

def _fingerprint(suite: BenchSuite) -> str:
    payload = {
        "suite": suite.fingerprint_payload(),
        "python": platform.python_version(),
        "impl": platform.python_implementation(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _measure(
    fn: Callable[[], int], repeats: int
) -> tuple[float, float, int, int]:
    """Time ``fn`` N times; returns (best, median, work, alloc_delta).

    Best-of-N stays the headline (least noise-contaminated); the median
    is recorded alongside it as the noise-robust companion.  The
    allocation delta is sampled on the first run only (it is a property
    of the work, not of repetition).
    """
    walls = []
    work = 0
    alloc_delta = 0
    for attempt in range(repeats):
        gc.collect()
        before = _allocated_blocks()
        t0 = time.perf_counter()
        work = fn()
        walls.append(time.perf_counter() - t0)
        if attempt == 0:
            alloc_delta = _allocated_blocks() - before
    return min(walls), statistics.median(walls), work, alloc_delta


def run_bench(
    quick: bool = False,
    repeats: int = 0,
    label: str = "",
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Execute the pinned suite and return a :class:`BenchReport`."""
    from repro.harness.runner import run_workload

    suite = bench_suite(quick=quick)
    if repeats <= 0:
        repeats = 1 if quick else 3
    report = BenchReport(
        suite=suite.name,
        label=label or ("quick" if quick else "full"),
        created=_dt.datetime.now(_dt.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        fingerprint=_fingerprint(suite),
        python=platform.python_version(),
        platform=platform.platform(),
        repeats=repeats,
    )
    micro_scale = 1 if quick else 3
    for case in suite.micro:
        if progress is not None:
            progress(f"micro:{case.name}")
        wall, med, work, alloc = _measure(
            lambda: case.fn(micro_scale), repeats
        )
        report.cases.append(CaseResult(
            name=case.name, kind="micro", wall_seconds=wall, work=work,
            work_unit=case.unit, per_sec=work / wall if wall > 0 else 0.0,
            alloc_blocks_delta=alloc, repeats=repeats,
            median_wall_seconds=med,
        ))
    for case in suite.e2e:
        if progress is not None:
            progress(f"e2e:{case.name}")
        config = case.build_config()
        faults = case.build_faults()

        def one_run() -> int:
            result = run_workload(
                case.workload, case.policy, config=config,
                scale=case.scale, seed=case.seed, faults=faults,
            )
            return result.events_executed

        wall, med, work, alloc = _measure(one_run, repeats)
        report.cases.append(CaseResult(
            name=case.name, kind="e2e", wall_seconds=wall, work=work,
            work_unit="events", per_sec=work / wall if wall > 0 else 0.0,
            alloc_blocks_delta=alloc, repeats=repeats,
            median_wall_seconds=med,
        ))
    for case in suite.sweeps:
        if progress is not None:
            progress(f"sweep:{case.name}")
        report.cases.append(_measure_sweep(case, repeats))
    for case in suite.compiled:
        if progress is not None:
            progress(f"compiled:{case.name}")
        report.cases.append(_measure_compiled(case, repeats))
    report.peak_rss_kb = _peak_rss_kb()
    return report


def _measure_compiled(case, repeats: int) -> CaseResult:
    """Time one pinned e2e cell under the heap and compiled event cores.

    The headline figure (``per_sec``) is the compiled backend's
    events/sec; ``extra`` records the heap baseline, the compiled/heap
    speedup, and whether both backends produced byte-identical result
    dicts — the same parity contract the goldens pin, re-checked here on
    live runs.

    On hosts where the ``repro.sim._ckernel`` extension is not built the
    case degrades to a heap-only measurement with
    ``extra["compiled_available"] = False`` instead of erroring, so an
    extension-less bench run still produces a complete report.

    The ``REPRO_ENGINE_BACKEND`` override is suspended during
    measurement so a compiled-backend CI bench run cannot turn the heap
    leg into a second compiled leg.
    """
    import os

    from repro.harness.io import result_to_dict
    from repro.harness.runner import run_workload
    from repro.sim.backends import BACKEND_ENV, compiled_available

    heap_config = case.build_config()
    results = {}

    def one_run(config, backend) -> int:
        result = run_workload(
            case.workload, case.policy, config=config,
            scale=case.scale, seed=case.seed,
        )
        results[backend] = result_to_dict(result)
        return result.events_executed

    env_override = os.environ.pop(BACKEND_ENV, None)
    try:
        heap_wall, heap_med, work, alloc = _measure(
            lambda: one_run(heap_config, "heap"), repeats
        )
        if not compiled_available():
            heap_per_sec = work / heap_wall if heap_wall > 0 else 0.0
            return CaseResult(
                name=case.name, kind="compiled", wall_seconds=heap_wall,
                work=work, work_unit="events", per_sec=heap_per_sec,
                alloc_blocks_delta=alloc, repeats=repeats,
                median_wall_seconds=heap_med,
                extra={
                    "compiled_available": False,
                    "heap_wall_seconds": heap_wall,
                    "heap_median_wall_seconds": heap_med,
                    "heap_events_per_sec": heap_per_sec,
                },
            )
        compiled_config = heap_config.with_engine_backend("compiled")
        comp_wall, comp_med, _, alloc = _measure(
            lambda: one_run(compiled_config, "compiled"), repeats
        )
    finally:
        if env_override is not None:
            os.environ[BACKEND_ENV] = env_override
    heap_per_sec = work / heap_wall if heap_wall > 0 else 0.0
    comp_per_sec = work / comp_wall if comp_wall > 0 else 0.0
    return CaseResult(
        name=case.name, kind="compiled", wall_seconds=comp_wall, work=work,
        work_unit="events", per_sec=comp_per_sec,
        alloc_blocks_delta=alloc, repeats=repeats,
        median_wall_seconds=comp_med,
        extra={
            "compiled_available": True,
            "heap_wall_seconds": heap_wall,
            "heap_median_wall_seconds": heap_med,
            "heap_events_per_sec": heap_per_sec,
            "compiled_events_per_sec": comp_per_sec,
            "compiled_speedup": (
                heap_wall / comp_wall if comp_wall > 0 else 0.0
            ),
            "results_identical": results["heap"] == results["compiled"],
        },
    )


def _measure_sweep(case, repeats: int) -> CaseResult:
    """Time one pinned sweep grid cold vs snapshot-forked.

    The headline figure (``per_sec``) is forked cells/sec — the
    throughput a knob sweep actually gets.  ``extra`` records the cold
    baseline, the resulting fork speedup, and a result-cache exercise
    (a cold-cache sweep followed by a warm-cache resume) so hit/miss
    accounting lands in ``BENCH_*.json``.  Both orderings simulate
    identical work; forked results are byte-identical to cold ones.
    """
    import tempfile

    sweep = case.build_sweep()
    cells = sweep.size()

    def cold_run() -> int:
        sweep.run(scale=case.scale, seed=case.seed, fork=False)
        return cells

    def fork_run() -> int:
        sweep.run(scale=case.scale, seed=case.seed, fork=True)
        return cells

    cold_wall, _, _, _ = _measure(cold_run, repeats)
    fork_wall, fork_med, _, alloc = _measure(fork_run, repeats)
    fork_stats = sweep.run(scale=case.scale, seed=case.seed, fork=True)
    with tempfile.TemporaryDirectory() as tmp:
        first = sweep.run(scale=case.scale, seed=case.seed, cache_dir=tmp)
        second = sweep.run(
            scale=case.scale, seed=case.seed, cache_dir=tmp, resume=True
        )
    return CaseResult(
        name=case.name, kind="sweep", wall_seconds=fork_wall, work=cells,
        work_unit="cells",
        per_sec=cells / fork_wall if fork_wall > 0 else 0.0,
        alloc_blocks_delta=alloc, repeats=repeats,
        median_wall_seconds=fork_med,
        extra={
            "cells": cells,
            "cold_wall_seconds": cold_wall,
            "cold_cells_per_sec": cells / cold_wall if cold_wall > 0 else 0.0,
            "fork_speedup": cold_wall / fork_wall if fork_wall > 0 else 0.0,
            "forked_cells": fork_stats.forked_cells,
            "cold_cells": fork_stats.cold_cells,
            "fork_groups": fork_stats.fork_groups,
            "prefix_events": fork_stats.prefix_events,
            "cache_cold_hits": first.cache_hits,
            "cache_cold_misses": first.cache_misses,
            "cache_resume_hits": second.cache_hits,
            "cache_resume_misses": second.cache_misses,
        },
    )


# ----------------------------------------------------------------------
# Persistence + diffing
# ----------------------------------------------------------------------

def save_report(report: BenchReport, out_dir: Path | str = ".") -> Path:
    """Write ``BENCH_<date>_<label>.json`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    date = report.created.split("T")[0]
    safe_label = "".join(
        ch if ch.isalnum() or ch in "-_" else "-" for ch in report.label
    )
    path = out / f"BENCH_{date}_{safe_label}.json"
    path.write_text(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    return path


def load_report(path: Path | str) -> BenchReport:
    """Load a previously saved report."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") not in _READABLE_SCHEMAS:
        raise ValueError(f"unsupported bench schema {data.get('schema')!r}")
    cases = [CaseResult(**c) for c in data["cases"]]
    return BenchReport(
        suite=data["suite"], label=data["label"], created=data["created"],
        fingerprint=data["fingerprint"], python=data["python"],
        platform=data["platform"], repeats=data["repeats"], cases=cases,
        peak_rss_kb=data["peak_rss_kb"],
    )


def find_previous_report(out_dir: Path | str, exclude: Optional[Path] = None) -> Optional[Path]:
    """The most recent ``BENCH_*.json`` in ``out_dir`` (by name, newest last)."""
    out = Path(out_dir)
    candidates = sorted(p for p in out.glob("BENCH_*.json") if p != exclude)
    return candidates[-1] if candidates else None


@dataclass
class BenchComparison:
    """Old-vs-new report comparison, with a generous regression verdict."""

    baseline_label: str
    current_label: str
    speedup_e2e: float  # current e2e events/sec over baseline's
    speedup_normalized: float  # same, normalized by each run's calibration
    same_fingerprint: bool
    case_speedups: dict = field(default_factory=dict)
    regressed: bool = False
    fail_factor: float = 2.0
    # Raw (un-normalized) verdict: same formula applied to the plain e2e
    # throughput ratio.  Informational — a slower runner trips this while
    # the normalized gate stays green, which is exactly the distinction
    # worth recording in the saved report.
    regressed_raw: bool = False

    def to_dict(self) -> dict:
        """JSON-ready form, embedded into saved reports by the CLI."""
        return asdict(self)

    def render(self) -> str:
        from repro.metrics.report import format_table

        rows = [
            [name, f"{ratio:.2f}x"]
            for name, ratio in self.case_speedups.items()
        ]
        rows.append(["e2e events/sec", f"{self.speedup_e2e:.2f}x"])
        rows.append(["e2e normalized", f"{self.speedup_normalized:.2f}x"])
        table = format_table(
            ["Case", f"{self.current_label} vs {self.baseline_label}"],
            rows, "bench comparison (throughput ratios; >1 is faster)",
        )
        notes = []
        if not self.same_fingerprint:
            notes.append("note: suite fingerprints differ; "
                         "ratios are indicative only")
        notes.append(
            f"regression gate (normalized e2e {self.fail_factor:.1f}x "
            f"slower): {'FAIL' if self.regressed else 'ok'}"
        )
        notes.append(
            f"raw (un-normalized) e2e {self.fail_factor:.1f}x slower: "
            f"{'FAIL' if self.regressed_raw else 'ok'}"
            " (informational; the normalized verdict is the gate)"
        )
        return table + "\n" + "\n".join(notes)


def compare_reports(
    baseline: BenchReport,
    current: BenchReport,
    fail_factor: float = 2.0,
) -> BenchComparison:
    """Diff two reports; flags a regression only past ``fail_factor``.

    The gate uses calibration-normalized end-to-end throughput so a slower
    CI runner does not register as a simulator regression; ``fail_factor``
    is deliberately generous (default 2x) so the gate cannot flake on
    ordinary machine noise.
    """
    case_speedups = {}
    for cur in current.cases:
        base = baseline.case(cur.name)
        if base is not None and base.per_sec > 0:
            case_speedups[cur.name] = cur.per_sec / base.per_sec
    speedup = (
        current.e2e_events_per_sec / baseline.e2e_events_per_sec
        if baseline.e2e_events_per_sec > 0 else 0.0
    )
    speedup_norm = (
        current.normalized_e2e / baseline.normalized_e2e
        if baseline.normalized_e2e > 0 else 0.0
    )
    regressed = 0.0 < speedup_norm < (1.0 / fail_factor)
    regressed_raw = 0.0 < speedup < (1.0 / fail_factor)
    return BenchComparison(
        baseline_label=f"{baseline.label}@{baseline.created.split('T')[0]}",
        current_label=f"{current.label}@{current.created.split('T')[0]}",
        speedup_e2e=speedup,
        speedup_normalized=speedup_norm,
        same_fingerprint=baseline.fingerprint == current.fingerprint,
        case_speedups=case_speedups,
        regressed=regressed,
        fail_factor=fail_factor,
        regressed_raw=regressed_raw,
    )
