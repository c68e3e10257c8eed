"""Declarative parameter sweeps over (workload x policy x config x hyper).

``Sweep`` runs the full cross-product of its axes and returns a
``SweepResult`` that slices, aggregates, and renders — the formalization
of what the benchmark files do by hand, available to library users::

    from repro.harness.sweep import Sweep

    sweep = Sweep(
        workloads=["MT", "SC"],
        policies=["baseline", "griffin"],
        configs={"pcie": small_system(), "nvlink": nvlink_system()},
    )
    result = sweep.run(scale=0.01, seed=3)
    print(result.table("cycles"))
    print(result.speedup_table("baseline", "griffin"))

Effective-input identity
------------------------

Every cell gets a fingerprint over the inputs its simulation actually
reads.  Hyperparameters the cell's policy never reads
(:func:`repro.system.machine.unread_hyper_fields` — for example every
Griffin knob under ``baseline``) are left out, so cells that differ only
there share one identity.  The sweep runs each identity once and lands
an independent copy of its outcome on every cell that shares it; the
in-process executor, the queue and ``repro serve`` all plan this way.

Snapshot-fork execution
-----------------------

Most sweeps vary *late-binding* knobs — hyperparameters and policy
fields the simulation first consults at its periodic migration phase
(see ``LATE_HYPER_FIELDS`` / ``LATE_POLICY_FIELDS`` in
:mod:`repro.system.machine`).  Every cell in such a group replays an
identical warm-up: same trace, same faults, same event stream up to the
first migration decision.  With ``fork=True`` (the default) the sweep
runs that shared prefix **once** per group, snapshots the machine at
``migration_period - 1`` cycles, and forks each cell from the snapshot
via :class:`repro.sim.snapshot.MachineSnapshot`.  Forked cells are
byte-identical to cold runs — the parity suite pins this — so results
never depend on ``fork``, ``workers``, or the executor.

Cells that cannot share a prefix run cold, exactly as before: object
workloads (no stable fingerprint), predictive policies (they consume
``lambda_t`` during warm-up), unknown policies (the cold path owns the
error message), and groups of one distinct cell (nothing to amortize).
Event budgets span a cell's whole run, so even a forked cell that
exhausts ``max_events`` fails with its cold run's exact message.

Executors
---------

``Sweep.run`` has two.  The *in-process* executor runs every cell in
the calling process; it is used when ``workers <= 1``, ``cell_timeout``
is unset and ``queue_dir`` is unset.  Every other sweep runs through a
:class:`repro.harness.queue.SweepQueue` — in ``queue_dir``, or a
temporary directory — drained by ``workers`` local worker processes or
by the calling process.  Both plan the same way, read and write the
same cache, and return byte-identical results.

Caching
-------

``cache_dir`` enables an on-disk cache keyed by a cell fingerprint
(canonical JSON of the cell's full configuration) combined with
:func:`repro.harness.fingerprint.code_fingerprint`, so any source change
invalidates every entry.  ``resume=True`` loads completed cells from the
cache instead of re-running them — a killed sweep re-runs only what it
had not finished.  Both executors read and write results there; the
in-process executor caches group snapshots there too, while queue
workers share theirs under the queue directory.  Failures are never
cached.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
import pickle
from dataclasses import dataclass, field
from typing import Optional

from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import small_system
from repro.config.system import SystemConfig
from repro.core.policies import get_policy
from repro.harness.results import FailedRun, RunResult
from repro.harness.runner import harvest_result, prepare_run, run_workload
from repro.metrics.report import format_table, geometric_mean
from repro.system.machine import (
    LATE_HYPER_FIELDS,
    LATE_POLICY_FIELDS,
    unread_hyper_fields,
)

_METRICS = {
    "cycles": lambda r: r.cycles,
    "local_fraction": lambda r: r.local_fraction,
    "shootdowns": lambda r: r.total_shootdowns,
    "migrations": lambda r: r.total_migrations,
    "gpu_to_gpu": lambda r: r.gpu_to_gpu_migrations,
    "imbalance": lambda r: r.imbalance(),
}


@dataclass(frozen=True)
class SweepKey:
    """Coordinates of one point in the sweep grid."""

    workload: str
    policy: str
    config: str
    hyper: str
    fault: str = "none"


@dataclass
class SweepResult:
    """All runs of one sweep, indexed by :class:`SweepKey`.

    Attributes:
        points: SweepKey -> RunResult for every completed grid point.
        failures: SweepKey -> :class:`FailedRun` for points that stalled,
            blew their event budget, or raised.  A sweep always completes;
            a bad cell never takes the grid down with it.
        cache_hits: Cells served from the on-disk result cache.
        cache_misses: Cells executed while a cache was attached.
        forked_cells: Cells continued from a shared prefix snapshot.
        cold_cells: Cells simulated from cycle zero.
        shared_cells: Cells answered by another cell's run (same
            effective inputs).  ``forked_cells + cold_cells +
            shared_cells + cache_hits`` is the grid size.
        fork_groups: Shared-prefix groups actually forked.
        prefix_events: Events executed across all shared prefixes; each
            group's other members skipped roughly this many each.
    """

    points: dict = field(default_factory=dict)  # SweepKey -> RunResult
    failures: dict = field(default_factory=dict)  # SweepKey -> FailedRun
    cache_hits: int = 0
    cache_misses: int = 0
    forked_cells: int = 0
    cold_cells: int = 0
    shared_cells: int = 0
    fork_groups: int = 0
    prefix_events: int = 0

    def get(self, workload: str, policy: str, config: str = "default",
            hyper: str = "default", fault: str = "none") -> RunResult:
        return self.points[SweepKey(workload, policy, config, hyper, fault)]

    def failure_table(self) -> str:
        """Plain-text table of the failed grid points (empty grid -> '')."""
        if not self.failures:
            return ""
        rows = [
            [k.workload, k.policy, k.config, k.fault, f.error_type,
             f.attempts, f.message, f.bundle_path or "-"]
            for k, f in self.failures.items()
        ]
        return format_table(
            ["Workload", "Policy", "Config", "Fault", "Error", "Attempts",
             "Message", "Bundle"],
            rows, "Sweep failures",
        )

    def metric(self, name: str):
        """(key, value) pairs for a named metric."""
        fn = _METRICS.get(name)
        if fn is None:
            raise KeyError(
                f"unknown metric {name!r}; available: {', '.join(_METRICS)}"
            )
        return [(key, fn(run)) for key, run in self.points.items()]

    def table(self, metric: str = "cycles") -> str:
        """Plain-text table of one metric over the whole grid."""
        rows = [
            [k.workload, k.policy, k.config, k.hyper,
             f"{v:,.2f}" if isinstance(v, float) else v]
            for k, v in self.metric(metric)
        ]
        return format_table(
            ["Workload", "Policy", "Config", "Hyper", metric], rows,
            f"Sweep: {metric}",
        )

    def speedups(self, baseline_policy: str, other_policy: str,
                 config: str = "default", hyper: str = "default") -> dict:
        """workload -> speedup of ``other`` over ``baseline``."""
        out = {}
        for key, run in self.points.items():
            if (key.policy, key.config, key.hyper) != (
                baseline_policy, config, hyper
            ):
                continue
            other = self.points.get(
                SweepKey(key.workload, other_policy, config, hyper, key.fault)
            )
            if other is not None:
                out[key.workload] = run.cycles / other.cycles
        return out

    def speedup_table(self, baseline_policy: str, other_policy: str,
                      config: str = "default", hyper: str = "default") -> str:
        speedups = self.speedups(baseline_policy, other_policy, config, hyper)
        rows = [[wl, f"{s:.2f}"] for wl, s in speedups.items()]
        if speedups:
            rows.append(["geomean", f"{geometric_mean(speedups.values()):.2f}"])
        return format_table(
            ["Workload", f"{other_policy} vs {baseline_policy}"], rows,
            f"Sweep speedups ({config}, {hyper})",
        )


# ----------------------------------------------------------------------
# Fingerprints and fork planning
# ----------------------------------------------------------------------


def _canon(value):
    """Reduce configs to canonical JSON-able structure for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in value.items()}
    return value


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _resolve_variant(args):
    """(PolicyConfig, GriffinHyperParams) for a cell, or None if the cell
    cannot be resolved eagerly (the cold path owns its error message)."""
    (workload, policy, _config, hyper, _scale, _seed,
     _fault, _max_events, _stall, _checks, _bundle_dir) = args
    if not isinstance(workload, str):
        return None
    try:
        policy = get_policy(policy) if isinstance(policy, str) else policy
    except KeyError:
        return None
    if hyper is None:
        hyper = GriffinHyperParams.calibrated()
    return policy, hyper


def _hyper_identity(policy, hyper, masked: frozenset = frozenset()) -> dict:
    """Hyperparameters as fingerprints hash them: the fields ``policy``
    never reads, and ``masked``, are left out."""
    skip = unread_hyper_fields(policy) | masked
    return {
        f.name: _canon(getattr(hyper, f.name))
        for f in dataclasses.fields(hyper)
        if f.name not in skip
    }


def cell_fingerprint(args, code_fp: str = "") -> Optional[str]:
    """Effective-input identity of one grid cell, or None if it has none.

    Hashes every input the simulation reads — workload name, policy,
    system config, the hyperparameters the policy reads, faults, scale,
    seed, and the run budgets — plus the source-tree fingerprint.  Two
    cells with one fingerprint run byte-identically, so a sweep runs
    only one of them, and a cached result is valid exactly when a fresh
    run would be byte-identical to it.
    """
    resolved = _resolve_variant(args)
    if resolved is None:
        return None
    policy, hyper = resolved
    (workload, _policy, config, _hyper, scale, seed,
     fault, max_events, stall_threshold, checks, _bundle_dir) = args
    return _digest({
        "workload": workload,
        "policy": _canon(policy),
        "config": _canon(config),
        "hyper": _hyper_identity(policy, hyper),
        "fault": _canon(fault),
        "scale": scale,
        "seed": seed,
        "max_events": max_events,
        "stall_threshold": stall_threshold,
        # bundle_dir is where evidence lands, not a simulation input; the
        # sanitizer config is hashed because it decides whether a cell
        # fails (a violation) or succeeds.
        "checks": _canon(checks) if checks is not None else None,
        "code": code_fp,
    })


def group_fingerprint(args, code_fp: str = "") -> Optional[str]:
    """Shared-prefix identity of a cell, or None if it cannot fork.

    Masks the late-binding fields, and the hyperparameters the policy
    never reads — two cells with the same group fingerprint replay an
    identical event stream up to the migration phase, so one prefix
    snapshot serves both.  Predictive policies consume ``lambda_t``
    during warm-up and therefore never group.
    """
    resolved = _resolve_variant(args)
    if resolved is None:
        return None
    policy, hyper = resolved
    if policy.predictive:
        return None
    (workload, _policy, config, _hyper, scale, seed,
     fault, max_events, stall_threshold, checks, _bundle_dir) = args
    if checks is not None and checks.enabled:
        # Checked cells run cold: the sanitizer attaches before start()
        # and tracks protocol state (drain phases, queued faults) a
        # mid-run fork could not reconstruct.
        return None
    return _digest({
        "workload": workload,
        "policy": {
            f.name: _canon(getattr(policy, f.name))
            for f in dataclasses.fields(policy)
            if f.name not in LATE_POLICY_FIELDS
        },
        "hyper": _hyper_identity(policy, hyper, LATE_HYPER_FIELDS),
        "config": _canon(config),
        "fault": _canon(fault),
        "scale": scale,
        "seed": seed,
        "max_events": max_events,
        "stall_threshold": stall_threshold,
        "code": code_fp,
    })


class SpecError(ValueError):
    """A JSON sweep spec failed validation.

    The service's admission path turns this into HTTP 400; the message
    is user-facing, so every raise names the offending field.
    """


# Top-level keys a JSON sweep spec may carry.  ``deadline_s`` is consumed
# by the service (per-request wall clock), not by the sweep itself, but
# it must not trip the unknown-key check.
_SPEC_KEYS = frozenset({
    "workloads", "policies", "configs", "hypers", "faults",
    "scale", "seed", "max_events", "stall_threshold", "deadline_s",
})
_CONFIG_SPEC_KEYS = frozenset({"preset", "gpus", "fabric"})


def _config_from_spec(name: str, cfg: Optional[dict]):
    from repro.config.presets import (
        NVLINK,
        PCIE_V4,
        paper_system,
        small_system,
        tiny_system,
    )

    presets = {"tiny": tiny_system, "small": small_system,
               "paper": paper_system}
    cfg = cfg or {}
    if not isinstance(cfg, dict):
        raise SpecError(f"configs[{name!r}] must be an object")
    unknown = set(cfg) - _CONFIG_SPEC_KEYS
    if unknown:
        raise SpecError(
            f"configs[{name!r}] has unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(_CONFIG_SPEC_KEYS)}"
        )
    preset = cfg.get("preset", "small")
    if preset not in presets:
        raise SpecError(
            f"configs[{name!r}].preset must be one of "
            f"{sorted(presets)}, got {preset!r}"
        )
    gpus = cfg.get("gpus")
    if gpus is not None and (not isinstance(gpus, int) or gpus < 1):
        raise SpecError(f"configs[{name!r}].gpus must be a positive integer")
    fabric = cfg.get("fabric", "pcie")
    if fabric not in ("pcie", "nvlink"):
        raise SpecError(
            f"configs[{name!r}].fabric must be 'pcie' or 'nvlink'"
        )
    base = presets[preset]() if gpus is None else presets[preset](gpus)
    return base.with_link(NVLINK if fabric == "nvlink" else PCIE_V4)


def _names_from_spec(spec: dict, key: str, known, kind: str) -> list:
    values = spec.get(key)
    if (not isinstance(values, list) or not values
            or not all(isinstance(v, str) for v in values)):
        raise SpecError(f"{key!r} must be a non-empty list of {kind} names")
    unknown = [v for v in values if v not in known]
    if unknown:
        raise SpecError(
            f"unknown {kind}(s) {unknown}; available: {sorted(known)}"
        )
    return list(values)


def sweep_from_spec(spec: dict) -> tuple["Sweep", dict]:
    """Build a :class:`Sweep` plus run parameters from a JSON-shaped dict.

    This is the wire format ``repro serve`` accepts.  Validation is
    eager and strict — unknown keys, unknown workloads/policies, and bad
    types all raise :class:`SpecError` with a message naming the field —
    so a bad submission is rejected at admission, before anything is
    enqueued.  Returns ``(sweep, run_params)`` where ``run_params`` are
    keyword arguments for :meth:`Sweep.run` (``scale``, ``seed``,
    ``max_events_per_run``, ``stall_threshold``).

    Spec shape (everything but ``workloads``/``policies`` optional)::

        {"workloads": ["MT", "SC"], "policies": ["baseline", "griffin"],
         "configs": {"tiny": {"preset": "tiny", "gpus": 2,
                              "fabric": "pcie"}},
         "hypers": {"eager": {"min_pages_per_source": 1}},
         "faults": {"chaos": {"migration_drop_rate": 0.3}},
         "scale": 0.008, "seed": 5, "max_events": 5000000}
    """
    from repro.config.faults import FaultConfig
    from repro.core.policies import list_policies
    from repro.workloads.registry import list_workloads

    if not isinstance(spec, dict):
        raise SpecError("sweep spec must be a JSON object")
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise SpecError(
            f"unknown spec keys {sorted(unknown)}; "
            f"allowed: {sorted(_SPEC_KEYS)}"
        )
    workloads = _names_from_spec(spec, "workloads", set(list_workloads()),
                                 "workload")
    policies = _names_from_spec(spec, "policies", set(list_policies()),
                                "policy")

    configs = None
    if spec.get("configs") is not None:
        if not isinstance(spec["configs"], dict) or not spec["configs"]:
            raise SpecError("'configs' must be a non-empty object")
        configs = {
            str(name): _config_from_spec(name, cfg)
            for name, cfg in spec["configs"].items()
        }

    hypers = None
    if spec.get("hypers") is not None:
        if not isinstance(spec["hypers"], dict) or not spec["hypers"]:
            raise SpecError("'hypers' must be a non-empty object")
        base = GriffinHyperParams.calibrated()
        fields = {f.name for f in dataclasses.fields(GriffinHyperParams)}
        hypers = {}
        for name, overrides in spec["hypers"].items():
            overrides = overrides or {}
            if not isinstance(overrides, dict):
                raise SpecError(f"hypers[{name!r}] must be an object")
            bad = set(overrides) - fields
            if bad:
                raise SpecError(
                    f"hypers[{name!r}] has unknown fields {sorted(bad)}"
                )
            hypers[str(name)] = base.with_overrides(**overrides)

    faults = None
    if spec.get("faults") is not None:
        if not isinstance(spec["faults"], dict) or not spec["faults"]:
            raise SpecError("'faults' must be a non-empty object")
        fields = {f.name for f in dataclasses.fields(FaultConfig)}
        faults = {}
        for name, plan in spec["faults"].items():
            if plan is None:
                faults[str(name)] = None
                continue
            if not isinstance(plan, dict):
                raise SpecError(f"faults[{name!r}] must be an object or null")
            bad = set(plan) - fields
            if bad:
                raise SpecError(
                    f"faults[{name!r}] has unknown fields {sorted(bad)}"
                )
            try:
                faults[str(name)] = FaultConfig(**plan)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"faults[{name!r}]: {exc}") from exc

    def _number(key, default, kind, minimum=None):
        value = spec.get(key, default)
        if value is None:
            return None
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SpecError(f"{key!r} must be a number")
        if minimum is not None and value < minimum:
            raise SpecError(f"{key!r} must be >= {minimum}")
        return value

    run_params = {
        "scale": float(_number("scale", 0.015, (int, float), 1e-6)),
        "seed": _number("seed", 3, int, 0),
        "max_events_per_run": _number("max_events", None, int, 1),
        "stall_threshold": _number("stall_threshold", 1_000_000, int, 1),
    }
    sweep = Sweep(workloads=workloads, policies=policies,
                  configs=configs, hypers=hypers, faults=faults)
    return sweep, run_params


def partition_cached_cells(cells, cache) -> tuple[list, list]:
    """Split planned queue cells into cache hits and cells still to run.

    ``cells`` is :func:`plan_queue_cells` output; ``cache`` a
    :class:`repro.harness.io.SweepResultCache`.  Returns ``(cached,
    missing)`` where ``cached`` holds ``(grid_index, key, fingerprint,
    RunResult)`` for every cell already present in the fingerprint cache
    and ``missing`` the remaining planned cells (grid order preserved).
    This is the partial-grid submission path: identical resubmissions
    are served entirely from ``cached`` and enqueue nothing.
    """
    cached: list = []
    missing: list = []
    for index, (key, args, fingerprint, group_fp) in enumerate(cells):
        hit = cache.load(fingerprint) if fingerprint is not None else None
        if hit is not None:
            cached.append((index, key, fingerprint, hit))
        else:
            missing.append((key, args, fingerprint, group_fp))
    return cached, missing


@dataclass
class SweepPlan:
    """Effective-input identity and fork plan of a sweep grid.

    The planning step every executor shares — in-process, queue and
    ``repro serve``.  ``cells`` holds one ``(key, args, fingerprint,
    group_fp)`` row per grid cell, in grid order; ``owner[i]`` is the
    index of the cell whose run answers cell ``i``: the first cell with
    the same fingerprint, or ``i`` itself.  A cell keeps its group
    fingerprint only when it runs and at least one other distinct cell
    shares the prefix (a group of one amortizes nothing and runs cold).
    """

    cells: list
    owner: list

    def distinct(self) -> list:
        """Indices of the cells that run, in grid order."""
        return [i for i, owner in enumerate(self.owner) if owner == i]

    def answers(self) -> dict:
        """Running cell index -> every grid index its outcome answers."""
        out: dict[int, list] = {}
        for index, owner in enumerate(self.owner):
            out.setdefault(owner, []).append(index)
        return out

    def rows(self) -> list:
        """The distinct cells' rows: one queue row per identity."""
        return [self.cells[i] for i in self.distinct()]

    def partition(self, cache) -> tuple[list, list]:
        """Split the distinct cells into cache hits and cells to run.

        Returns ``(hits, pending)``: ``hits`` holds ``(grid_index, key,
        fingerprint, RunResult)`` per identity found in ``cache`` and
        ``pending`` the grid indices of the others, in grid order.
        """
        distinct = self.distinct()
        found, _missing = partition_cached_cells(self.rows(), cache)
        hits = [(distinct[row], key, fingerprint, run)
                for row, key, fingerprint, run in found]
        answered = {index for index, _key, _fp, _run in hits}
        return hits, [i for i in distinct if i not in answered]

    def assemble(self, collected: SweepResult, hits=()) -> SweepResult:
        """Merge cache hits with executed outcomes; answer every cell.

        ``collected`` is keyed by the keys of the identities that ran (a
        drained queue's :meth:`SweepQueue.collect`); ``hits`` is
        :meth:`partition` output.  The returned result holds every grid
        key in grid order, each with an independent copy of its outcome,
        and counts cache hits and shared cells as the in-process
        executor does.
        """
        points = dict(collected.points)
        points.update((key, run) for _index, key, _fp, run in hits)
        cached = {index for index, _key, _fp, _run in hits}
        answers = self.answers()
        out = SweepResult(cache_hits=sum(len(answers[i]) for i in cached))
        for index, (key, _args, _fp, _gfp) in enumerate(self.cells):
            owner = self.owner[index]
            source = self.cells[owner][0]
            if source in points:
                run = points[source]
                out.points[key] = run if owner == index else _copy_outcome(run)
            else:
                # Which worker ran a cell is not part of its outcome (the
                # queue's rows and bundles keep it), so a failure reads as
                # the in-process executor records it.
                out.failures[key] = dataclasses.replace(
                    collected.failures[source],
                    workload=key.workload, policy=key.policy,
                    last_owner=None,
                )
            if owner != index and owner not in cached:
                out.shared_cells += 1
        return out


def _fork_groups(cells, indices) -> tuple[list, list]:
    """Split ``indices`` into fork groups and cold cells.

    Returns ``(groups, cold)``: ``groups`` lists ``(group_fp, members)``
    for every prefix at least two of the cells share (first-seen order);
    ``cold`` holds the rest in grid order.
    """
    by_prefix: dict[str, list[int]] = {}
    cold: list[int] = []
    for index in indices:
        group_fp = cells[index][3]
        if group_fp is None:
            cold.append(index)
        else:
            by_prefix.setdefault(group_fp, []).append(index)
    groups = []
    for group_fp, members in by_prefix.items():
        if len(members) < 2:
            cold.extend(members)
        else:
            groups.append((group_fp, members))
    return groups, sorted(cold)


def plan_sweep(grid, code_fp: str = "", fork: bool = True) -> SweepPlan:
    """Plan a ``(key, args)`` grid: collapse duplicate identities, then
    group the distinct cells by shared prefix (see :class:`SweepPlan`)."""
    owner: list[int] = []
    cells: list = []
    first: dict[str, int] = {}
    for index, (key, args) in enumerate(grid):
        fingerprint = cell_fingerprint(args, code_fp)
        if fingerprint is None:
            owner.append(index)
        else:
            owner.append(first.setdefault(fingerprint, index))
        group_fp = None
        if fork and owner[index] == index:
            group_fp = group_fingerprint(args, code_fp)
        cells.append((key, args, fingerprint, group_fp))
    groups, _cold = _fork_groups(
        cells, [i for i, o in enumerate(owner) if o == i]
    )
    grouped = {index for _gfp, members in groups for index in members}
    cells = [
        (key, args, fingerprint, group_fp if index in grouped else None)
        for index, (key, args, fingerprint, group_fp) in enumerate(cells)
    ]
    return SweepPlan(cells=cells, owner=owner)


def plan_queue_cells(grid, code_fp: str = "", fork: bool = True) -> list:
    """Queue rows ``(key, args, fingerprint, group_fp)`` for a grid.

    One row per distinct identity, with the in-process executor's fork
    plan; :meth:`SweepPlan.fan_out` answers the other cells at assembly.
    """
    return plan_sweep(grid, code_fp, fork).rows()


@dataclass(frozen=True)
class _WorkloadMeta:
    """Just enough workload identity for :func:`harvest_result`.

    Forked machines travel without their workload object; harvesting
    needs only ``spec.abbrev`` / ``seed`` / ``scale``, so this shim
    stands in (``spec`` resolves to the instance itself).
    """

    abbrev: str
    seed: int
    scale: float

    @property
    def spec(self) -> "_WorkloadMeta":
        return self


@dataclass
class Sweep:
    """A sweep definition: the cross-product of four axes.

    Attributes:
        workloads: Table III abbreviations.
        policies: Policy names.
        configs: Named system configurations (default: one
            ``small_system()`` under the name "default").
        hypers: Named hyperparameter sets (default: the calibrated set
            under the name "default").
        faults: Named fault-injection plans (default: one fault-free run
            under the name "none"; a ``None`` value means no faults).
    """

    workloads: list
    policies: list
    configs: Optional[dict] = None
    hypers: Optional[dict] = None
    faults: Optional[dict] = None

    def size(self) -> int:
        configs = self.configs or {"default": None}
        hypers = self.hypers or {"default": None}
        faults = self.faults or {"none": None}
        return (len(self.workloads) * len(self.policies)
                * len(configs) * len(hypers) * len(faults))

    def _grid(self, scale: float, seed: int, max_events, stall_threshold,
              checks=None, bundle_dir=None):
        configs = self.configs or {"default": small_system()}
        hypers = self.hypers or {"default": GriffinHyperParams.calibrated()}
        faults = self.faults or {"none": None}
        for config_name, config in configs.items():
            if config is None:
                config = small_system()
            for hyper_name, hyper in hypers.items():
                if hyper is None:
                    hyper = GriffinHyperParams.calibrated()
                for fault_name, fault in faults.items():
                    for workload in self.workloads:
                        wl_name = (
                            workload if isinstance(workload, str)
                            else getattr(
                                getattr(workload, "spec", None),
                                "abbrev", str(workload),
                            )
                        )
                        for policy in self.policies:
                            key = SweepKey(wl_name, policy, config_name,
                                           hyper_name, fault_name)
                            yield key, (workload, policy, config, hyper,
                                        scale, seed, fault, max_events,
                                        stall_threshold, checks, bundle_dir)

    def run(self, scale: float = 0.015, seed: int = 3,
            progress=None, workers: int = 1,
            max_events_per_run: Optional[int] = None,
            stall_threshold: Optional[int] = 1_000_000,
            fork: bool = True,
            cache_dir=None, resume: bool = False,
            checks=None, bundle_dir=None,
            cell_timeout: Optional[float] = None,
            queue_dir=None, lease_duration: float = 30.0,
            max_attempts: int = 3, backoff_base: float = 1.0,
            backoff_cap: float = 60.0) -> SweepResult:
        """Execute every grid point; optionally report progress.

        The grid runs in-process when ``workers <= 1``, ``cell_timeout``
        is None and ``queue_dir`` is None, and through a
        :class:`repro.harness.queue.SweepQueue` otherwise (see the module
        docstring).  Both executors plan alike, share the cache step and
        return byte-identical results.

        Args:
            scale / seed: Forwarded to every run.
            progress: Optional callable ``(done, total, key)``.  In-process
                it fires as each point completes (completion order, not
                grid order; cells that share an identity complete
                together).  Through the queue it is polled from queue
                counters and ``key`` is None.
            workers: Local worker processes draining the queue.  Grid
                points are independent simulations, so they parallelize
                perfectly; results are identical regardless of worker
                count (every run is deterministic).
            max_events_per_run: Event budget for each grid point — the
                sweep-level no-hang guarantee.  A point that exhausts it
                lands in ``SweepResult.failures``.
            stall_threshold: Per-run livelock watchdog (None disables).
            fork: Share warm-up across cells that differ only in
                late-binding knobs (see module docstring).  Results are
                byte-identical either way; False runs every distinct
                cell cold.  Cells with one identity run once regardless.
            cache_dir: Directory for the on-disk result + snapshot cache;
                None disables caching.  Every fresh result is stored under
                its cell fingerprint, whichever executor ran it.
            resume: Serve cells already present in ``cache_dir`` from
                disk instead of re-running them; only the rest execute.
            checks: Optional :class:`repro.check.CheckConfig` applied to
                every cell.  Checked cells run cold (the sanitizer must
                observe the run from cycle zero) and a violating cell
                lands in ``failures`` like any other error.
            bundle_dir: Crash-bundle directory forwarded to every
                checked cell; each :class:`FailedRun` then records its
                ``bundle_path`` (also shown by :meth:`SweepResult.failure_table`).
            cell_timeout: Per-cell wall-clock budget in seconds.  Each
                cell then runs in its own supervised child process that
                is SIGKILLed past the deadline — the backstop for hangs
                in native/OS code that the in-sim event budgets and stall
                watchdog cannot see.  A timed-out cell is retried up to
                ``max_attempts`` times, then quarantined: it lands in
                ``failures`` as ``CellTimeout`` with an evidence bundle,
                and the rest of the grid completes.
            queue_dir: Directory of the on-disk queue.  Any number of
                external ``repro worker <queue_dir>`` processes — on any
                machine sharing the filesystem — may attach while the
                sweep runs; crashed or hung workers are recovered via
                lease expiry (see docs/resilience.md), and re-running
                with the same ``queue_dir`` picks up where the grid left
                off.  Without it, a queue-run sweep uses a temporary
                directory, removed afterwards unless it holds a
                quarantine bundle (``FailedRun.bundle_path`` points
                into it).
            lease_duration / max_attempts / backoff_base / backoff_cap:
                Queue recovery policy — how long a worker may hold a
                cell without heartbeating, how many executions a cell is
                granted before quarantine, and the capped exponential
                backoff between retries.

        A point that raises is recorded as a :class:`FailedRun` in
        ``SweepResult.failures``; the rest of the grid still runs.  A
        grid whose inputs cannot be pickled (an object workload holding
        a closure, say) cannot reach a queue: without ``queue_dir`` it
        runs in-process, with no wall-clock budget.
        """
        grid = list(self._grid(scale, seed, max_events_per_run,
                               stall_threshold, checks, bundle_dir))
        queued = (workers > 1 or cell_timeout is not None
                  or queue_dir is not None)
        if queued and queue_dir is None and not _picklable(grid):
            queued = False
        cache = None
        code_fp = ""
        if cache_dir is not None or queued:
            from repro.harness.fingerprint import code_fingerprint

            code_fp = code_fingerprint()
        if cache_dir is not None:
            from repro.harness.io import SweepResultCache

            cache = SweepResultCache(cache_dir)
        plan = plan_sweep(grid, code_fp, fork)
        hits, pending = [], plan.distinct()
        if resume and cache is not None:
            hits, pending = plan.partition(cache)

        if queued:
            from repro.harness.queue import QueueSettings

            settings = QueueSettings(
                lease_duration=lease_duration, max_attempts=max_attempts,
                backoff_base=backoff_base, backoff_cap=backoff_cap,
                cell_timeout=cell_timeout,
            )
            result = _run_queue(plan, hits, pending, progress, workers,
                                queue_dir, settings, code_fp)
        else:
            result = _run_in_process(plan, hits, pending, cache, progress)

        # --- cache each fresh identity once
        if cache is not None:
            for index in pending:
                key, _args, fingerprint, _gfp = plan.cells[index]
                if fingerprint is None:
                    continue
                result.cache_misses += 1
                if key in result.points:
                    cache.store(fingerprint, result.points[key])
        return result


def _run_in_process(plan: SweepPlan, hits, pending, cache,
                    progress) -> SweepResult:
    """Run the pending identities in this process, prefix once per group."""
    grid = plan.cells
    result = SweepResult()
    total = len(grid)
    answers = plan.answers()
    outcomes: dict[int, object] = {}
    done = 0

    def land(index: int, outcome) -> None:
        """Record ``index``'s outcome on every cell it answers."""
        nonlocal done
        for cell in answers[index]:
            outcomes[cell] = (
                outcome if cell == index else _copy_outcome(outcome)
            )
            done += 1
            if progress is not None:
                progress(done, total, grid[cell][0])

    for index, _key, _fp, run in hits:
        result.cache_hits += len(answers[index])
        land(index, run)
    for index in pending:
        result.shared_cells += len(answers[index]) - 1

    groups, cold = _fork_groups(grid, pending)
    for group_fp, members in groups:
        _run_group(grid, group_fp, members, cache, result, land)
    for index in cold:
        land(index, _run_point_safe(grid[index][1]))
        result.cold_cells += 1

    # --- record in grid order
    for index, (key, *_rest) in enumerate(grid):
        outcome = outcomes[index]
        if isinstance(outcome, Exception):
            result.failures[key] = FailedRun.from_exception(
                key.workload, key.policy, outcome
            )
        else:
            result.points[key] = outcome
    return result


def _run_group(grid, group_fp, members, cache, result, land) -> None:
    """Prefix once, fork every member, in this process."""
    try:
        snap, meta = _prepare_group(grid[members[0]][1], cache, group_fp)
    except Exception:
        # The shared prefix failed; each cell re-runs cold so its
        # failure (or success) is exactly what a plain run reports.
        for index in members:
            land(index, _run_point_safe(grid[index][1]))
            result.cold_cells += 1
        return
    result.fork_groups += 1
    result.prefix_events += snap.events_executed
    for index in members:
        land(index, _finish_fork_safe(snap, meta, _fork_cell(grid[index][1])))
        result.forked_cells += 1


def _run_queue(plan: SweepPlan, hits, pending, progress, workers,
               queue_dir, settings, code_fp: str) -> SweepResult:
    """Drain the pending identities through an on-disk queue.

    One lease-managed sqlite row per pending identity
    (:class:`repro.harness.queue.SweepQueue`); ``workers`` local worker
    processes drain it, and external ``repro worker`` processes may
    attach at any time.  The calling process supervises: it reaps
    expired leases, and drains the queue itself when there is no local
    fleet or the whole fleet died, so the sweep always converges.
    """
    if not pending:
        return plan.assemble(SweepResult(), hits)
    import shutil
    import tempfile
    import time as _time
    from pathlib import Path

    from repro.harness.queue import SweepQueue
    from repro.harness.worker import _CTX, run_worker

    # Cache hits can leave a fork group with one pending member; like
    # the in-process loop, that cell runs cold.
    groups, _cold = _fork_groups(plan.cells, pending)
    grouped = {index for _gfp, members in groups for index in members}
    rows = []
    for index in pending:
        key, args, fingerprint, group_fp = plan.cells[index]
        rows.append((key, args, fingerprint,
                     group_fp if index in grouped else None))
    root = (Path(queue_dir) if queue_dir is not None
            else Path(tempfile.mkdtemp(prefix="repro-sweep-")))
    try:
        queue = SweepQueue.create_or_attach(
            root, rows, settings=settings, code_fp=code_fp,
        )
        answers = plan.answers()
        weights = [len(answers[index]) for index in pending]
        answered = len(plan.cells) - sum(weights)  # by cache hits

        def report_progress() -> None:
            if progress is not None:
                settled = sum(
                    weight for weight, row in zip(weights, queue.rows())
                    if row[1] not in ("open", "leased")
                )
                progress(answered + settled, len(plan.cells), None)

        if workers > 1:
            procs = [
                _CTX.Process(
                    target=run_worker, args=(str(root),),
                    kwargs={"install_signal_handlers": True},
                )
                for _ in range(workers)
            ]
            for proc in procs:
                proc.start()
            try:
                while not queue.drained():
                    queue.reap()
                    report_progress()
                    if not any(proc.is_alive() for proc in procs):
                        # The whole local fleet died; drain in-process
                        # so the sweep still converges.
                        break
                    _time.sleep(0.2)
            finally:
                for proc in procs:
                    if proc.is_alive():
                        proc.terminate()  # SIGTERM -> graceful drain
                for proc in procs:
                    proc.join()
        # No local fleet, fleet-death fallback, and the final safety net
        # for leases released by draining workers: the calling process
        # claims cells itself until the grid is done.
        while not queue.drained():
            run_worker(root, exit_when_drained=True)
        report_progress()
        result = plan.assemble(queue.collect(), hits)
        _count_forks(result, rows, queue.cache_dir)
    finally:
        bundles = root / "bundles"
        if queue_dir is None and not (bundles.is_dir()
                                      and any(bundles.iterdir())):
            shutil.rmtree(root, ignore_errors=True)
    return result


def _count_forks(result: SweepResult, rows, snapshot_dir) -> None:
    """Count a drained queue's forked and cold cells.

    A row forked only if its group's prefix snapshot is in the queue's
    snapshot cache after the drain; ``prefix_events`` comes from the
    snapshots themselves.
    """
    from repro.harness.io import SweepResultCache

    snapshots = SweepResultCache(snapshot_dir)
    prefixes: dict = {}
    for _key, _args, _fp, group_fp in rows:
        if group_fp is not None and group_fp not in prefixes:
            prefixes[group_fp] = snapshots.load_snapshot(group_fp)
        if prefixes.get(group_fp) is None:
            result.cold_cells += 1
        else:
            result.forked_cells += 1
    for cached in prefixes.values():
        if cached is not None:
            result.fork_groups += 1
            result.prefix_events += cached[0].events_executed


def _picklable(grid) -> bool:
    """True if the grid can travel to queue workers."""
    try:
        pickle.dumps(grid, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError):
        return False
    return True


def _copy_outcome(outcome):
    """An independent copy of a cell outcome for a cell that shares it.

    Exceptions and queue failures are only read, never mutated, and
    every key gets its own :class:`FailedRun` at record time.
    """
    if isinstance(outcome, RunResult):
        return copy.deepcopy(outcome)
    return outcome


def _fork_cell(args):
    """The per-cell payload a fork continuation needs."""
    (_workload, policy, _config, hyper, _scale, _seed,
     _fault, max_events, stall_threshold, _checks, _bundle_dir) = args
    return policy, hyper, max_events, stall_threshold


def _prepare_group(args, cache=None, group_fp=None):
    """Run one group's shared prefix and snapshot it (cache-aware)."""
    if cache is not None and group_fp is not None:
        cached = cache.load_snapshot(group_fp)
        if cached is not None:
            return cached
    (workload, policy, config, hyper, scale, seed,
     fault, max_events, stall_threshold, _checks, _bundle_dir) = args
    machine, built, kernels = prepare_run(
        workload, policy=policy, config=config, hyper=hyper,
        scale=scale, seed=seed, faults=fault,
    )
    machine.start(kernels)
    machine.run_until(
        machine.hyper.migration_period - 1,
        max_events=max_events, stall_threshold=stall_threshold,
    )
    snap = machine.snapshot()
    meta = _WorkloadMeta(built.spec.abbrev, built.seed, built.scale)
    if cache is not None and group_fp is not None:
        cache.store_snapshot(group_fp, (snap, meta))
    return snap, meta


def _finish_fork(snap, meta: _WorkloadMeta, cell) -> RunResult:
    """Fork one cell off a prefix snapshot and run it to completion."""
    policy, hyper, max_events, stall_threshold = cell
    machine = snap.fork()
    machine.adopt_variant(policy, hyper)
    if machine.finish_time is None:
        # The budget spans prefix + continuation, like a cold run's.
        machine.finish(max_events=max_events, stall_threshold=stall_threshold)
    return harvest_result(machine, meta)


def _finish_fork_safe(snap, meta, cell):
    try:
        return _finish_fork(snap, meta, cell)
    except Exception as exc:
        return exc


def _run_point_safe(args):
    """Run one grid point, returning the exception instead of raising."""
    try:
        return _run_point(args)
    except Exception as exc:
        return exc


def _run_point(args) -> RunResult:
    """Execute one grid point cold."""
    (workload, policy, config, hyper, scale, seed,
     fault, max_events, stall_threshold, checks, bundle_dir) = args
    return run_workload(
        workload, policy, config=config, hyper=hyper, scale=scale, seed=seed,
        faults=fault, max_events=max_events, stall_threshold=stall_threshold,
        checks=checks, bundle_dir=bundle_dir,
    )
