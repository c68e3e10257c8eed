"""Sweep execution strategies: fork/cold, serial/parallel, cache/resume.

The contract under test: a sweep's results are a pure function of its
grid — identical bytes in identical key order no matter the execution
strategy (``fork`` on or off, in-process or through the queue, any
``workers``, resumed from cache or fresh).
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest

from repro.config.faults import FaultConfig
from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import tiny_system
from repro.harness.io import result_to_dict
from repro.harness.results import FailedRun
from repro.harness.runner import run_workload
from repro.harness.sweep import (
    Sweep,
    cell_fingerprint,
    group_fingerprint,
)
from repro.workloads.registry import get_workload

_BASE = GriffinHyperParams.calibrated()


def _knob_sweep() -> Sweep:
    return Sweep(
        workloads=["MT"],
        policies=["griffin", "griffin_flush"],
        configs={"tiny": tiny_system(2)},
        hypers={
            "default": _BASE,
            "eager": _BASE.with_overrides(
                min_pages_per_source=1, lambda_d=1.5
            ),
        },
    )


def _dump(result) -> list:
    """(key, serialized result) pairs in iteration order."""
    return [
        (str(key), json.dumps(result_to_dict(run), sort_keys=True))
        for key, run in result.points.items()
    ]


def _dump_failures(result) -> list:
    return [
        (str(key), failure.error_type, failure.message)
        for key, failure in result.failures.items()
    ]


# Knob variants no baseline cell reads, crossed with a fault plan whose
# retries push every cell past the event budget below: baseline dedupes
# to one success and one shared failure, griffin forks both.
_DEDUPE_HYPERS = {
    "default": _BASE,
    "half_round": _BASE.with_overrides(max_pages_per_round=96),
    "strict": _BASE.with_overrides(lambda_d=3.0),
}
_DEDUPE_FAULTS = {"none": None,
                  "drops": FaultConfig(migration_drop_rate=0.5)}
_DEDUPE_BUDGET = 2_100


def _dedupe_sweep() -> Sweep:
    return Sweep(workloads=["MT"], policies=["baseline", "griffin"],
                 configs={"tiny": tiny_system(2)},
                 hypers=_DEDUPE_HYPERS, faults=_DEDUPE_FAULTS)


def _independent_runs() -> tuple[list, list]:
    """The dedupe grid run cell by cell, outside any sweep executor."""
    points, failures = [], []
    grid = _dedupe_sweep()._grid(0.008, 5, _DEDUPE_BUDGET, 1_000_000)
    for key, (workload, policy, config, hyper, scale, seed, fault,
              max_events, stall_threshold, _checks, _bundle) in grid:
        try:
            run = run_workload(
                workload, policy, config=config, hyper=hyper, scale=scale,
                seed=seed, faults=fault, max_events=max_events,
                stall_threshold=stall_threshold,
            )
        except Exception as exc:
            failed = FailedRun.from_exception(workload, policy, exc)
            failures.append((str(key), failed.error_type, failed.message))
        else:
            points.append(
                (str(key), json.dumps(result_to_dict(run), sort_keys=True))
            )
    return points, failures


@pytest.fixture
def temp_queues(monkeypatch) -> list:
    """Temporary queue directories the sweeps create, in order."""
    made = []
    real_mkdtemp = tempfile.mkdtemp

    def spy(*args, **kwargs):
        path = real_mkdtemp(*args, **kwargs)
        if os.path.basename(path).startswith("repro-sweep-"):
            made.append(path)
        return path

    monkeypatch.setattr(tempfile, "mkdtemp", spy)
    return made


class TestExecutionParity:
    @pytest.fixture(scope="class")
    def serial(self):
        return _knob_sweep().run(scale=0.008, seed=5)

    def test_serial_fork_matches_cold(self, serial):
        cold = _knob_sweep().run(scale=0.008, seed=5, fork=False)
        assert not serial.failures and not cold.failures
        assert _dump(serial) == _dump(cold)
        assert serial.forked_cells == 4 and serial.cold_cells == 0
        assert cold.forked_cells == 0 and cold.cold_cells == 4

    def test_parallel_matches_serial(self, serial):
        """workers=4 drain a queue: same bytes, same order."""
        parallel = _knob_sweep().run(scale=0.008, seed=5, workers=4)
        assert not parallel.failures
        assert _dump(parallel) == _dump(serial)
        # The queue reports what ran exactly as the in-process loop does.
        assert (parallel.forked_cells, parallel.cold_cells,
                parallel.fork_groups, parallel.prefix_events) == (
            serial.forked_cells, serial.cold_cells,
            serial.fork_groups, serial.prefix_events)

    def test_clean_queue_run_leaves_no_temporary_dir(self, serial,
                                                     temp_queues):
        """workers=2 without queue_dir drains a temporary queue, then
        removes it: a clean run leaves nothing behind."""
        parallel = _knob_sweep().run(scale=0.008, seed=5, workers=2)
        assert _dump(parallel) == _dump(serial)
        assert len(temp_queues) == 1  # the sweep ran through a queue
        assert not os.path.exists(temp_queues[0])

    def test_group_planning(self, serial):
        # griffin/griffin_flush x default/eager differ only in late
        # fields -> one shared prefix for all four cells.
        assert serial.fork_groups == 1
        assert serial.prefix_events > 0

    @pytest.mark.parametrize("mode", ["serial", "workers", "queue"])
    def test_deduped_grid_matches_every_cell_run_alone(self, mode, tmp_path):
        """Shared cells land their identity's outcome, on every executor.

        Baseline's three knob variants collapse to one run per fault
        plan; the result (successes and failures alike, same key order)
        equals the grid run with ``fork=False`` and each cell run alone.
        """
        kwargs = {"serial": {}, "workers": {"workers": 2},
                  "queue": {"queue_dir": tmp_path / "q"}}[mode]
        deduped = _dedupe_sweep().run(
            scale=0.008, seed=5, max_events_per_run=_DEDUPE_BUDGET, **kwargs
        )
        cold = _dedupe_sweep().run(
            scale=0.008, seed=5, max_events_per_run=_DEDUPE_BUDGET,
            fork=False,
        )
        points, failures = _independent_runs()
        assert _dump(deduped) == _dump(cold)
        assert _dump_failures(deduped) == _dump_failures(cold)
        assert sorted(_dump(deduped)) == sorted(points)
        assert sorted(_dump_failures(deduped)) == sorted(failures)
        assert len(deduped.points) == 6 and len(deduped.failures) == 6
        # 2 baseline identities answer 6 cells; griffin's 6 all run.
        assert deduped.shared_cells == 4
        assert deduped.forked_cells + deduped.cold_cells == 8
        runs = [id(run) for run in deduped.points.values()]
        assert len(set(runs)) == len(runs)  # independent copies


class TestForkBudget:
    def test_forked_budget_failure_matches_cold(self):
        """A forked cell that exhausts ``max_events`` fails exactly like
        its cold run: the message quotes the full budget, not what was
        left after the shared prefix."""
        budget = 1_990  # past the prefix, short of the ~2k-event run

        def run(**kwargs):
            sweep = Sweep(workloads=["MT"],
                          policies=["griffin", "griffin_flush"],
                          configs={"tiny": tiny_system(2)})
            return sweep.run(scale=0.008, seed=5,
                             max_events_per_run=budget, **kwargs)

        forked, cold = run(), run(fork=False)
        assert forked.forked_cells == 2 and forked.prefix_events > 0
        assert cold.cold_cells == 2
        assert len(cold.failures) == 2
        assert _dump_failures(forked) == _dump_failures(cold)
        for failure in cold.failures.values():
            assert failure.error_type == "SimulationStall"
            assert f"({budget} events)" in failure.message


class TestBlastRadius:
    def test_unpicklable_cell_does_not_kill_its_chunk(self):
        """A grid whose inputs can't reach a worker runs in-process.

        Both cells still succeed: without a ``queue_dir`` the sweep runs
        them in the calling process, where no pickling is involved.
        """
        workload = get_workload("MT", scale=0.008, seed=5,
                                page_size=tiny_system(2).page_size)
        workload.poison = lambda: None  # closures cannot pickle
        sweep = Sweep(
            workloads=[workload],
            policies=["baseline", "griffin"],
            configs={"tiny": tiny_system(2)},
        )
        result = sweep.run(scale=0.008, seed=5, workers=2)
        assert not result.failures
        assert len(result.points) == 2
        assert {k.policy for k in result.points} == {"baseline", "griffin"}

    def test_bad_cell_fails_alone_in_a_chunk(self):
        sweep = Sweep(
            workloads=["MT"],
            policies=["griffin", "no_such_policy"],
            configs={"tiny": tiny_system(2)},
        )
        result = sweep.run(scale=0.008, seed=5, workers=2)
        assert len(result.points) == 1
        assert len(result.failures) == 1
        (failure,) = result.failures.values()
        assert failure.error_type == "ValueError"


class TestCacheResume:
    def test_resume_reruns_only_incomplete_cells(self, tmp_path):
        """A killed-then-resumed sweep serves finished cells from disk."""
        # "Interrupted" sweep: only the griffin half of the grid ran.
        partial = Sweep(
            workloads=["MT"], policies=["griffin"],
            configs={"tiny": tiny_system(2)},
            hypers={"default": _BASE,
                    "eager": _BASE.with_overrides(min_pages_per_source=1)},
        )
        first = partial.run(scale=0.008, seed=5, cache_dir=tmp_path)
        assert first.cache_hits == 0 and first.cache_misses == 2

        full = Sweep(
            workloads=["MT"], policies=["griffin", "griffin_flush"],
            configs={"tiny": tiny_system(2)},
            hypers={"default": _BASE,
                    "eager": _BASE.with_overrides(min_pages_per_source=1)},
        )
        resumed = full.run(scale=0.008, seed=5, cache_dir=tmp_path,
                           resume=True)
        assert resumed.cache_hits == 2  # the cells the partial sweep ran
        assert resumed.cache_misses == 2  # only griffin_flush cells ran
        assert len(resumed.points) == 4

        fresh = full.run(scale=0.008, seed=5)
        assert _dump(resumed) == _dump(fresh)

    def test_queue_run_resumes_from_cache(self, tmp_path, temp_queues):
        """workers=2 with cache_dir + resume: a second run is all hits
        and queues nothing."""
        serial = _knob_sweep().run(scale=0.008, seed=5)
        first = _knob_sweep().run(scale=0.008, seed=5, workers=2,
                                  cache_dir=tmp_path, resume=True)
        assert first.cache_hits == 0 and first.cache_misses == 4
        second = _knob_sweep().run(scale=0.008, seed=5, workers=2,
                                   cache_dir=tmp_path, resume=True)
        assert len(temp_queues) == 1  # only the first run queued cells
        assert second.cache_hits == 4 and second.cache_misses == 0
        assert second.forked_cells == second.cold_cells == 0
        assert _dump(first) == _dump(serial)
        assert _dump(second) == _dump(serial)

    def test_queue_dir_with_cache_dir(self, tmp_path):
        """queue_dir and cache_dir combine: queue results fill the cache."""
        serial = _knob_sweep().run(scale=0.008, seed=5)
        queued = _knob_sweep().run(scale=0.008, seed=5,
                                   queue_dir=tmp_path / "q",
                                   cache_dir=tmp_path / "cache")
        assert _dump(queued) == _dump(serial)
        assert queued.cache_misses == 4
        assert len(list((tmp_path / "cache" / "results").glob("*.json"))) == 4
        resumed = _knob_sweep().run(scale=0.008, seed=5,
                                    queue_dir=tmp_path / "q",
                                    cache_dir=tmp_path / "cache", resume=True)
        assert resumed.cache_hits == 4
        assert _dump(resumed) == _dump(serial)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_group_of_one_runs_cold(self, tmp_path, workers):
        """Cache hits that leave one member of a fork group pending: that
        cell runs cold on either executor, with nothing to amortize."""
        def sweep(hypers):
            return Sweep(workloads=["MT"], policies=["griffin"],
                         configs={"tiny": tiny_system(2)}, hypers=hypers)

        sweep({"default": _BASE}).run(scale=0.008, seed=5,
                                      cache_dir=tmp_path)
        resumed = sweep({
            "default": _BASE,
            "eager": _BASE.with_overrides(min_pages_per_source=1),
        }).run(scale=0.008, seed=5, cache_dir=tmp_path, resume=True,
               workers=workers)
        assert (resumed.cache_hits, resumed.forked_cells,
                resumed.cold_cells, resumed.fork_groups) == (1, 0, 1, 0)

    def test_cache_dir_without_resume_never_reads(self, tmp_path):
        sweep = Sweep(workloads=["MT"], policies=["griffin"],
                      configs={"tiny": tiny_system(2)})
        sweep.run(scale=0.008, seed=5, cache_dir=tmp_path)
        again = sweep.run(scale=0.008, seed=5, cache_dir=tmp_path)
        assert again.cache_hits == 0 and again.cache_misses == 1

    def test_failures_are_never_cached(self, tmp_path):
        sweep = Sweep(workloads=["MT"], policies=["griffin"],
                      configs={"tiny": tiny_system(2)})
        starved = sweep.run(scale=0.008, seed=5, cache_dir=tmp_path,
                            max_events_per_run=10)
        assert len(starved.failures) == 1
        assert not list((tmp_path / "results").glob("*.json"))


class TestFingerprints:
    def _args(self, hyper=_BASE, policy="griffin", seed=5, checks=None):
        return ("MT", policy, tiny_system(2), hyper, 0.008, seed,
                None, None, 1_000_000, checks, None)

    def test_cell_fingerprint_sensitivity(self):
        base = cell_fingerprint(self._args())
        assert base is not None
        assert cell_fingerprint(self._args()) == base
        assert cell_fingerprint(self._args(seed=6)) != base
        assert cell_fingerprint(self._args(), code_fp="other") != base

    def test_group_fingerprint_masks_late_fields_only(self):
        base = group_fingerprint(self._args())
        late = group_fingerprint(
            self._args(hyper=_BASE.with_overrides(lambda_d=9.9))
        )
        assert late == base  # lambda_d is a late knob -> same prefix
        assert group_fingerprint(self._args(policy="griffin_flush")) == base
        early = group_fingerprint(
            self._args(hyper=_BASE.with_overrides(t_ac=999))
        )
        assert early != base  # t_ac feeds warm-up -> different prefix

    def test_unread_hyperparameters_share_an_identity(self):
        baseline = self._args(policy="baseline")
        unread = self._args(
            policy="baseline",
            hyper=_BASE.with_overrides(lambda_d=9.9, t_ac=999, n_ptw=2,
                                       counter_table_entries=7,
                                       page_id_bits=40),
        )
        assert cell_fingerprint(unread) == cell_fingerprint(baseline)
        # griffin reads every one of those knobs but page_id_bits.
        assert cell_fingerprint(
            self._args(hyper=_BASE.with_overrides(page_id_bits=40))
        ) == cell_fingerprint(self._args())
        assert cell_fingerprint(
            self._args(hyper=_BASE.with_overrides(t_ac=999))
        ) != cell_fingerprint(self._args())
        # dftm_only batches nothing but reads no Griffin period knob.
        dftm = self._args(policy="dftm_only")
        assert cell_fingerprint(dftm) == cell_fingerprint(self._args(
            policy="dftm_only", hyper=_BASE.with_overrides(n_ptw=3)
        ))
        assert cell_fingerprint(dftm) != cell_fingerprint(baseline)

    def test_forks_accept_what_group_fingerprints_mask(self):
        """A group may hold cells that differ in unread fields, so a fork
        must adopt such a variant instead of refusing it."""
        from repro.core.policies import get_policy
        from repro.system.machine import variant_mismatches

        early = _BASE.with_overrides(t_ac=999, migration_period=12_345)
        assert group_fingerprint(self._args(policy="baseline")) == \
            group_fingerprint(self._args(policy="baseline", hyper=early))
        baseline, griffin = get_policy("baseline"), get_policy("griffin")
        assert variant_mismatches(baseline, _BASE, baseline, early) == []
        assert variant_mismatches(griffin, _BASE, griffin, early) == [
            "hyper.t_ac", "hyper.migration_period",
        ]

    def test_ungroupable_cells(self):
        workload = get_workload("MT", scale=0.008, seed=5,
                                page_size=tiny_system(2).page_size)
        object_cell = (workload,) + self._args()[1:]
        assert group_fingerprint(object_cell) is None
        assert cell_fingerprint(object_cell) is None
        assert group_fingerprint(self._args(policy="nope")) is None
        predictive = self._args(policy="griffin_predictive")
        assert group_fingerprint(predictive) is None
        assert cell_fingerprint(predictive) is not None
