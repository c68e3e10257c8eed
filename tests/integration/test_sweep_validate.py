"""Integration tests for the sweep and validation harness modules."""

import pytest

from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import tiny_system
from repro.harness.sweep import Sweep, SweepKey
from repro.harness.validate import CheckResult, validate_reproduction


@pytest.fixture(scope="module")
def sweep_result():
    sweep = Sweep(
        workloads=["ST", "MT"],
        policies=["baseline", "griffin"],
        configs={"default": tiny_system()},
    )
    return sweep, sweep.run(scale=0.006, seed=5)


class TestSweep:
    def test_size(self, sweep_result):
        sweep, _ = sweep_result
        assert sweep.size() == 4

    def test_all_points_present(self, sweep_result):
        _, result = sweep_result
        assert len(result.points) == 4
        run = result.get("ST", "baseline")
        assert run.workload == "ST" and run.policy == "baseline"

    def test_metric_extraction(self, sweep_result):
        _, result = sweep_result
        cycles = dict(result.metric("cycles"))
        assert len(cycles) == 4
        assert all(v > 0 for v in cycles.values())

    def test_unknown_metric_rejected(self, sweep_result):
        _, result = sweep_result
        with pytest.raises(KeyError, match="cycles"):
            result.metric("bogus")

    def test_table_renders(self, sweep_result):
        _, result = sweep_result
        out = result.table("shootdowns")
        assert "shootdowns" in out and "MT" in out

    def test_speedups(self, sweep_result):
        _, result = sweep_result
        speedups = result.speedups("baseline", "griffin")
        assert set(speedups) == {"ST", "MT"}
        assert speedups["MT"] > 1.0

    def test_speedup_table_has_geomean(self, sweep_result):
        _, result = sweep_result
        assert "geomean" in result.speedup_table("baseline", "griffin")

    def test_progress_callback(self):
        calls = []
        sweep = Sweep(workloads=["ST"], policies=["baseline"],
                      configs={"default": tiny_system()})
        sweep.run(scale=0.004, seed=5,
                  progress=lambda done, total, key: calls.append((done, total)))
        assert calls == [(1, 1)]

    def test_hyper_axis(self):
        sweep = Sweep(
            workloads=["ST"],
            policies=["griffin"],
            configs={"default": tiny_system()},
            hypers={
                "fast": GriffinHyperParams.calibrated().with_overrides(alpha=0.4),
                "slow": GriffinHyperParams.calibrated().with_overrides(alpha=0.05),
            },
        )
        result = sweep.run(scale=0.004, seed=5)
        assert SweepKey("ST", "griffin", "default", "fast") in result.points
        assert SweepKey("ST", "griffin", "default", "slow") in result.points


class TestValidation:
    def test_subset_validation_runs(self):
        report = validate_reproduction(
            config=tiny_system(), scale=0.006, seed=5, workloads=["MT", "ST"]
        )
        assert report.checks
        assert 0 <= report.num_passed <= len(report.checks)

    def test_check_render_shows_verdict(self):
        check = CheckResult("claim", True, "x", "y")
        out = check.render()
        assert "PASS" in out and "claim" in out
        bad = CheckResult("claim", False, "x", "y")
        assert "FAIL" in bad.render()

    def test_report_render_counts(self):
        report = validate_reproduction(
            config=tiny_system(), scale=0.006, seed=5, workloads=["MT"]
        )
        text = report.render()
        assert "checks passed" in text

    def test_full_validate_passes_every_paper_claim(self, capsys):
        """The paper's 8 shape claims, graded exactly as ``repro validate``
        grades them by default: a change that flips one fails tier-1."""
        from repro.cli import main

        code = main(["validate"])
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out, out
        assert code == 0


class TestParallelSweep:
    def test_parallel_matches_serial(self):
        sweep = Sweep(workloads=["ST"], policies=["baseline", "griffin"],
                      configs={"default": tiny_system()})
        serial = sweep.run(scale=0.005, seed=5, workers=1)
        parallel = sweep.run(scale=0.005, seed=5, workers=2)
        for key, run in serial.points.items():
            other = parallel.points[key]
            assert other.cycles == run.cycles
            assert other.total_shootdowns == run.total_shootdowns


class TestCliSweep:
    def test_sweep_command(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--workloads", "ST", "--policies",
                     "baseline,griffin", "--scale", "0.005",
                     "--gpus", "2", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep: cycles" in out
        assert "geomean" in out
