"""Experiment harness: run workloads, compare policies, regenerate figures."""

from repro.harness.io import load_result, save_result
from repro.harness.queue import QueueSettings, QueueStats, SweepQueue
from repro.harness.results import FailedRun, RunResult
from repro.harness.runner import run_workload, compare_policies
from repro.harness.sweep import Sweep, SweepKey, SweepResult
from repro.harness.validate import ValidationReport, validate_reproduction
from repro.harness.worker import WorkerReport, run_worker

__all__ = [
    "RunResult",
    "FailedRun",
    "run_workload",
    "compare_policies",
    "save_result",
    "load_result",
    "Sweep",
    "SweepKey",
    "SweepResult",
    "SweepQueue",
    "QueueSettings",
    "QueueStats",
    "WorkerReport",
    "run_worker",
    "ValidationReport",
    "validate_reproduction",
]
