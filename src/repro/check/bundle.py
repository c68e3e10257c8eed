"""Crash bundles: everything needed to triage and replay a failed run.

A bundle is a directory with two files:

* ``manifest.json`` — the human/CI-readable half: run identity (workload,
  policy, seed, scale), the sanitizer config, the canonicalized fault
  plan, the source-tree fingerprint, the violation report (or error), the
  ring buffer of the last N events, and the coordinates of the warm
  snapshot.
* ``snapshot.pkl`` — the machine half: the nearest warm
  :class:`~repro.sim.snapshot.MachineSnapshot` preceding the failure plus
  the workload coordinates, so ``repro replay <bundle>`` can fork it and
  re-execute the tail deterministically (any pending
  :class:`~repro.check.corrupt.StateCorruptor` event travels inside the
  snapshot's queue).

Bundle kinds: ``violation`` (a monitor fired), ``stall`` (watchdog or
event budget), ``error`` (unhandled handler exception), and
``retry_exhaustion`` (informational — the run completed but degraded a
page to pinned-DCA).
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

MANIFEST_SCHEMA = 1
MANIFEST_NAME = "manifest.json"
SNAPSHOT_NAME = "snapshot.pkl"

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.runtime import CheckRuntime
    from repro.sim.snapshot import MachineSnapshot
    from repro.system.machine import Machine


@dataclass
class CrashBundle:
    """A loaded bundle: manifest + the warm snapshot it shipped with."""

    path: str
    manifest: dict
    snapshot: "MachineSnapshot"
    workload_meta: tuple  # (abbrev, seed, scale)

    @property
    def kind(self) -> str:
        return self.manifest["kind"]


def write_crash_bundle(
    bundle_dir,
    kind: str,
    machine: "Machine",
    runtime: "CheckRuntime",
    *,
    workload: str,
    policy: str,
    seed: int,
    scale: float,
    max_events: Optional[int] = None,
    stall_threshold: Optional[int] = None,
    violation: Optional[dict] = None,
    error: Optional[BaseException] = None,
) -> str:
    """Persist a crash bundle; returns the bundle directory path."""
    # Local import: sweep imports the harness stack; the check package
    # stays importable on its own.
    from repro.harness.sweep import _canon
    from repro.harness.fingerprint import code_fingerprint

    engine = machine.engine
    root = Path(bundle_dir)
    root.mkdir(parents=True, exist_ok=True)
    # :g keeps the stem short even when retry backoff has pushed the
    # clock to astronomical cycle counts.
    stem = f"{workload}-{policy}-s{seed}-{kind}-c{engine.now:g}"
    path = root / stem
    n = 1
    while path.exists():
        n += 1
        path = root / f"{stem}-{n}"
    path.mkdir()

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "workload": workload,
        "policy": policy,
        "seed": seed,
        "scale": scale,
        "failed_cycle": engine.now,
        "events_executed": engine.events_executed,
        "max_events": max_events,
        "stall_threshold": stall_threshold,
        "checks": runtime.config.to_dict(),
        "faults": _canon(machine.faults) if machine.faults else None,
        "violation": violation,
        "error_type": type(error).__name__ if error is not None else None,
        "error_message": str(error) if error is not None else None,
        "exhaustions": [
            {"page": page, "cycle": cycle}
            for page, cycle in runtime.exhaustions
        ],
        "ring": runtime.ring_lines(),
        "code_fingerprint": code_fingerprint(),
        "snapshot_cycle": runtime.last_snapshot_cycle,
        "snapshot_events": runtime.last_snapshot_events,
        "has_snapshot": runtime.last_snapshot is not None,
        # Protocol-monitor state as of the snapshot, so replay's fresh
        # monitors resume mid-protocol instead of misfiring.
        "monitor_state": runtime.last_monitor_state,
    }
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=repr)
    )
    if runtime.last_snapshot is not None:
        payload = (runtime.last_snapshot, (workload, seed, scale))
        (path / SNAPSHOT_NAME).write_bytes(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
    return str(path)


def load_bundle(path) -> CrashBundle:
    """Load a bundle written by :func:`write_crash_bundle`."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{root} is not a crash bundle (missing {MANIFEST_NAME})"
        )
    manifest = json.loads(manifest_path.read_text())
    snapshot_path = root / SNAPSHOT_NAME
    if not snapshot_path.exists():
        raise FileNotFoundError(
            f"bundle {root} carries no machine snapshot "
            f"({SNAPSHOT_NAME} missing); it cannot be replayed"
        )
    snapshot, meta = pickle.loads(snapshot_path.read_bytes())
    return CrashBundle(
        path=str(root), manifest=manifest, snapshot=snapshot,
        workload_meta=meta,
    )
