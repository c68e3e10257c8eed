"""Compare two reports written by ``run.py --out``.

Usage::

    python3 perfbench/compare.py PARENT.json CHANGE.json

Refuses (exit 2) unless both reports measured the same workload and trace
mode in the same environment: engine backend, compiled-kernel state,
Python version and processor count.  The commit and source digest may
differ; that is what a comparison is for.  Prints each metric of both
reports and the ratio change / parent.
"""

from __future__ import annotations

import json
import sys

PINNED = ("backend", "ckernel", "python", "nproc")


def mismatches(parent: dict, change: dict) -> list:
    """Why the two reports cannot be compared (empty when they can)."""
    out = [f"{key}: {parent.get(key)!r} != {change.get(key)!r}"
           for key in ("workload", "trace")
           if parent.get(key) != change.get(key)]
    out += [f"env.{key}: {parent['env'].get(key)!r} != "
            f"{change['env'].get(key)!r}"
            for key in PINNED
            if parent["env"].get(key) != change["env"].get(key)]
    return out


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fa, open(argv[2]) as fb:
        parent, change = json.load(fa), json.load(fb)
    problems = mismatches(parent, change)
    if problems:
        print("refusing to compare runs whose records differ:",
              file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 2
    values = "layers" if parent["trace"] else "metrics"
    for name, old in parent[values].items():
        new = change[values].get(name)
        if new is None:
            print(f"{name:36s} {old:14.6g} {'-':>14}")
            continue
        ratio = f"x{new / old:.4f}" if old else "-"
        print(f"{name:36s} {old:14.6g} {new:14.6g}  {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
