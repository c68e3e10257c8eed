"""Per-layer attribution for the benchmark's traced runs.

Two instruments, both installed from the benchmark's own files around
calls into the program, never inside it:

* :func:`profile_self_times` groups a ``cProfile`` run's self time
  (``tottime``) by the ``repro`` package that owns each function, so a
  simulation's host time splits into the simulator's layers.
* :class:`SpanTracer` wraps public functions and methods and keeps, per
  span name, the wall time spent inside minus the time of spans nested
  in it (self time) and the call count.
"""

from __future__ import annotations

import functools
import pstats
import time
from collections import defaultdict

# Files of repro.sim and repro.system that form layers of their own; every
# other layer is a whole subpackage (SIM_PACKAGE_LAYERS).
SIM_FILE_LAYERS = {
    "sim/engine.py": "sim.engine",
    "sim/event.py": "sim.engine",
    "sim/backends.py": "sim.engine",
    "sim/compiled.py": "sim.engine",
    "sim/ring.py": "sim.engine",
    "sim/resource.py": "sim.resource",
    "system/access_path.py": "system.access_path",
}
SIM_PACKAGE_LAYERS = ("interconnect", "mem", "vm", "gpu", "core", "driver")

# Every group a profile is split into; they partition the profile, so
# their self times sum to the profiler's total.  "builtin" is C code called
# from Python (list.append, heapq, ...); "other" is the rest of repro
# (system.machine, metrics, ...) plus the standard library and numpy.
PROFILE_LAYERS = (
    "sim.engine", "sim.resource", "system.access_path", "interconnect",
    "mem", "vm", "gpu", "core", "driver", "builtin", "other",
)


def layer_of(filename: str) -> str:
    """The profile group of one cProfile entry's file name."""
    if filename == "~":
        return "builtin"
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    if at < 0:
        return "other"
    rel = path[at + len("/repro/"):]
    if rel in SIM_FILE_LAYERS:
        return SIM_FILE_LAYERS[rel]
    package = rel.split("/", 1)[0]
    return package if package in SIM_PACKAGE_LAYERS else "other"


def profile_self_times(profiler) -> dict:
    """Self seconds per profile group of a finished ``cProfile.Profile``."""
    totals = dict.fromkeys(PROFILE_LAYERS, 0.0)
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        totals[layer_of(filename)] += row[2]  # tottime
    return totals


class SpanTracer:
    """Self time and call counts of wrapped callables, by span name.

    Nested spans subtract from their parent, so the self times of all
    spans open inside an interval sum to at most that interval.  Wrapping
    patches the owner (module or class) in place; :meth:`restore` undoes
    every patch in reverse order.
    """

    def __init__(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``after(args, result)`` runs once the call returns, outside the
        span, to record counts the result carries.
        """
        original = getattr(owner, attr)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(original)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - children[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
