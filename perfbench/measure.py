"""Summary statistics and output digests shared by the benchmark's files."""

from __future__ import annotations

import hashlib
import json
import statistics
import time

# Host-normalized timings read as if REFERENCE_STEPS steps of the
# reference kernel took REFERENCE_KERNEL_S seconds.
REFERENCE_STEPS = 100_000
REFERENCE_KERNEL_S = 0.3

# Percentiles tried, highest first, when reporting a timing's tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def canonical_digest(payload) -> str:
    """SHA-256 of ``payload`` as it reads back from JSON, keys sorted.

    The JSON round trip makes a dict built in memory and the same dict
    received over HTTP hash alike (tuples become lists, keys strings).
    """
    payload = json.loads(json.dumps(payload))
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values):
    """``(pct, value)`` of the highest percentile with >= 10 samples above.

    None when there are too few samples for even the median to qualify.
    """
    count = len(values)
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10.0:
            return pct, percentile(values, pct)
    return None


def summarize(values) -> dict:
    """Median, tail percentile and sample count of one timing."""
    values = list(values)
    out = {"n": len(values)}
    if values:
        out["median"] = statistics.median(values)
        tail = tail_percentile(values)
        if tail is not None:
            out["tail_pct"], out["tail"] = tail
    return out


class _Event:
    __slots__ = ("time", "kind", "payload")

    def __init__(self, time, kind, payload):
        self.time = time
        self.kind = kind
        self.payload = payload


def reference_kernel(steps: int = REFERENCE_STEPS) -> float:
    """Seconds this host takes for a fixed pure-Python event loop.

    The loop mixes what the simulator's host time is made of (a heap of
    timed events, dict counters, attribute access, method calls) but
    calls none of its code, so its speed tracks the host, not the
    program.  The collector is off while it runs (the loop makes no
    cycles), so the program's heap size cannot slow it down.
    """
    import gc
    import heapq

    gc.disable()
    try:
        return _reference_loop(steps, heapq)
    finally:
        gc.enable()


def _reference_loop(steps: int, heapq) -> float:
    start = time.perf_counter()
    heap = [(0, 0, _Event(0, 0, None))]
    counters = {}
    seq = 1
    done = 0
    while done < steps:
        now, _, event = heapq.heappop(heap)
        key = (event.kind, now & 255)
        counters[key] = counters.get(key, 0) + 1
        for delay in (3, 7) if event.kind % 3 else (5,):
            heapq.heappush(heap, (now + delay, seq,
                                  _Event(now + delay, (event.kind + seq) % 11,
                                         key)))
            seq += 1
        if len(heap) > 512:
            heap = heap[:256]
            heapq.heapify(heap)
        done += 1
    return time.perf_counter() - start
