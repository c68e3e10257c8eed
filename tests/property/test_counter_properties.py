"""Property-based tests for the access counter table and report math."""

import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.access_counter import AccessCounterTable
from repro.metrics.occupancy import imbalance_index
from repro.metrics.report import geometric_mean


class MinScanTable:
    """The original table: full-table ``min`` scan for the victim.

    Kept as the oracle for ``AccessCounterTable``'s O(1) victim index.
    """

    def __init__(self, capacity: int, max_count: int) -> None:
        self.capacity = capacity
        self.max_count = max_count
        self._counts: dict[int, int] = {}
        self.recorded = 0
        self.dropped = 0
        self.evicted = 0

    def record(self, page: int) -> None:
        self.recorded += 1
        if page in self._counts:
            if self._counts[page] < self.max_count:
                self._counts[page] += 1
            return
        if len(self._counts) >= self.capacity:
            victim = min(self._counts, key=self._counts.__getitem__)
            if self._counts[victim] > 1:
                self.dropped += 1
                return
            del self._counts[victim]
            self.evicted += 1
        self._counts[page] = 1

    def snapshot(self) -> dict[int, int]:
        return dict(self._counts)

    def collect_and_reset(self) -> dict[int, int]:
        counts = self._counts
        self._counts = {}
        return counts

    def __len__(self) -> int:
        return len(self._counts)


def _observe(table) -> tuple:
    return (list(table.snapshot().items()), table.recorded, table.dropped,
            table.evicted, len(table))


# -1 is a driver collection, anything else a transaction to that page.
counter_ops = st.lists(st.integers(min_value=-1, max_value=12), max_size=200)


def _apply(table, op):
    if op < 0:
        return list(table.collect_and_reset().items())
    table.record(op)
    return None


@given(counter_ops, st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=200)
def test_table_matches_min_scan_oracle(ops, capacity, max_count, data):
    """The O(1) victim index picks exactly the min-scan victim: same
    counts in the same order, same recorded/dropped/evicted, at every
    step; a pickled copy taken mid-stream (the snapshot/fork path)
    continues identically."""
    split = data.draw(st.integers(min_value=0, max_value=len(ops)))
    oracle = MinScanTable(capacity, max_count)
    table = AccessCounterTable(capacity, max_count)
    restored = None
    for i, op in enumerate(ops):
        if i == split:
            restored = pickle.loads(pickle.dumps(table))
        expected = _apply(oracle, op)
        live = [table] if restored is None else [table, restored]
        for t in live:
            assert _apply(t, op) == expected
            assert _observe(t) == _observe(oracle)


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=300),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=60)
def test_table_never_exceeds_capacity(pages, capacity):
    table = AccessCounterTable(capacity=capacity)
    for p in pages:
        table.record(p)
        assert len(table) <= capacity


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=300))
@settings(max_examples=60)
def test_counts_never_exceed_saturation(pages):
    table = AccessCounterTable(capacity=8, max_count=15)
    for p in pages:
        table.record(p)
    assert all(1 <= c <= 15 for c in table.snapshot().values())


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=100))
@settings(max_examples=60)
def test_unbounded_table_counts_exactly(pages):
    table = AccessCounterTable(capacity=100, max_count=10_000)
    for p in pages:
        table.record(p)
    snapshot = table.collect_and_reset()
    for p in set(pages):
        assert snapshot[p] == pages.count(p)


@given(st.lists(st.floats(min_value=0.01, max_value=100, allow_nan=False),
                min_size=1, max_size=20))
@settings(max_examples=60)
def test_geomean_between_min_and_max(values):
    g = geometric_mean(values)
    assert min(values) - 1e-9 <= g <= max(values) + 1e-9


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=8))
@settings(max_examples=60)
def test_imbalance_index_in_unit_interval(counts):
    idx = imbalance_index(counts)
    assert -1e-9 <= idx <= 1.0 + 1e-9
