"""Per-Shader-Engine page access counter table (DPC's hardware half).

The paper augments each Shader Engine with "a table that records the number
of post-coalescing memory transactions that access each page": 100 entries,
each holding a 36-bit page ID and an 8-bit saturating count (2 200 bytes of
storage per GPU with 4 SEs).  The counters are harvested and reset every
``T_ac`` cycles by the GPU driver.
"""

from __future__ import annotations

from collections import OrderedDict


class AccessCounterTable:
    """A bounded table of saturating per-page access counters.

    When the table is full and a new page arrives, the oldest entry (in
    insertion order) that has been counted only once is evicted to make
    room; if every entry has been counted more than once, the newcomer is
    dropped instead.  Hot pages — the ones DPC cares about — therefore
    never lose their slot to a one-off access.

    ``_ones`` indexes the entries whose count is 1, in insertion order, so
    the victim is found in O(1).  It is built when a full table first
    meets a new page (``None`` until then) and kept up to date until the
    next collection, since a full table stays full until it is harvested:
    an entry joins it when inserted and leaves when its count reaches 2
    or when it is evicted.  Tables harvested before they fill never pay
    for it.
    """

    __slots__ = (
        "capacity", "max_count", "_counts", "_ones",
        "recorded", "dropped", "evicted",
    )

    def __init__(self, capacity: int = 100, max_count: int = 255) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.max_count = max_count
        self._counts: dict[int, int] = {}
        self._ones: OrderedDict[int, None] | None = None
        self.recorded = 0
        self.dropped = 0
        self.evicted = 0

    def record(self, page: int) -> None:
        """Count one post-coalescing transaction touching ``page``."""
        self.recorded += 1
        counts = self._counts
        try:
            current = counts[page]
        except KeyError:
            pass
        else:
            if current < self.max_count:
                counts[page] = current + 1
                if current == 1 and self._ones is not None:
                    del self._ones[page]
            return
        if len(counts) >= self.capacity:
            ones = self._ones
            if ones is None:
                ones = self._ones = OrderedDict(
                    (p, None) for p, c in counts.items() if c == 1
                )
            if not ones:
                # Replacement would discard a hotter entry than the
                # newcomer; drop the newcomer instead (hardware tables do
                # not reshuffle on every conflict).
                self.dropped += 1
                return
            del counts[ones.popitem(last=False)[0]]
            self.evicted += 1
            ones[page] = None
        counts[page] = 1

    def snapshot(self) -> dict[int, int]:
        """Current counts without resetting (for inspection)."""
        return dict(self._counts)

    def collect_and_reset(self) -> dict[int, int]:
        """Harvest the counters and clear the table (driver collection)."""
        counts = self._counts
        self._counts = {}
        self._ones = None
        return counts

    def __len__(self) -> int:
        return len(self._counts)
