"""Delayed First-Touch Migration (paper Section III-A).

On a CPU-resident page fault DFTM checks the *occupancy* of the requesting
GPU — its share of all GPU-resident pages.  If the requester currently has
the highest occupancy, the page is **not** migrated: the IOMMU returns the
CPU physical address and the access is served by DCA, and the page-table
entry's *delayed bit* is set.  Any subsequent fault on that page (from any
GPU) migrates it to that requester.  The mechanism needs exactly one extra
page-table bit of state.
"""

from __future__ import annotations

import enum

from repro.vm.page_table import PageEntry, PageTable


class FaultDecision(enum.Enum):
    """What to do with a first-touch page fault."""

    MIGRATE = "migrate"
    DCA = "dca"


class DelayedFirstTouchMigration:
    """DFTM decision logic.

    Attributes:
        page_table: System page table (occupancy source of truth).
        enabled: When False every fault migrates (baseline first touch).

    The paper denies "the GPU that has the highest occupancy"; a GPU tied
    for the highest (e.g. at the all-zero start state) is denied too,
    which also realizes the paper's second property that pages accessed
    only once are never migrated from the CPU.
    """

    def __init__(self, page_table: PageTable, enabled: bool = True) -> None:
        self.page_table = page_table
        self.enabled = enabled
        self.denials = 0
        self.second_touch_migrations = 0
        self.first_touch_migrations = 0

    def decide(self, gpu_id: int, entry: PageEntry) -> FaultDecision:
        """Decide whether this fault migrates the page or is served by DCA."""
        if not self.enabled:
            self.first_touch_migrations += 1
            return FaultDecision.MIGRATE
        if entry.delayed_bit:
            self.second_touch_migrations += 1
            return FaultDecision.MIGRATE

        counts = self.page_table.gpu_page_counts()
        if counts[gpu_id] == max(counts):
            entry.delayed_bit = True
            self.denials += 1
            return FaultDecision.DCA
        self.first_touch_migrations += 1
        return FaultDecision.MIGRATE
