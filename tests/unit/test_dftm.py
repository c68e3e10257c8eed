"""Unit tests for Delayed First-Touch Migration."""

from repro.core.dftm import DelayedFirstTouchMigration, FaultDecision
from repro.vm.page_table import PageTable


def make(num_gpus=4, enabled=True):
    pt = PageTable(num_gpus, 4096)
    return pt, DelayedFirstTouchMigration(pt, enabled=enabled)


def test_disabled_always_migrates():
    pt, dftm = make(enabled=False)
    assert dftm.decide(0, pt.entry(1)) == FaultDecision.MIGRATE
    assert dftm.first_touch_migrations == 1


def test_highest_occupancy_gpu_is_denied():
    pt, dftm = make()
    pt.migrate(100, 0)
    pt.migrate(101, 0)
    pt.migrate(102, 1)
    assert dftm.decide(0, pt.entry(1)) == FaultDecision.DCA
    assert dftm.denials == 1


def test_low_occupancy_gpu_migrates_on_first_touch():
    pt, dftm = make()
    pt.migrate(100, 0)
    pt.migrate(101, 0)
    assert dftm.decide(1, pt.entry(1)) == FaultDecision.MIGRATE
    assert dftm.first_touch_migrations == 1


def test_denial_sets_delayed_bit():
    pt, dftm = make()
    entry = pt.entry(1)
    dftm.decide(0, entry)  # all tied at zero -> denied
    assert entry.delayed_bit


def test_second_touch_always_migrates():
    pt, dftm = make()
    entry = pt.entry(1)
    dftm.decide(0, entry)
    # Even from the same (still highest-occupancy) GPU.
    assert dftm.decide(0, entry) == FaultDecision.MIGRATE
    assert dftm.second_touch_migrations == 1


def test_second_touch_from_other_gpu_migrates():
    pt, dftm = make()
    entry = pt.entry(1)
    dftm.decide(0, entry)
    assert dftm.decide(2, entry) == FaultDecision.MIGRATE


def test_all_zero_tie_denies_everyone():
    pt, dftm = make()
    for g in range(4):
        assert dftm.decide(g, pt.entry(g + 10)) == FaultDecision.DCA


def test_unique_peak_denied_even_without_tie_denial():
    # A unique peak is denied on its own merits, not through the tie rule:
    # only GPU 2 holds pages, so the others migrate.
    pt, dftm = make()
    pt.migrate(100, 2)
    assert dftm.decide(2, pt.entry(1)) == FaultDecision.DCA
    assert dftm.decide(0, pt.entry(2)) == FaultDecision.MIGRATE
    assert dftm.decide(1, pt.entry(3)) == FaultDecision.MIGRATE


def test_touch_once_pages_never_migrate():
    # The MT property: a page touched once by the top GPU stays on the CPU.
    pt, dftm = make()
    pt.migrate(100, 3)
    entry = pt.entry(1)
    assert dftm.decide(3, entry) == FaultDecision.DCA
    assert pt.location(1) == -1  # caller never migrates it
