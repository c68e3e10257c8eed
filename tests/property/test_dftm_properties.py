"""DFTM checked against its definition in the paper (Section III-A).

The paper's rule: on a fault to a CPU-resident page, the GPU with the
highest occupancy is *not* given the page.  The access is served by DCA
and the page-table entry's delayed bit is set, and the page's next fault
migrates it.  Hypothesis drives whole griffin runs over GPU counts,
workloads and seeds with the sanitizer on, records every decision the
driver asks DFTM for together with the occupancy at that moment, and
checks each one against that rule.  Byte-goldens only record a changed
decision rule; these properties reject one.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import CheckConfig
from repro.config.presets import tiny_system
from repro.core.dftm import DelayedFirstTouchMigration, FaultDecision
from repro.harness.runner import run_workload
from repro.vm.address import CPU_DEVICE

_decide = DelayedFirstTouchMigration.decide


def _recorded_run(workload, gpus, seed):
    """Run griffin with the sanitizer on; every DFTM decision, in order."""
    decisions = []

    def recording_decide(dftm, gpu_id, entry):
        record = {"page": entry.page, "gpu": gpu_id, "entry": entry,
                  "counts": dftm.page_table.gpu_page_counts(),
                  "device": entry.device,
                  "delayed_before": entry.delayed_bit}
        record["decision"] = _decide(dftm, gpu_id, entry)
        record["delayed_after"] = entry.delayed_bit
        decisions.append(record)
        return record["decision"]

    with mock.patch.object(DelayedFirstTouchMigration, "decide",
                           recording_decide):
        result = run_workload(workload, "griffin", config=tiny_system(gpus),
                              scale=0.005, seed=seed, checks=CheckConfig())
    return result, decisions


@given(workload=st.sampled_from(["MT", "SC"]),
       gpus=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_dftm_follows_the_papers_rule(workload, gpus, seed):
    result, decisions = _recorded_run(workload, gpus, seed)
    assert decisions, "no CPU-resident fault reached DFTM"

    denials = 0
    last = {}  # page -> its previous decision record
    for d in decisions:
        # The driver only consults DFTM on a CPU-resident page.
        assert d["device"] == CPU_DEVICE, d
        prev = last.get(d["page"])
        if prev is not None and prev["decision"] is FaultDecision.DCA:
            # A denied page's next fault migrates it, from any GPU.
            assert d["delayed_before"], d
            assert d["decision"] is FaultDecision.MIGRATE, d
        if not d["delayed_before"]:
            at_peak = d["counts"][d["gpu"]] == max(d["counts"])
            # Never migrate to the highest-occupancy GPU (ties included);
            # every other GPU gets the page on its first touch.
            expected = FaultDecision.DCA if at_peak else FaultDecision.MIGRATE
            assert d["decision"] is expected, d
        if d["decision"] is FaultDecision.DCA:
            denials += 1
            # Every denial sets the one page-table bit DFTM budgets.
            assert d["delayed_after"], d
        last[d["page"]] = d

    assert denials == result.dftm_denials > 0
    # A migrate decision is carried out: the page left the CPU at least once.
    for d in decisions:
        if d["decision"] is FaultDecision.MIGRATE:
            assert d["entry"].migrations >= 1, d
