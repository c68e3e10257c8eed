"""Soundness of effective-input identity: unread knobs change nothing.

A sweep runs each cell identity once and answers every cell that shares
it from that one run, where the identity leaves out the hyperparameters
:func:`repro.system.machine.unread_hyper_fields` names for the cell's
policy.  That is only sound if perturbing any of those fields leaves the
run byte-identical.  This property draws a registered policy, one of its
unread fields and a random valid value for it, and checks exactly that.
"""

from __future__ import annotations

import functools
import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.config.hyperparams import GriffinHyperParams
from repro.config.presets import tiny_system
from repro.core.policies import get_policy, list_policies
from repro.harness.io import result_to_dict
from repro.harness.runner import run_workload
from repro.system.machine import unread_hyper_fields

_BASE = GriffinHyperParams.calibrated()

# A valid value for each field that can be unread; cross-field limits
# (lambda_d >= lambda_s) are left to GriffinHyperParams, which rejects
# the rest.
_VALUES = {
    "page_id_bits": st.integers(1, 64),
    "n_ptw": st.integers(1, 64),
    "fault_batch_timeout": st.integers(1, 200_000),
    "t_ac": st.integers(1, 50_000),
    "alpha": st.floats(0.001, 1.0),
    "lambda_d": st.floats(0.0, 10.0),
    "lambda_s": st.floats(0.0, 10.0),
    "lambda_t": st.floats(0.0, 1.0),
    "trend_fraction": st.floats(0.0, 2.0),
    "shared_min_share": st.floats(0.0, 1.0),
    "migration_period": st.integers(1, 100_000),
    "max_pages_per_round": st.integers(0, 1_000),
    "max_source_gpus_per_round": st.integers(0, 8),
    "min_pages_per_source": st.integers(0, 64),
    "counter_bits": st.integers(0, 16),
    "counter_table_entries": st.integers(1, 500),
}


def _run(workload: str, policy: str, hyper: GriffinHyperParams) -> str:
    result = run_workload(workload, policy, config=tiny_system(2),
                          hyper=hyper, scale=0.005, seed=9)
    return json.dumps(result_to_dict(result), sort_keys=True)


@functools.cache
def _unperturbed(workload: str, policy: str) -> str:
    return _run(workload, policy, _BASE)


@st.composite
def _perturbations(draw):
    policy = draw(st.sampled_from(list_policies()))
    field = draw(st.sampled_from(
        sorted(unread_hyper_fields(get_policy(policy)))
    ))
    value = draw(_VALUES[field])
    workload = draw(st.sampled_from(["MT", "SC"]))
    return policy, field, value, workload


def test_every_unread_field_has_a_value_strategy():
    for policy in list_policies():
        assert unread_hyper_fields(get_policy(policy)) <= set(_VALUES)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_perturbations())
def test_unread_field_leaves_run_byte_identical(case):
    policy, field, value, workload = case
    try:
        hyper = _BASE.with_overrides(**{field: value})
    except ValueError:
        assume(False)  # violates a cross-field limit; not a valid config
    assert _run(workload, policy, hyper) == _unperturbed(workload, policy)
