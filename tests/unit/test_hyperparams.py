"""Unit tests for Table I hyperparameters."""

import pytest

from repro.config.hyperparams import PAPER_TABLE_I, GriffinHyperParams


def test_paper_defaults_match_table_1():
    h = GriffinHyperParams()
    assert h.n_ptw == 8
    assert h.t_ac == 1000
    assert h.alpha == 0.03
    assert h.lambda_d == 2.0
    assert h.lambda_s == 1.3
    assert h.lambda_t == 0.03


def test_paper_table_constant_is_defaults():
    assert PAPER_TABLE_I == GriffinHyperParams()


def test_counter_saturates_at_0xff():
    assert GriffinHyperParams().counter_max == 0xFF


def test_page_id_is_36_bits():
    # 48-bit physical address space minus 12-bit page offset.
    assert GriffinHyperParams().page_id_bits == 36


def test_counter_table_has_100_entries():
    assert GriffinHyperParams().counter_table_entries == 100


def test_with_overrides_returns_new_object():
    h = GriffinHyperParams()
    h2 = h.with_overrides(alpha=0.5)
    assert h2.alpha == 0.5
    assert h.alpha == 0.03


def test_table_rows_cover_all_six_params():
    names = [row[0] for row in GriffinHyperParams().table_rows()]
    assert names == ["N_PTW", "T_ac", "alpha", "lambda_d", "lambda_s", "lambda_t"]


def test_invalid_alpha_rejected():
    with pytest.raises(ValueError):
        GriffinHyperParams(alpha=0.0)
    with pytest.raises(ValueError):
        GriffinHyperParams(alpha=1.5)


def test_lambda_ordering_enforced():
    with pytest.raises(ValueError):
        GriffinHyperParams(lambda_d=1.0, lambda_s=1.3)


def test_negative_lambda_t_rejected():
    with pytest.raises(ValueError):
        GriffinHyperParams(lambda_t=-0.1)


def test_nonpositive_periods_rejected():
    with pytest.raises(ValueError):
        GriffinHyperParams(t_ac=0)
    with pytest.raises(ValueError):
        GriffinHyperParams(migration_period=0)


def test_n_ptw_must_be_positive():
    with pytest.raises(ValueError):
        GriffinHyperParams(n_ptw=0)


def test_unbuildable_counter_tables_rejected():
    # Caught up front: a Machine would fail to build its counter tables.
    with pytest.raises(ValueError, match="counter_bits"):
        GriffinHyperParams(counter_bits=-1)
    with pytest.raises(ValueError, match="counter_table_entries"):
        GriffinHyperParams(counter_table_entries=0)
    assert GriffinHyperParams(counter_bits=0).counter_max == 0


def test_calibrated_keeps_ratio_thresholds():
    c = GriffinHyperParams.calibrated()
    assert c.lambda_d == 2.0
    assert c.lambda_s == 1.3
    assert c.n_ptw == 8


def test_calibrated_rescales_absolute_params():
    c = GriffinHyperParams.calibrated()
    assert c.t_ac > GriffinHyperParams().t_ac
    assert c.alpha > GriffinHyperParams().alpha
    assert c.lambda_t < GriffinHyperParams().lambda_t
