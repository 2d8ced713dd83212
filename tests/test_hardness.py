import math

import numpy as np
import pytest

from eqprice.hardness import (
    IID_SOFT_COST,
    IID_STIFF_COST,
    LinearDemoReport,
    expected_total_regret,
    linear_cost_demo,
    per_period_total_regret,
    verify_lower_bound,
)
from eqprice.harness import ExperimentConfig, run_experiment
from eqprice.market import CostSpec, GeneratorSpec, InstanceSpec, equilibrium_price


def test_iid_instance_clearing_prices():
    assert equilibrium_price([IID_STIFF_COST], 1.0) == pytest.approx(0.25, abs=1e-12)
    assert equilibrium_price([IID_SOFT_COST], 1.0) == pytest.approx(0.125, abs=1e-12)


def test_expected_total_regret_values():
    assert expected_total_regret(0.125) == pytest.approx(7.0 / 64.0, abs=1e-15)
    assert expected_total_regret(0.25) == pytest.approx(9.0 / 32.0, abs=1e-15)
    assert expected_total_regret(0.0) == pytest.approx(23.0 / 32.0, abs=1e-15)
    assert expected_total_regret(0.5) == pytest.approx(1.96875, abs=1e-15)


def test_expected_total_regret_continuous_at_kinks():
    for kink in (0.125, 0.25):
        jump = abs(
            expected_total_regret(kink - 1e-12) - expected_total_regret(kink + 1e-12)
        )
        assert jump < 1e-10
    # piece values agree exactly at the boundaries
    assert abs((9 / 64 - 6 / 8 + 23 / 32) - (9 / 64 - 2 / 8 + 7 / 32)) <= 1e-15
    assert abs((9 / 16 - 2 / 4 + 7 / 32) - (9 / 16 - 9 / 32)) <= 1e-15


def test_formula_matches_market_machinery():
    # the closed form is the mixture average of realized totals
    for p in (0.0, 0.07, 0.125, 0.2, 0.25, 0.4, 0.8):
        mix = 0.5 * per_period_total_regret(p, True) + 0.5 * per_period_total_regret(p, False)
        assert mix == pytest.approx(expected_total_regret(p), abs=1e-9)


def test_verify_lower_bound_grid():
    report = verify_lower_bound(grid_step=1e-4, n_periods=1000, seed=3)
    assert report.grid_argmin == pytest.approx(0.125, abs=1e-12)
    assert abs(report.grid_min - 7.0 / 64.0) <= 1e-12


def test_verify_lower_bound_empirical():
    report = verify_lower_bound(n_periods=100_000, seed=7)
    for row in report.rows:
        assert row.empirical == pytest.approx(row.analytic, rel=0.02)
        # the analytic minimum floors the empirical average at every price
        assert row.empirical >= report.grid_min - 0.02 * row.analytic


def test_lower_bound_csv_rows():
    report = verify_lower_bound(n_periods=1000, seed=1)
    rows = report.to_csv_rows()
    assert rows[0] == "p,analytic,empirical,n_periods,seed"
    assert len(rows) == 1 + len(report.rows)


def _linear_constant_price(c, p, T, d=1.0):
    """A constant price p on linear_cost_demo's instance: one supplier with
    unit cost c and capacity 2d, constant demand d."""
    inst = InstanceSpec(
        suppliers=(CostSpec.linear(c=c, cap=2.0 * d),),
        demands=GeneratorSpec(kind="constant", value=d),
        horizon=T,
    )
    cfg = ExperimentConfig(
        instance=inst, policy="constant_price", horizons=(T,), policy_params={"p": p}
    )
    rec = run_experiment(cfg)[0]
    # away from p = c each period's total regret is at least min(d(1 - 2c), 2c)
    totals = rec.unmet_inc + rec.cost_inc + rec.pay_inc
    assert np.all(totals >= min(d * (1 - 2 * c), 2 * c) - 1e-12)
    return rec


def test_linear_demo_constant_below_cost():
    # a price just below c sells nothing: unmet demand is d per period
    r = _linear_constant_price(c=0.4, p=0.39, T=10_000)
    assert r.unmet == pytest.approx(1.0 * 10_000)


def test_linear_demo_constant_above_cost():
    # production pins at the cap; payment regret is ((c + .01) cap - c d) T
    c, cap, d, T = 0.4, 2.0, 1.0, 5_000
    r = _linear_constant_price(c=c, p=c + 0.01, T=T)
    assert r.unmet == 0.0
    assert r.payment_regret == pytest.approx(((c + 0.01) * cap - c * d) * T)


def test_linear_demo_interval_tracking_grows_linearly():
    r = linear_cost_demo(horizon=20_000, unit_cost=0.4)
    assert isinstance(r, LinearDemoReport)
    assert r.slope > 0.1
    assert r.r_squared > 0.99
    assert r.bound_violations == 0
    total = r.unmet + r.cost_regret + r.payment_regret
    # per-period floor: min(d(1 - 2c), 2c) = 0.2 for c = 0.4
    assert total >= 0.2 * 20_000 * 0.9


def test_linear_demo_validates_inputs():
    with pytest.raises(ValueError, match="cap below demand"):
        linear_cost_demo(horizon=10, cap=0.5)
    # a line needs two points: horizon 1 used to fit through one
    for horizon in (1, 0):
        with pytest.raises(ValueError, match="horizon >= 2"):
            linear_cost_demo(horizon=horizon)
