import math
import tracemalloc

import numpy as np
import pytest

from eqprice import hardness
from eqprice.hardness import (
    IID_DEMAND,
    IID_SOFT_COST,
    IID_STIFF_COST,
    LinearDemoReport,
    expected_total_regret,
    linear_cost_demo,
    verify_lower_bound,
)
from eqprice.harness import ExperimentConfig, replication_stream, run_experiment
from eqprice.market import (
    CostSpec, GeneratorSpec, InstanceSpec, MarketInstance, equilibrium_price, full_column
)


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


def _piecewise(p: float) -> float:
    """The closed form on one Python float, piece by piece."""
    if p < 0.125:
        return 9.0 * p * p - 6.0 * p + 23.0 / 32.0
    if p <= 0.25:
        return 9.0 * p * p - 2.0 * p + 7.0 / 32.0
    return 9.0 * p * p - 9.0 / 32.0


def test_expected_total_regret_array_matches_the_scalar_form():
    kinks = [0.125, 0.25]
    near = [np.nextafter(k, side) for k in kinks for side in (0.0, 1.0)]
    rng = np.random.Generator(np.random.Philox(key=5))
    grid = np.concatenate(
        [np.arange(100_001) / 100_000, kinks, near, [0.0, 1.0, 5e-324], rng.uniform(size=1000)]
    )
    values = expected_total_regret(grid)
    want = np.array([_piecewise(p) for p in grid.tolist()])
    assert values.shape == grid.shape
    assert values.tobytes() == want.tobytes()
    for p in kinks + near:
        assert expected_total_regret(p).hex() == _piecewise(p).hex()


@pytest.mark.parametrize(
    "p, first",
    [(1.5, "1.5"), (math.nan, "nan"), ([0.5, -0.25, 2.0], "-0.25"), ([0.5, math.nan], "nan")],
)
def test_expected_total_regret_rejects_the_first_bad_price(p, first):
    with pytest.raises(ValueError, match=rf"price must lie in \[0, 1\], got {first}$"):
        expected_total_regret(p)


@pytest.mark.parametrize(
    "p, named", [("0.125", "'0.125'"), (True, "True"), ([0.5, False], "False")]
)
def test_expected_total_regret_refuses_a_string_or_bool_price(p, named):
    # expected_total_regret("0.125") returned 7/64, the minimum
    with pytest.raises(ValueError, match=rf"^price must be a number, got {named}$"):
        expected_total_regret(p)


def test_formula_matches_market_machinery():
    # the closed form is the mixture average of realized totals, each taken
    # from a market of one cost draw over the price path; the market is
    # given the path's head, one period short of its repeated last price,
    # and returns heads of that length
    prices = np.array([0.0, 0.07, 0.125, 0.2, 0.25, 0.4, 0.8, 0.8])
    n, d = len(prices), IID_DEMAND
    totals = []
    for cost in (IID_STIFF_COST, IID_SOFT_COST):
        market = MarketInstance(
            suppliers=(cost,), demands=np.full(n, d), contexts=None, horizon=n,
            demand_bounds=(d, d),
        )
        cols = market.regret_columns(prices[:-1])
        assert cols["production"].shape == (n - 1,)
        totals.append(full_column(cols["unmet_inc"] + cols["cost_inc"] + cols["pay_inc"], n))
    mix = 0.5 * totals[0] + 0.5 * totals[1]
    assert mix == pytest.approx(expected_total_regret(prices), abs=1e-9)


def stiff(p):
    """Realized total regret of the stiffer cost draw at demand 1: it
    produces 4p and clears at 1/4."""
    return max(0.0, 1.0 - 4.0 * p) + 6.0 * p * p - 3.0 / 8.0


def soft(p):
    """Realized total regret of the softer cost draw: 8p, clearing at 1/8."""
    return max(0.0, 1.0 - 8.0 * p) + 12.0 * p * p - 3.0 / 16.0


def test_verify_lower_bound_weights_each_draw_by_its_share(monkeypatch):
    # A path ending in a repeated price gives every row too.
    for prices in (hardness.LOWER_BOUND_PRICES, (0.0, 0.125, 0.5, 0.5)):
        monkeypatch.setattr(hardness, "LOWER_BOUND_PRICES", prices)
        report = verify_lower_bound(n_periods=10, seed=3)
        assert [row.price for row in report.rows] == list(prices)
        rng = replication_stream(3, 0)
        shares = set()
        for row in report.rows:
            share = np.count_nonzero(rng.uniform(0.0, 1.0, 10) < 0.5) / 10
            shares.add(share)
            want = share * stiff(row.price) + (1.0 - share) * soft(row.price)
            assert row.empirical == pytest.approx(want, abs=1e-12)
        assert shares != {0.5}  # a share away from 1/2 tells the draws apart


def test_verify_lower_bound_counts_its_draws_in_fixed_blocks():
    # each row's draws are counted 2**16 at a time: the shares are those of
    # one draw of n_periods from the stream, over a block edge too, and the
    # memory does not grow with n_periods (one array of 4e6 draws is 30 MiB)
    n = 2**17 + 3
    report = verify_lower_bound(n_periods=n, seed=5)
    rng = replication_stream(5, 0)
    for row in report.rows:
        share = np.count_nonzero(rng.uniform(0.0, 1.0, n) < 0.5) / n
        want = share * stiff(row.price) + (1.0 - share) * soft(row.price)
        assert row.empirical == pytest.approx(want, abs=1e-12)
    tracemalloc.start()
    try:
        verify_lower_bound(n_periods=4 * 10**6, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


def test_verify_lower_bound_minimum_is_exact():
    report = verify_lower_bound(n_periods=1000, seed=3)
    assert report.minimum == 7.0 / 64.0
    assert report.argmin == 0.125


@pytest.mark.parametrize(
    "kwargs, key",
    [
        # int() of each would parse, overflow, or raise without naming the field
        ({"n_periods": "10"}, "n_periods"),
        ({"n_periods": math.inf}, "n_periods"),
        ({"n_periods": math.nan}, "n_periods"),
        ({"n_periods": None}, "n_periods"),
        ({"n_periods": 0}, "n_periods"),
        ({"n_periods": 2.5}, "n_periods"),
        ({"n_periods": True}, "n_periods"),
        ({"seed": True}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**128}, "seed"),
        ({"seed": 10**400}, "seed"),  # was an OverflowError reading it as a float
    ],
)
def test_verify_lower_bound_rejects_invalid_parameters(kwargs, key):
    with pytest.raises(ValueError, match=key):
        verify_lower_bound(**kwargs)


def test_verify_lower_bound_accepts_the_edges():
    report = verify_lower_bound(n_periods=1)
    assert report.minimum == 7.0 / 64.0
    assert report.argmin == 0.125
    assert all(r.n_periods == 1 for r in report.rows)


def test_verify_lower_bound_empirical():
    report = verify_lower_bound(n_periods=100_000, seed=7)
    for row in report.rows:
        assert row.empirical == pytest.approx(row.analytic, rel=0.02)
        # the analytic minimum floors the empirical average at every price
        assert row.empirical >= report.minimum - 0.02 * row.analytic


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
    r = linear_cost_demo(horizon=20_000)
    assert isinstance(r, LinearDemoReport)
    assert r.slope > 0.1
    assert r.r_squared > 0.99
    assert r.bound_violations == 0
    total = r.unmet + r.cost_regret + r.payment_regret
    # per-period floor: min(d(1 - 2c), 2c) = 0.2 for c = 0.4
    assert total >= 0.2 * 20_000 * 0.9


def test_linear_demo_is_deterministic_in_its_seed():
    # a constant demand and the tracker draw nothing: the seed is checked
    # and changes no result
    assert linear_cost_demo(1000, seed=0) == linear_cost_demo(1000, seed=12345)
    with pytest.raises(ValueError, match=r"seed \+ replication must lie in"):
        linear_cost_demo(1000, seed=-1)


def test_linear_demo_validates_inputs():
    # a line needs two points: horizon 1 used to fit through one
    for horizon in (1, 0):
        with pytest.raises(ValueError, match="horizon >= 2"):
            linear_cost_demo(horizon=horizon)
