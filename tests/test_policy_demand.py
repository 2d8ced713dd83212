import math

import numpy as np
import pytest

from eqprice.market import CostSpec, aggregate_production, equilibrium_price
from eqprice.policy_demand import (
    DemandGrid,
    cell_price,
    demand_step,
    interval_index,
    make_demand_state,
    max_total_shrinks,
)


def test_interval_index_examples():
    grid = DemandGrid(0.5, 1.5, 0.25)
    assert grid.n_cells == 4
    assert interval_index(grid, 0.8) == 2
    assert interval_index(grid, 0.5) == 1
    assert interval_index(grid, 1.5) == 4  # top boundary clamps into the last cell


def test_interval_index_rejects_out_of_range():
    grid = DemandGrid(0.5, 1.5, 0.25)
    with pytest.raises(ValueError):
        interval_index(grid, 0.4)
    with pytest.raises(ValueError):
        interval_index(grid, 1.6)


@pytest.mark.parametrize(
    "entry",
    [
        lambda state: interval_index(state.grid, math.nan),
        lambda state: cell_price(state, math.nan),
        lambda state: demand_step(state, math.nan, 0.7),
    ],
    ids=["interval_index", "cell_price", "demand_step"],
)
def test_nan_demand_is_refused_as_outside_the_grid(entry):
    # every comparison with NaN is false, so the bounds test is written to fail on it
    state = make_demand_state(DemandGrid(0.5, 1.5, 0.25), horizon=100)
    with pytest.raises(ValueError, match=r"^demand nan outside grid bounds \[0.5, 1.5\]$"):
        entry(state)


@pytest.mark.parametrize(
    "args",
    [(np.float32(0.5), 1.5, np.float32(0.1)), (1, 2, 1), (np.int64(1), np.float64(2.0), 0.5)],
    ids=["float32", "int", "numpy-int"],
)
def test_grid_stores_the_floats_it_checks(args):
    # the grid keeps float(x) of each argument, the value its checks read
    grid = DemandGrid(*args)
    stored = (grid.d_lo, grid.d_hi, grid.gamma)
    assert [type(v) for v in stored] == [float] * 3
    assert stored == tuple(float(v) for v in args)


def test_grid_covers_span():
    grid = DemandGrid(0.5, 1.5, 0.3)
    assert grid.n_cells * grid.gamma >= grid.d_hi - grid.d_lo


def test_initialization():
    grid = DemandGrid(0.5, 1.5, 0.25)
    s = make_demand_state(grid, horizon=100)
    assert np.all(s.s_lo == 0.0) and np.all(s.s_hi == 1.0)
    assert np.all(s.price == 0.0) and np.all(s.eps == 0.5)
    assert s.freeze_width == pytest.approx(0.1)


@pytest.mark.parametrize("width", [math.inf, math.nan, 0.0, -1.0, "0.05"])
def test_freeze_width_must_be_finite_and_positive(width):
    # freeze_width = inf froze every cell, which then posted price 0 forever
    grid = DemandGrid(0.5, 1.5, 0.25)
    with pytest.raises(ValueError, match="freeze_width"):
        make_demand_state(grid, horizon=100, freeze_width=width)


@pytest.mark.parametrize("gamma", [math.inf, 0.0, "0.1", True])
def test_grid_width_must_be_a_positive_number(gamma):
    # a numeric string was used as the width 0.1
    with pytest.raises(ValueError, match="gamma_demand"):
        DemandGrid(0.5, 1.5, gamma)


def test_grid_derives_its_cell_count():
    assert DemandGrid(0.5, 1.5, 0.1).n_cells == 10
    assert DemandGrid(1.0, 1.0, 0.5).n_cells == 1  # one cell for a single demand
    # the count is not an argument, so it cannot disagree with the bounds
    with pytest.raises(TypeError):
        DemandGrid(0.5, 1.5, 0.1, n_cells=2)


@pytest.mark.parametrize(
    "d_lo, d_hi, field",
    [
        ("0.5", 1.5, "d_lo"),
        (0.5, None, "d_hi"),
        (True, 1.5, "d_lo"),
        (math.nan, 1.5, "d_lo"),
        (0.5, math.inf, "d_hi"),  # was an OverflowError counting the cells
        (0.0, 1.5, "d_lo"),
        (-0.5, 1.5, "d_lo"),
        (1.5, 0.5, "d_hi"),
    ],
)
def test_grid_bounds_must_be_ordered_positive_numbers(d_lo, d_hi, field):
    with pytest.raises(ValueError, match=field):
        DemandGrid(d_lo, d_hi, 0.1)


def test_frozen_cell_holds_at_the_freeze_width():
    # a cell searches only while its set is wider than the freeze width
    grid = DemandGrid(0.5, 1.5, 1.0)
    at_width = make_demand_state(grid, horizon=100, freeze_width=1.0)
    assert demand_step(at_width, 0.7, 0.0) == (0.0, at_width)
    wider = make_demand_state(grid, horizon=100, freeze_width=np.nextafter(1.0, 0.0))
    offered, s = demand_step(wider, 0.7, 0.0)
    assert offered == 0.0 and s.price[0] == 0.5


def test_state_carries_its_grid():
    # the step API reads the grid from the state, so a second grid cannot
    # index another cell's interval
    grid = DemandGrid(0.5, 1.5, 0.5)
    s = make_demand_state(grid, horizon=100)
    assert s.grid is grid
    offered, s = demand_step(s, 1.4, total_production=0.0)
    assert offered == 0.0
    assert s.price.tolist() == [0.0, 0.5]


def test_probe_step_keeps_feasible_set():
    # production below the cell bound: additive probe, set unchanged
    grid = DemandGrid(0.9, 1.15, 0.25)
    s = make_demand_state(grid, horizon=10_000)
    offered, s = demand_step(s, 1.0, total_production=0.0)
    assert offered == 0.0
    assert s.price[0] == 0.5
    assert (s.s_lo[0], s.s_hi[0]) == (0.0, 1.0)
    assert s.eps[0] == 0.5


def test_shrink_step_hand_example():
    # supplier x*(p) = p/0.3; cell lower bound 0.9; production at p=0.5
    # is 1.667 >= 0.9, so the set shrinks to (0, 0.5] and eps squares
    sup = [CostSpec.quadratic(0.3)]
    grid = DemandGrid(0.9, 1.15, 0.25)
    s = make_demand_state(grid, horizon=10_000)
    d = 1.0
    offered, s = demand_step(s, d, aggregate_production(sup, cell_price(s, d)).total)
    assert offered == 0.0  # first visit probes upward
    x = aggregate_production(sup, cell_price(s, d)).total
    assert x == pytest.approx(0.5 / 0.3)
    offered, s = demand_step(s, d, x)
    assert offered == 0.5
    assert (s.s_lo[0], s.s_hi[0]) == (0.0, 0.5)
    assert s.price[0] == 0.0
    assert s.eps[0] == 0.25


def test_frozen_cell_price_is_stable():
    grid = DemandGrid(0.5, 1.5, 0.5)
    s = make_demand_state(grid, horizon=100, freeze_width=2.0)  # everything frozen
    p0 = cell_price(s, 0.7)
    for _ in range(5):
        offered, s = demand_step(s, 0.7, total_production=99.0)
        assert offered == p0
    assert cell_price(s, 0.7) == p0


@pytest.mark.parametrize("freeze_width", [None, 2.0], ids=["searching", "frozen"])
def test_step_rejects_nan_production(freeze_width):
    # NaN compares below every demand bound, so it used to move the price up
    grid = DemandGrid(0.5, 1.5, 0.5)
    s = make_demand_state(grid, horizon=100, freeze_width=freeze_width)
    with pytest.raises(ValueError, match="must not be NaN"):
        demand_step(s, 0.7, total_production=math.nan)


def test_probe_clamped_at_one():
    grid = DemandGrid(0.5, 1.5, 1.0)
    s = make_demand_state(grid, horizon=10_000)
    # forever-undershooting production walks the price up to the clamp
    for _ in range(6):
        _, s = demand_step(s, 1.0, total_production=0.0)
    assert s.price[0] == 1.0


def simulate(sup, demands, grid, horizon, freeze_width=None):
    s = make_demand_state(grid, horizon, freeze_width)
    rows = []
    for d in demands:
        p = cell_price(s, d)
        x = aggregate_production(sup, p).total
        shrinks_before = s.shrink_count
        _, s = demand_step(s, d, x)
        rows.append((d, p, x, s.shrink_count > shrinks_before))
    return s, rows


def test_containment_of_cell_lower_bound_price():
    rng = np.random.Generator(np.random.Philox(key=41))
    sup = [CostSpec.quadratic(0.5), CostSpec.quadratic(1.0)]
    T = 4000
    grid = DemandGrid(0.5, 1.5, 1.0 / math.sqrt(T))
    demands = rng.uniform(0.5, 1.5, T)
    s = make_demand_state(grid, T)
    seen = set()
    for d in demands:
        k = interval_index(grid, d)
        seen.add(k)
        p = cell_price(s, d)
        _, s = demand_step(s, d, aggregate_production(sup, p).total)
        # the clearing price of the cell's lower bound stays in (s_lo, s_hi]
        p_star_k = equilibrium_price(sup, grid.d_lo + (k - 1) * grid.gamma)
        assert s.s_lo[k - 1] - 1e-12 < p_star_k <= s.s_hi[k - 1] + 1e-12


def test_underpricing_sign_pattern():
    # positive cost/payment increments only on shrink steps
    rng = np.random.Generator(np.random.Philox(key=42))
    sup = [CostSpec.quadratic(0.5), CostSpec.quadratic(1.0)]
    T = 3000
    grid = DemandGrid(0.5, 1.5, 1.0 / math.sqrt(T))
    demands = rng.uniform(0.5, 1.5, T)
    _, rows = simulate(sup, demands, grid, T)
    inv_sum = 1.0 / 0.5 + 1.0
    for d, p, x, shrank in rows:
        p_star = d / inv_sum
        pay_inc = p * x - p_star * d
        cost_inc = 0.25 * (p / 0.5) ** 2 + 0.5 * (p / 1.0) ** 2 - (
            0.25 * (p_star / 0.5) ** 2 + 0.5 * (p_star / 1.0) ** 2
        )
        if not shrank:
            assert p <= p_star + 1e-12
            assert pay_inc <= 1e-10
            assert cost_inc <= 1e-10


def test_total_shrinks_bounded():
    rng = np.random.Generator(np.random.Philox(key=43))
    sup = [CostSpec.quadratic(0.4)]
    T = 5000
    grid = DemandGrid(0.5, 1.5, 1.0 / math.sqrt(T))
    demands = rng.uniform(0.5, 1.5, T)
    s, _ = simulate(sup, demands, grid, T)
    assert s.shrink_count <= max_total_shrinks(grid, T)


def test_feasible_width_shrinks_monotonically():
    sup = [CostSpec.quadratic(0.4)]
    grid = DemandGrid(1.0, 1.0001, 1.0)
    s = make_demand_state(grid, horizon=10_000)
    widths = [s.s_hi[0] - s.s_lo[0]]
    for _ in range(200):
        p = cell_price(s, 1.0)
        _, s = demand_step(s, 1.0, aggregate_production(sup, p).total)
        widths.append(s.s_hi[0] - s.s_lo[0])
    assert all(w2 <= w1 for w1, w2 in zip(widths, widths[1:]))
