"""Kernel trajectories against the step-level API driven period by period
(both run the step functions of ``eqprice.kernels``; the step-level drivers
use ``market.aggregate_production`` for the feedback), the kernels' search
and cell-index helpers, and the invariants a whole horizon must keep."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqprice import kernels
from eqprice.features import apply_feature_map
from eqprice.market import (
    CostSpec, FunctionClass, aggregate_production, equilibrium_price, full_column
)
from eqprice.policy_contextual import (
    contextual_observe,
    contextual_step,
    make_contextual_state,
)
from eqprice.policy_demand import (
    DemandGrid,
    cell_price,
    demand_step,
    make_demand_state,
    max_total_shrinks,
)
from eqprice.policy_fixed import (
    fixed_next_price,
    fixed_observe,
    make_fixed_state,
    max_shrink_events,
)


def reference_fixed(suppliers, d, T):
    """The step API's prices over T periods, its final state, and the length
    of the fixed kernel's price head: up to the first period posted frozen,
    or T if none is."""
    state = make_fixed_state(T)
    prices = np.empty(T)
    head = T
    for t in range(T):
        if state.frozen and head == T:
            head = t + 1
        p = fixed_next_price(state)
        prices[t] = p
        x = aggregate_production(suppliers, p).total
        state = fixed_observe(state, x, d)
    return prices, state, head


def assert_fixed_head(price, ref_prices, head):
    """The kernel's price head ends at the first frozen period and, with its
    last price repeated, is the step API's price path."""
    assert price.shape == (head,)
    assert np.array_equal(full_column(price, len(ref_prices)), ref_prices)


def test_fixed_kernel_matches_reference():
    suppliers = (CostSpec.quadratic(0.3, a=0.05), CostSpec.quadratic(0.8))
    d, T = 1.7, 4000
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    price, a, b, eps, frozen, shrinks, resets = kernels.fixed_trajectory(fam, p1, p2, d, T)
    ref_prices, ref_state, head = reference_fixed(suppliers, d, T)
    assert head < T  # it freezes
    assert_fixed_head(price, ref_prices, head)
    assert shrinks == ref_state.shrink_count
    assert resets == ref_state.resets
    assert (a, b, eps) == (ref_state.a, ref_state.b, ref_state.eps)
    assert frozen == ref_state.frozen


def test_kernel_results_are_named_in_their_positions():
    # perfbench/tracer.py reads fixed[0], fixed[5], fixed[6], demand[0],
    # demand[5] and contextual[1] by position
    fam, p1, p2 = kernels.encode_suppliers((CostSpec.quadratic(0.3), CostSpec.quadratic(0.8)))
    fixed = kernels.fixed_trajectory(fam, p1, p2, 1.0, 200)
    assert isinstance(fixed, kernels.FixedResult)
    assert kernels.FixedResult._fields == (
        "price", "a", "b", "eps", "frozen", "shrinks", "resets"
    )
    assert fixed[0] is fixed.price and (fixed[5], fixed[6]) == (fixed.shrinks, 0)
    demand = kernels.demand_trajectory(
        fam, p1, p2, np.full(50, 1.0), np.zeros(2), np.ones(2), np.full(2, 0.5),
        0.5, 0.5, 2, 1e-3,
    )
    assert isinstance(demand, kernels.DemandResult)
    assert kernels.DemandResult._fields == (
        "price", "s_lo", "s_hi", "cell_price", "eps", "shrinks"
    )
    assert demand[0] is demand.price and demand[5] == demand.shrinks
    contextual = kernels.contextual_trajectory(
        np.ones((2, 5)), np.full(2, -math.log(2)), 0.5, np.ones(5), np.full(5, 0.5),
        np.linspace(0.1, 0.9, 5), np.linspace(0.0, 1.0, 3), 10.0,
    )
    assert isinstance(contextual, kernels.ContextualResult)
    assert kernels.ContextualResult._fields == (
        "arm", "price", "proxy", "forecast_loss", "log_weights", "cum_member_loss"
    )
    assert contextual[1] is contextual.price


def test_fixed_kernel_linear_instance():
    supplier = CostSpec.linear(c=0.4, cap=2.0)
    d, T = 1.0, 3000
    fam, p1, p2 = kernels.encode_suppliers((supplier,))
    price = kernels.fixed_trajectory(fam, p1, p2, d, T)[0]
    ref_prices, _, head = reference_fixed((supplier,), d, T)
    assert_fixed_head(price, ref_prices, head)


@pytest.mark.parametrize(
    "suppliers, d",
    [
        ((CostSpec.quadratic(0.3, a=0.05), CostSpec.quadratic(0.8, a=0.2)), 1.1),
        ((CostSpec.linear(c=0.4, cap=2.0),), 1.0),
        # production at p = 1 falls short of d: the step API resets every
        # third period, and the kernel rejects the demand
        (
            (
                CostSpec.quadratic(0.3, a=0.05), CostSpec.quadratic(0.8),
                CostSpec.quadratic(0.6, a=0.2),
            ),
            7.0,
        ),
    ],
    ids=["quadratic-intercepts", "linear", "resets"],
)
def test_fixed_kernel_matches_reference_long_horizon(suppliers, d):
    # at T = 1e5 the probe runs are thousands of periods long, so the kernel
    # skips most periods
    T = 100_000
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    if aggregate_production(suppliers, 1.0).total < d:
        with pytest.raises(ValueError, match="falls short of the demand"):
            kernels.fixed_trajectory(fam, p1, p2, d, T)
        return
    price, a, b, eps, frozen, shrinks, resets = kernels.fixed_trajectory(fam, p1, p2, d, T)
    ref_prices, ref, head = reference_fixed(suppliers, d, T)
    assert_fixed_head(price, ref_prices, head)
    assert (a, b, eps, frozen) == (ref.a, ref.b, ref.eps, ref.frozen)
    assert (shrinks, resets) == (ref.shrink_count, ref.resets) and resets == 0
    assert np.count_nonzero(np.diff(price)) > 1000  # long probe runs


def _assert_demand_kernel_matches_reference(suppliers, T, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    demands = rng.uniform(0.5, 1.5, T)
    gamma = 1.0 / math.sqrt(T)
    grid = DemandGrid(0.5, 1.5, gamma)
    state = make_demand_state(grid, T)
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    price, s_lo, s_hi, cell_prices, eps, shrinks = kernels.demand_trajectory(
        fam, p1, p2, demands, state.s_lo, state.s_hi, state.eps,
        grid.d_lo, grid.gamma, grid.n_cells, state.freeze_width,
    )
    assert np.array_equal(state.s_lo, np.zeros(grid.n_cells))  # inputs untouched
    assert np.array_equal(state.eps, np.full(grid.n_cells, 0.5))

    for t in range(T):
        p = cell_price(state, demands[t])
        assert price[t] == p
        x = aggregate_production(suppliers, p).total
        _, state = demand_step(state, demands[t], x)
    assert shrinks == state.shrink_count
    assert np.array_equal(s_lo, state.s_lo)
    assert np.array_equal(s_hi, state.s_hi)
    assert np.array_equal(cell_prices, state.price)
    assert np.array_equal(eps, state.eps)


def test_demand_kernel_matches_reference():
    suppliers = (CostSpec.quadratic(0.5), CostSpec.quadratic(1.0, a=0.1))
    _assert_demand_kernel_matches_reference(suppliers, 2500, seed=81)


def test_demand_kernel_matches_reference_long_horizon():
    # the criterion-2 market with one intercept, where each cell sees about
    # 140 visits, most of them in probe runs
    suppliers = (CostSpec.quadratic(0.5), CostSpec.quadratic(1.0, a=0.1))
    _assert_demand_kernel_matches_reference(suppliers, 20_000, seed=202)


def _scan_first_event(event, lo, hi):
    return next((j for j in range(lo, hi + 1) if event(j)), None)


@settings(max_examples=300, deadline=None)
@given(lo=st.integers(-50, 50), width=st.integers(0, 5000), offset=st.integers(-10, 5100))
@example(lo=3, width=40, offset=41)  # no event
@example(lo=3, width=40, offset=0)  # event at lo
@example(lo=3, width=40, offset=40)  # event at hi
@example(lo=3, width=0, offset=0)  # lo == hi, event
@example(lo=3, width=0, offset=1)  # lo == hi, none
def test_first_event_matches_linear_scan(lo, width, offset):
    hi, first = lo + width, lo + offset
    calls = []

    def event(j):
        assert lo <= j <= hi
        calls.append(j)
        return j >= first

    got = kernels._first_event(event, lo, hi)
    assert got == _scan_first_event(lambda j: j >= first, lo, hi)
    # a gallop, then a bisection of the last gap: O(log(j - lo)) evaluations
    reach = (hi if got is None else got) - lo
    assert len(calls) <= 2 * (reach + 1).bit_length() + 1


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(0.0, 1.0),
    width=st.floats(0.0, 1.0),
    eps=st.floats(2.0**-64, 0.5),
    lo=st.integers(0, 2**53 - 300),
    n=st.integers(0, 200),
)
@example(a=0.25, width=0.5, eps=0.125, lo=0, n=10)  # offers reach b at cursor 4, capped after it
@example(a=0.25, width=0.5, eps=0.125, lo=7, n=0)  # an empty run
@example(a=0.0, width=1.0, eps=2.0**-64, lo=2**52, n=100)  # large cursors
def test_fixed_offer_on_cursor_array_matches_one_cursor_calls(a, width, eps, lo, n):
    b = min(a + width, 1.0)
    got = kernels.fixed_offer(a, b, eps, np.arange(lo, lo + n), False)
    want = [kernels.fixed_offer(a, b, eps, j, False) for j in range(lo, lo + n)]
    assert all(type(p) is float for p in want)
    assert got.shape == (n,)
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    if n:
        one = kernels.fixed_offer(a, b, eps, np.array(lo), False)  # a 0-d array is one cursor
        assert type(one) is float and one == want[0]
    assert kernels.fixed_offer(a, b, eps, lo, True) == a  # frozen posts a


def test_cell_index_on_demand_array_matches_one_demand_calls():
    d_lo, gamma, n_cells = 0.5, 1.0 / math.sqrt(20_000), 142
    edges = d_lo + np.arange(n_cells + 1) * gamma
    demands = np.concatenate([
        np.random.Generator(np.random.Philox(key=9)).uniform(d_lo, 1.5, 5000),
        edges,  # exactly on cell edges, as computed
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        [d_lo, 1.5, d_lo - 1e-12, 1.5 + 1e-12, 0.0, 1e300],  # both bounds and beyond
    ])
    got = kernels.cell_index(demands, d_lo, gamma, n_cells)
    want = [kernels.cell_index(float(x), d_lo, gamma, n_cells) for x in demands]
    assert all(type(k) is int for k in want)
    assert got.tolist() == want
    assert got.min() == 0 and got.max() == n_cells - 1


def test_sample_arm_falls_back_to_the_last_arm():
    # a draw above the probabilities' running total goes to the last arm
    assert kernels.sample_arm([0.5, 0.25, 0.125], 0.9) == 2
    assert sum([0.1] * 10) < 1.0 and kernels.sample_arm([0.1] * 10, 1.0) == 9
    assert kernels.sample_arm([0.5, 0.25, 0.125], 0.8) == 2  # covered by the last arm
    assert kernels.sample_arm([0.5, 0.25, 0.125], 0.5) == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_demand_kernel_rejects_non_finite_demand(bad):
    fam, p1, p2 = kernels.encode_suppliers((CostSpec.quadratic(0.5),))
    demands = np.array([0.7, bad, 0.9])
    with pytest.raises(ValueError, match="finite"):
        kernels.demand_trajectory(
            fam, p1, p2, demands, np.zeros(4), np.ones(4), np.full(4, 0.5),
            0.5, 0.25, 4, 0.01,
        )
    # the cell step itself, at one demand and on a path
    for d in (bad, demands):
        with pytest.raises(ValueError, match="^demands must be finite$"):
            kernels.cell_index(d, 0.5, 0.25, 4)


def _quadratic_ensemble(n, seed):
    """Seeded quadratic markets, half of the suppliers with a positive
    intercept, each with a demand its production at p = 1 covers."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    markets = []
    for _ in range(n):
        k = int(rng.integers(1, 5))
        intercepts = np.where(rng.uniform(size=k) < 0.5, 0.0, rng.uniform(0.0, 0.8, k))
        suppliers = tuple(
            CostSpec.quadratic(float(mu), a=float(a))
            for mu, a in zip(rng.uniform(0.05, 2.0, k), intercepts)
        )
        cap = aggregate_production(suppliers, 1.0).total
        markets.append((suppliers, float(rng.uniform(0.05, 0.95)) * cap))
    return markets


_ENSEMBLE = _quadratic_ensemble(12, seed=2718)


@pytest.mark.parametrize("T", [10_000, 1_000_000])
def test_fixed_kernel_whole_horizon_invariants(T):
    assert any(s.a > 0 for suppliers, _ in _ENSEMBLE for s in suppliers)
    for suppliers, d in _ENSEMBLE:
        fam, p1, p2 = kernels.encode_suppliers(suppliers)
        _, a, b, _, frozen, shrinks, resets = kernels.fixed_trajectory(fam, p1, p2, d, T)
        assert shrinks <= max_shrink_events(T)
        assert resets == 0
        assert a <= equilibrium_price(suppliers, d) <= b
        assert frozen


def test_demand_kernel_whole_horizon_shrink_bound():
    T = 100_000
    suppliers = (CostSpec.quadratic(0.5), CostSpec.quadratic(1.0))
    demands = np.random.Generator(np.random.Philox(key=202)).uniform(0.5, 1.5, T)
    grid = DemandGrid(0.5, 1.5, 1.0 / math.sqrt(T))
    state = make_demand_state(grid, T)
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    shrinks = kernels.demand_trajectory(
        fam, p1, p2, demands, state.s_lo, state.s_hi, state.eps,
        grid.d_lo, grid.gamma, grid.n_cells, state.freeze_width,
    )[5]
    assert 0 < shrinks <= max_total_shrinks(grid, T)


_quadratic_market = st.lists(
    st.builds(CostSpec.quadratic, mu=st.floats(0.05, 2.0), a=st.floats(0.0, 0.9)),
    min_size=1,
    max_size=4,
)
_linear_market = st.builds(
    CostSpec.linear, c=st.floats(0.01, 0.99), cap=st.floats(0.1, 3.0)
).map(lambda s: [s])
_markets = st.one_of(_quadratic_market, _linear_market)


@settings(max_examples=300, deadline=None)
@given(suppliers=_markets, p=st.one_of(st.floats(0.0, 1.0), st.just(-0.0)))
def test_supply_equals_aggregate_production_bit_for_bit(suppliers, p):
    # the trackers' Python-float supply is market's rule, summed alike
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    x = kernels.supply(fam.tolist(), p1.tolist(), p2.tolist(), p)
    assert x.hex() == aggregate_production(suppliers, p).total.hex()


@settings(max_examples=100, deadline=None)
@given(suppliers=_markets, d=st.floats(0.01, 3.0), T=st.integers(1, 300))
def test_fixed_kernel_equals_step_api_property(suppliers, d, T):
    # demands above production at p = 1 are drawn too: the kernel rejects
    # them, and on the rest neither side ever resets
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    if aggregate_production(suppliers, 1.0).total < d:
        with pytest.raises(ValueError, match="falls short of the demand"):
            kernels.fixed_trajectory(fam, p1, p2, d, T)
        return
    price, a, b, eps, frozen, shrinks, resets = kernels.fixed_trajectory(fam, p1, p2, d, T)
    ref_prices, ref, head = reference_fixed(suppliers, d, T)
    assert_fixed_head(price, ref_prices, head)
    assert (a, b, eps, frozen) == (ref.a, ref.b, ref.eps, ref.frozen)
    assert (shrinks, resets) == (ref.shrink_count, ref.resets) and resets == 0


@settings(max_examples=100, deadline=None)
@given(
    suppliers=_markets,
    d_lo=st.floats(0.01, 2.0),
    spread=st.floats(0.0, 1.5),
    gamma=st.floats(0.01, 1.0),
    freeze_width=st.floats(1e-4, 0.5),
    T=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
# a constant demand visits one cell: it freezes within the horizon, or not
@example(
    suppliers=[CostSpec.quadratic(0.5)], d_lo=0.3, spread=0.0, gamma=0.1, freeze_width=1e-3,
    T=200, seed=0,
)
@example(
    suppliers=[CostSpec.quadratic(0.5)], d_lo=0.3, spread=0.0, gamma=0.1, freeze_width=1e-4,
    T=3, seed=0,
)
def test_demand_kernel_equals_step_api_property(
    suppliers, d_lo, spread, gamma, freeze_width, T, seed
):
    grid = DemandGrid(d_lo, d_lo + spread, gamma)
    demands = np.random.Generator(np.random.Philox(key=seed)).uniform(
        grid.d_lo, grid.d_hi, T
    )
    state = make_demand_state(grid, T, freeze_width)
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    price, s_lo, s_hi, cell_prices, eps, shrinks = kernels.demand_trajectory(
        fam, p1, p2, demands, state.s_lo, state.s_hi, state.eps,
        grid.d_lo, grid.gamma, grid.n_cells, state.freeze_width,
    )
    # one cell visited in every period ends the prices at its first frozen
    # visit, and they stand for the path with the last one repeated
    cells = kernels.cell_index(demands, grid.d_lo, grid.gamma, grid.n_cells)
    head = T
    path = full_column(price, T)
    for t in range(T):
        if head == T and np.all(cells == cells[0]) and not kernels.cell_searching(
            state.s_lo, state.s_hi, cells[0], state.freeze_width
        ):
            head = t + 1
        x = aggregate_production(suppliers, cell_price(state, demands[t])).total
        offered, state = demand_step(state, demands[t], x)
        assert path[t] == offered
    assert price.shape == (head,)
    assert shrinks == state.shrink_count
    final = (state.s_lo, state.s_hi, state.price, state.eps)
    for got, want in zip((s_lo, s_hi, cell_prices, eps), final):
        assert np.array_equal(got, want)


def _contextual_setup(T, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    phi_true = np.array([1.5, 1.5, 1.0])
    members = [CostSpec.context_quadratic(tuple(phi_true))]
    for _ in range(5):
        members.append(
            CostSpec.context_quadratic(tuple(phi_true * rng.uniform(0.6, 1.4, 3)))
        )
    cls = FunctionClass(members=tuple(members), bound=9.0)
    demands = rng.uniform(0.5, 1.5, T)
    thetas = rng.uniform(0.5, 1.5, (T, 3))
    uniforms = rng.uniform(0.0, 1.0, T)
    return cls, phi_true, demands, thetas, uniforms


class _Replay:
    def __init__(self, draws):
        self.draws = iter(draws)

    def uniform(self):
        return float(next(self.draws))


def _assert_contextual_kernel_matches_ops(cls, phi_true, demands, thetas, uniforms, K, gamma):
    """The fused kernel on the harness's coefficient path and the step API,
    fed the same draws, agree bit for bit: arms, proxy, log-weights, member
    losses and forecast loss."""
    T = len(demands)
    member_u = cls.member_coefficients(thetas)
    grid_prices = np.linspace(0.0, 1.0, K)
    u_true = apply_feature_map("identity", thetas) @ phi_true
    log_w0 = np.full(len(cls), -math.log(len(cls)))
    eta = 2.0 / (cls.bound ** 2)
    arm, price, proxy, floss, lw, cml = kernels.contextual_trajectory(
        member_u, log_w0, eta, u_true, demands, uniforms, grid_prices, gamma
    )

    state = make_contextual_state(cls, K, gamma, eta=eta)
    replay = _Replay(uniforms)
    for t in range(T):
        p, state = contextual_step(state, thetas[t], demands[t], replay)
        x = float(p * u_true[t])
        state = contextual_observe(state, x)
        assert price[t] == p  # same arm from the same draw
        assert grid_prices[arm[t]] == p
        # the expected mismatch, summed in the kernel's order
        e = 0.0
        for q, gp in zip(state.last_distribution.probs, state.prices):
            e += q * abs(gp * u_true[t] - demands[t])
        assert proxy[t] == e
    assert state.oracle.clamped == 0  # the kernel has no [0, B] clamp
    assert np.array_equal(lw, state.oracle.log_weights)
    assert np.array_equal(cml, state.oracle.cum_member_loss)
    assert np.cumsum(floss)[-1] == state.oracle.cum_loss


def test_contextual_kernel_matches_ops():
    cls, phi_true, demands, thetas, uniforms = _contextual_setup(600, seed=82)
    _assert_contextual_kernel_matches_ops(
        cls, phi_true, demands, thetas, uniforms, K=9, gamma=40.0
    )


def _check_contextual_case(n_members, dim, misspecified, K, gamma, T, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    phis = rng.uniform(0.1, 2.0, (n_members, dim))
    phi_true = rng.uniform(0.1, 2.0, dim) if misspecified else phis[0]
    thetas = rng.uniform(0.5, 1.5, (T, dim))
    # B covers every member's and the truth's production at p = 1
    bound = rng.uniform(1.0, 2.0) * max(phis.sum(axis=1).max(), phi_true.sum()) * 1.5
    cls = FunctionClass(
        members=tuple(CostSpec.context_quadratic(tuple(phi)) for phi in phis),
        bound=float(bound),
    )
    demands = rng.uniform(0.1, 3.0, T)
    uniforms = rng.uniform(0.0, 1.0, T)
    _assert_contextual_kernel_matches_ops(cls, phi_true, demands, thetas, uniforms, K, gamma)
    return cls, thetas


@settings(max_examples=25, deadline=None)
@given(
    n_members=st.integers(1, 6),
    dim=st.integers(1, 4),
    misspecified=st.booleans(),
    K=st.integers(2, 40),
    log_gamma=st.floats(math.log(1e-2), math.log(1e5)),
    T=st.integers(1, 200),
    seed=st.integers(0, 2**32),
)
def test_contextual_kernel_equals_step_api_property(
    n_members, dim, misspecified, K, log_gamma, T, seed
):
    _check_contextual_case(n_members, dim, misspecified, K, math.exp(log_gamma), T, seed)


def test_contextual_kernel_equals_step_api_one_member_dim2():
    # A (1, 2) @ (2, 3) matrix product and np.dot per context disagreed in
    # the last bit on the second of these contexts.
    cls, thetas = _check_contextual_case(1, 2, False, K=5, gamma=10.0, T=3, seed=1)
    member_u = cls.member_coefficients(thetas)
    for t, theta in enumerate(thetas):
        assert np.array_equal(member_u[:, t], cls.member_coefficients(theta))
