import dataclasses
import importlib
import json
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqprice
from eqprice import harness
from eqprice.market import (
    COST_FIELDS,
    GENERATOR_FIELDS,
    OPTIONAL_KEYS,
    Allocation,
    CostSpec,
    FunctionClass,
    GeneratorSpec,
    InfeasibleMarket,
    InstanceSpec,
    MarketInstance,
    aggregate_production,
    best_response,
    context_coefficients,
    equilibrium_price,
    full_column,
)
from eqprice.features import apply_feature_map
from eqprice.oracle import OracleState, make_oracle_state
from eqprice.policy_contextual import (
    ContextualPolicyState, IgwDistribution, igw_distribution, make_contextual_state
)
from eqprice.policy_demand import DemandGrid, DemandPolicyState, make_demand_state

#: Exact clearing prices meet the demand and the first-order conditions to
#: within a few units of float64 rounding.
KKT_TOL = 1e-12


# --- best responses -------------------------------------------------------

def test_best_response_quadratic_matches_closed_form():
    # x*(p) = 4p for cost x^2/8, so p = 1/4 clears exactly one unit
    assert best_response(CostSpec.quadratic(0.25), 0.25) == pytest.approx(1.0)


def test_best_response_linear_below_cost_is_zero():
    assert best_response(CostSpec.linear(c=0.5, cap=2.0), 0.3) == 0.0


def test_best_response_linear_at_and_above_cost_is_cap():
    s = CostSpec.linear(c=0.5, cap=2.0)
    assert best_response(s, 0.5) == 2.0  # tie rule: produce the cap
    assert best_response(s, 0.7) == 2.0


def test_best_response_clips_below_intercept():
    assert best_response(CostSpec.quadratic(1.0, a=0.5), 0.3) == 0.0


def test_best_response_contextual():
    s = CostSpec.context_quadratic(phi=(1.0, 2.0))
    theta = np.array([0.5, 0.25])
    # u = 0.5 + 0.5 = 1.0, so x*(p) = p
    assert best_response(s, 0.4, theta) == pytest.approx(0.4)


def test_best_response_requires_context_for_contextual():
    s = CostSpec.context_quadratic(phi=(1.0,))
    with pytest.raises(ValueError):
        best_response(s, 0.5)


def test_best_response_rejects_price_outside_unit_interval():
    with pytest.raises(ValueError):
        best_response(CostSpec.quadratic(1.0), 1.5)
    with pytest.raises(ValueError):
        best_response(CostSpec.quadratic(1.0), -0.1)


#: Prices that numpy would convert, with the value each refusal names: a
#: string, bytes or bool, as one value or as an entry.
NOT_PRICES = [
    ("0.5", "'0.5'"), (b"0.5", "b'0.5'"), (True, "True"), (np.True_, "np.True_"),
    ([0.5, True], "True"), ([0.5, "0.5"], "'0.5'"), ([[0.5], [True]], "True"),
    (np.array([0.5, False], dtype=object), "False"), (np.array(["0.5"]), "'0.5'"),
    (np.array([True, False]), "True"),
]


@pytest.mark.parametrize("p, named", NOT_PRICES)
def test_best_response_refuses_a_string_or_bool_price(p, named):
    # best_response(q, "0.5") gave 1.0 and best_response(q, True) gave 2.0
    with pytest.raises(ValueError, match=rf"^price must be a number, got {re.escape(named)}$"):
        best_response(CostSpec.quadratic(0.5), p)


@st.composite
def _spec_theta_prices(draw):
    """A supplier of any family, a context it keeps positive, and prices in
    [0, 1]: -0.0 among them, and a linear supplier's c with its neighbours,
    so that its step is priced at, just above and just below c."""
    unit = st.floats(0.0, 1.0)
    kind = draw(st.sampled_from(["quadratic", "intercept", "linear", "contextual"]))
    theta = None
    extra = [-0.0]
    if kind == "quadratic":
        spec = CostSpec.quadratic(draw(st.floats(1e-3, 10.0)))
    elif kind == "intercept":
        spec = CostSpec.quadratic(draw(st.floats(1e-3, 10.0)), draw(st.floats(0.0, 1.5)))
    elif kind == "linear":
        c = draw(st.floats(1e-6, 1.0))
        spec = CostSpec.linear(c, draw(st.floats(1e-3, 10.0)))
        extra += [c, np.nextafter(c, 0.0), min(np.nextafter(c, 2.0), 1.0)]
    else:
        positive = st.floats(0.05, 3.0)
        dim = draw(st.integers(1, 4))
        spec = CostSpec.context_quadratic(draw(st.lists(positive, min_size=dim, max_size=dim)))
        theta = np.array(draw(st.lists(positive, min_size=dim, max_size=dim)))
    prices = draw(st.lists(unit, max_size=20)) + extra
    return spec, theta, np.array(draw(st.permutations(prices)))


@settings(max_examples=400, deadline=None)
@given(_spec_theta_prices())
def test_array_supply_and_cost_equal_scalar_calls_bit_for_bit(case):
    spec, theta, prices = case
    x = best_response(spec, prices, theta)
    assert isinstance(x, np.ndarray) and x.shape == prices.shape
    one = [best_response(spec, float(p), theta) for p in prices]
    assert all(type(v) is float for v in one)
    assert np.array_equal(x.view(np.int64), np.array(one).view(np.int64))
    cost = spec.cost(x, theta)
    assert np.array_equal(
        cost.view(np.int64), np.array([spec.cost(v, theta) for v in one]).view(np.int64)
    )
    # and a market of the supplier twice sums them in supplier order from 0.0
    total = aggregate_production((spec, spec), prices, theta).total
    one_total = [aggregate_production((spec, spec), float(p), theta).total for p in prices]
    assert np.array_equal(total.view(np.int64), np.array(one_total).view(np.int64))


@pytest.mark.parametrize("bad", [1.5, -0.25, math.nan])
def test_best_response_array_names_the_price_outside_unit_interval(bad):
    prices = np.linspace(0.0, 1.0, 1001)
    prices[417] = bad
    with pytest.raises(ValueError, match=r"^price must lie in \[0, 1\], got (\S+)$") as err:
        best_response(CostSpec.quadratic(1.0), prices)
    assert float(str(err.value).rsplit(" ", 1)[1]) == pytest.approx(bad, nan_ok=True)
    with pytest.raises(ValueError, match="price must lie in"):
        aggregate_production([CostSpec.linear(0.5, 1.0)], prices.tolist())


def test_cost_array_names_the_negative_quantity():
    x = np.linspace(0.0, 2.0, 1001)
    x[3] = -0.5
    with pytest.raises(ValueError, match=r"^production quantity must be >= 0, got -0.5$"):
        CostSpec.quadratic(1.0).cost(x)


# --- aggregation ----------------------------------------------------------

def test_aggregate_production_closed_form():
    sup = [CostSpec.quadratic(1.0), CostSpec.quadratic(2.0)]
    alloc = aggregate_production(sup, 1.0)
    assert alloc.total == pytest.approx(1.0 / 1.0 + 1.0 / 2.0)
    assert alloc.total == pytest.approx(sum(alloc.per_supplier))


def test_aggregate_production_zero_price():
    sup = [CostSpec.quadratic(0.7, a=0.1), CostSpec.quadratic(2.0)]
    assert aggregate_production(sup, 0.0).total == 0.0


def test_aggregate_production_half_unit():
    # production 4p at p = 1/8 is one half
    assert aggregate_production([CostSpec.quadratic(0.25)], 0.125).total == pytest.approx(0.5)


def test_aggregate_monotone_in_price():
    rng = np.random.Generator(np.random.Philox(key=11))
    sup = [
        CostSpec.quadratic(0.3, a=0.2),
        CostSpec.quadratic(1.2),
        CostSpec.linear(c=0.6, cap=1.0),
    ]
    for _ in range(500):
        p1, p2 = sorted(rng.uniform(0.0, 1.0, 2))
        assert aggregate_production(sup, p1).total <= aggregate_production(sup, p2).total + 1e-15


# --- clearing price -------------------------------------------------------

def test_equilibrium_price_paper_instances():
    assert equilibrium_price([CostSpec.quadratic(0.25)], 1.0) == pytest.approx(0.25, abs=1e-12)
    assert equilibrium_price([CostSpec.quadratic(0.125)], 1.0) == pytest.approx(0.125, abs=1e-12)


def test_equilibrium_price_two_suppliers_closed_form():
    # p* = d / sum(1/mu)
    p = equilibrium_price([CostSpec.quadratic(1.0), CostSpec.quadratic(2.0)], 1.5)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_price_production_matches_demand():
    sup = [CostSpec.quadratic(0.4, a=0.1), CostSpec.quadratic(0.9)]
    p = equilibrium_price(sup, 1.3)
    assert abs(aggregate_production(sup, p).total - 1.3) <= KKT_TOL


def test_equilibrium_price_rejects_linear():
    with pytest.raises(ValueError):
        equilibrium_price([CostSpec.linear(c=0.5, cap=2.0)], 1.0)


def test_equilibrium_price_infeasible():
    with pytest.raises(InfeasibleMarket):
        equilibrium_price([CostSpec.quadratic(10.0)], 5.0)


@pytest.mark.parametrize(
    "suppliers, theta",
    [
        ([CostSpec.quadratic(m, a) for m, a in ((0.3, 0.0), (0.8, 0.1), (1.5, 0.3))], None),
        (
            [
                CostSpec.quadratic(0.6, 0.2),
                CostSpec.context_quadratic((0.5, 0.25)),
                CostSpec.context_quadratic((0.3, 0.2, 0.4), "tanh_affine"),
            ],
            (0.7, -1.2),
        ),
    ],
    ids=["quadratic", "contextual"],
)
def test_equilibrium_price_array_matches_scalar(suppliers, theta):
    rng = np.random.Generator(np.random.Philox(key=5))
    cap = aggregate_production(suppliers, 1.0, theta).total
    demands = np.append(rng.uniform(0.05, cap, 64), cap)  # at capacity too
    prices = equilibrium_price(suppliers, demands, theta)
    assert prices.shape == demands.shape and prices[-1] == 1.0
    for d, p in zip(demands, prices):
        assert p == equilibrium_price(suppliers, d, theta)  # element-for-element identical
    grid = equilibrium_price(suppliers, demands.reshape(5, 13), theta)
    assert np.array_equal(grid.ravel(), prices)


def test_equilibrium_price_array_checks_every_demand():
    sup = [CostSpec.quadratic(0.5)]  # production 2 at p = 1
    for bad in ([0.5, 0.0], [0.5, -1.0], [0.5, math.nan]):
        with pytest.raises(ValueError, match="positive"):
            equilibrium_price(sup, np.array(bad))
    # the message names the largest demand, not the array
    with pytest.raises(InfeasibleMarket, match=r"below demand 3\.5;"):
        equilibrium_price(sup, np.array([0.5, 3.5, 2.5]))


def marginal_cost(s: CostSpec, x: float, theta=None) -> float:
    """d cost(x) / dx of a quadratic or contextual supplier."""
    if s.family == "quadratic":
        return s.mu * x + s.a
    return x / s.coefficient(theta)


def test_kkt_consistency_at_equilibrium():
    rng = np.random.Generator(np.random.Philox(key=21))
    for _ in range(200):
        n = rng.integers(1, 5)
        sup = [
            CostSpec.quadratic(rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.5))
            for _ in range(n)
        ]
        cap = aggregate_production(sup, 1.0).total
        if cap <= 0.05:
            continue
        d = rng.uniform(0.05, cap)
        p = equilibrium_price(sup, d)
        alloc = aggregate_production(sup, p)
        for s, x in zip(sup, alloc.per_supplier):
            if x > 0:
                assert abs(marginal_cost(s, x) - p) <= KKT_TOL
            else:
                assert marginal_cost(s, 0.0) >= p - KKT_TOL


_quadratic = st.builds(
    CostSpec.quadratic, mu=st.floats(0.05, 2.0), a=st.floats(0.0, 0.9)
)
_contextual = st.builds(
    CostSpec.context_quadratic, phi=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=2)
)


@settings(max_examples=300, deadline=None)
@given(
    sup=st.lists(st.one_of(_quadratic, _contextual), min_size=1, max_size=5),
    theta=st.lists(st.floats(0.5, 1.5), min_size=2, max_size=2),
    frac=st.floats(1e-6, 1.0),
)
def test_clearing_price_kkt_mixed_markets(sup, theta, frac):
    theta = np.array(theta)
    d = frac * aggregate_production(sup, 1.0, theta).total
    p = equilibrium_price(sup, d, theta)
    alloc = aggregate_production(sup, p, theta)
    assert abs(alloc.total - d) <= KKT_TOL
    for s, x in zip(sup, alloc.per_supplier):
        if x > 0:
            assert abs(marginal_cost(s, x, theta) - p) <= KKT_TOL
        else:
            assert marginal_cost(s, 0.0, theta) >= p - KKT_TOL


# --- Lipschitz properties -------------------------------------------------

def test_production_lipschitz_in_price():
    rng = np.random.Generator(np.random.Philox(key=33))
    specs = [
        CostSpec.quadratic(0.2),
        CostSpec.quadratic(0.7, a=0.3),
        CostSpec.context_quadratic(phi=(0.8, 0.6)),
    ]
    theta = np.array([1.0, 0.5])
    moduli = [0.2, 0.7, 1.0 / (0.8 * 1.0 + 0.6 * 0.5)]
    n_pairs = 10_000
    p1 = rng.uniform(0.0, 1.0, n_pairs)
    p2 = rng.uniform(0.0, 1.0, n_pairs)
    for s, mu in zip(specs, moduli):
        for i in range(n_pairs):
            lhs = abs(best_response(s, p1[i], theta) - best_response(s, p2[i], theta))
            assert lhs <= (1.0 / mu) * abs(p1[i] - p2[i]) + 1e-12


def test_price_lipschitz_in_demand():
    rng = np.random.Generator(np.random.Philox(key=34))
    mus = np.array([0.4, 0.8, 1.6])
    ints = np.zeros(3)
    inv_sum = float(np.sum(1.0 / mus))
    d1 = rng.uniform(0.1, 2.0, 2000)
    d2 = rng.uniform(0.1, 2.0, 2000)
    sup = [CostSpec.quadratic(m, a) for m, a in zip(mus, ints)]
    ps1 = equilibrium_price(sup, d1)
    ps2 = equilibrium_price(sup, d2)
    gap = np.abs(ps1 - ps2)
    exact = np.abs(d1 - d2) / inv_sum
    assert np.all(np.abs(gap - exact) <= 1e-8)
    # the generic constant is 2 / (dual curvature) = 2 / sum(1/mu)
    assert np.all(gap <= 2.0 / inv_sum * np.abs(d1 - d2) + 1e-8)


# --- regret columns -------------------------------------------------------

def one_period(cost, p, d=1.0):
    """Regret columns of posting ``p`` once against demand ``d``."""
    inst = MarketInstance(
        suppliers=(cost,), demands=np.array([d]), contexts=None, horizon=1,
        demand_bounds=(d, d),
    )
    cols = inst.regret_columns(np.array([p]))
    return cols["unmet_inc"][0], cols["cost_inc"][0], cols["pay_inc"][0]


def test_regret_columns_zero_at_equilibrium():
    sup = CostSpec.quadratic(0.25)
    assert one_period(sup, equilibrium_price([sup], 1.0)) == (0.0, 0.0, 0.0)


def test_regret_columns_payment_regret_above_equilibrium():
    # payment regret p(4p) - 1/4 at p = 1/2 is 0.75
    assert one_period(CostSpec.quadratic(0.25), 0.5)[2] == 0.75


def test_regret_columns_unmet_below_equilibrium():
    # unmet demand 1 - 4p at p = 1/8 is one half
    assert one_period(CostSpec.quadratic(0.25), 0.125)[0] == 0.5


def test_regret_columns_signs_follow_price_gap():
    # supply rises strictly in p here, so a price above the clearing price
    # overpays and overproduces, and one below leaves demand unmet
    rng = np.random.Generator(np.random.Philox(key=55))
    sup = (CostSpec.quadratic(0.5, a=0.1), CostSpec.quadratic(1.1))
    T = 300
    demands = rng.uniform(0.2, 1.0, T)
    prices = rng.uniform(0.0, 1.0, T)
    inst = MarketInstance(
        suppliers=sup, demands=demands, contexts=None, horizon=T, demand_bounds=(0.2, 1.0)
    )
    cols = inst.regret_columns(prices)
    p_stars = equilibrium_price(sup, demands)
    gap = np.sign(prices - p_stars)
    assert np.all(cols["unmet_inc"] >= 0.0)
    assert np.array_equal(cols["unmet_inc"] > 0.0, gap < 0)
    assert np.array_equal(np.sign(cols["pay_inc"]), gap)
    assert np.array_equal(np.sign(cols["cost_inc"]), gap)


def _one_demand_market(suppliers, d, T):
    return MarketInstance(
        suppliers=suppliers, demands=np.full(T, d), contexts=None, horizon=T,
        demand_bounds=(d, d),
    )


#: Price heads and the horizon each stands for.
_RUN_HEADS = {
    "probe-runs": (
        np.repeat([0.1, 0.3, 0.3000000000000001, 0.55, 0.7, 0.55], [3, 1, 4, 2, 7, 5]), 30
    ),
    "constant": (np.full(1, 0.62), 40),
    "no-repeats": (np.random.Generator(np.random.Philox(key=31)).uniform(0.0, 1.0, 50), 50),
    "signed-zeros": (np.array([0.0, -0.0, -0.0, 0.0, 0.4, 0.0, -0.0]), 9),
    "one-period": (np.array([0.8]), 1),
    # a head that itself ends in a long run of equal prices, over several
    # 2**16-value chunks
    "multi-chunk-tail": (np.repeat([0.2, 0.45, 0.3], [5, 7, 3 * 2**16 + 11]), 3 * 2**16 + 40),
    # a short head that stands for a chunk of 2**16 periods more
    "head-at-chunk-edge": (np.repeat([0.1, 0.7, 0.35], [4, 9, 1]), 13 + 2**16),
}


@pytest.mark.parametrize("path", list(_RUN_HEADS), ids=list(_RUN_HEADS))
@pytest.mark.parametrize(
    "suppliers, d",
    [
        ((CostSpec.quadratic(0.3, a=0.05), CostSpec.quadratic(0.8, a=0.2)), 1.1),
        ((CostSpec.linear(c=0.4, cap=2.0),), 1.0),
    ],
    ids=["quadratic-intercepts", "linear"],
)
def test_regret_columns_per_run_match_per_period(suppliers, d, path):
    # a constant-demand market returns the heads of every column, price and
    # demand too, as long as the price head it is given; every full column
    # must be bit for bit the one-period market's, period by period, on
    # heads with repeated prices too
    head, T = _RUN_HEADS[path]
    cols = _one_demand_market(suppliers, d, T).regret_columns(head)
    assert set(cols) == {"demand", "price", "production", "unmet_inc", "cost_inc", "pay_inc"}
    k = len(head)
    assert all(c.shape == (k,) for c in cols.values())
    if k == T:
        assert cols["price"] is head
    else:  # a copy of the head: the record pins no buffer of the runner's
        assert not np.may_share_memory(cols["price"], head)
        assert cols["price"].tobytes() == head.tobytes()
    # the one-period market's columns at each distinct price (by bits),
    # placed at every period that posts it
    prices = full_column(head, T)
    _, first, where = np.unique(prices.view(np.int64), return_index=True, return_inverse=True)
    one = [_one_demand_market(suppliers, d, 1).regret_columns(prices[t : t + 1]) for t in first]
    for name in cols:
        want = np.concatenate([c[name] for c in one])[where]
        col = full_column(cols[name], T)
        assert col.shape == (T,)
        bad = np.flatnonzero(col.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, (name, bad[:1], prices[bad[:1]])


def test_regret_columns_reject_bad_price_paths():
    inst = MarketInstance(
        suppliers=(CostSpec.quadratic(0.5),), demands=np.ones(3), contexts=None,
        horizon=3, demand_bounds=(1.0, 1.0),
    )
    # a head holds 1 to T prices in one dimension
    for prices, shape in (
        (np.array([]), "(0,)"), (np.full(4, 0.5), "(4,)"), (np.full((1, 3), 0.5), "(1, 3)"),
        (np.float64(0.5), "()"),
    ):
        named = rf"^a price head holds 1 to 3 prices, got shape {re.escape(shape)}$"
        with pytest.raises(ValueError, match=named):
            inst.regret_columns(prices)
    # every price of the head is checked, the last one too
    for prices, first in (
        ([0.5, 1.5, 0.5], "1.5"), ([0.5, -0.1, 0.5], "-0.1"), ([0.5, math.nan, 0.5], "nan"),
        ([0.5, 1.5, 1.5], "1.5"), ([0.5, math.nan, math.nan], "nan"), ([math.nan] * 3, "nan"),
        ([0.5, 2.0], "2.0"), ([-0.5], "-0.5"),
    ):
        with pytest.raises(ValueError, match=rf"^price must lie in \[0, 1\], got {first}$"):
            inst.regret_columns(np.array(prices))


@pytest.mark.parametrize("contextual", [False, True], ids=["quadratic", "contextual"])
def test_one_price_head_on_a_varying_demand_market_reads_as_the_full_path(contextual):
    # a market whose periods clear differently prices the head repeated up to
    # T: every column is bit for bit the one of the full price path
    rng = np.random.Generator(np.random.Philox(key=8))
    T = 500
    demands = rng.uniform(0.4, 0.9, T)
    if contextual:
        suppliers = (CostSpec.context_quadratic((1.0, 1.0)),)
        contexts = rng.uniform(0.5, 1.5, (T, 2))
    else:
        suppliers, contexts = (CostSpec.quadratic(0.5, a=0.1), CostSpec.quadratic(1.1)), None
    inst = MarketInstance(
        suppliers=suppliers, demands=demands, contexts=contexts, horizon=T,
        demand_bounds=(0.4, 0.9),
    )
    p = 0.61
    head, full = inst.regret_columns(np.full(1, p)), inst.regret_columns(np.full(T, p))
    assert list(head) == list(full)
    for name, col in head.items():
        assert col.shape == (T,)
        assert col.tobytes() == full[name].tobytes(), name


@pytest.mark.parametrize("prices, named", [
    (["0.5", "0.5", "0.5"], "'0.5'"), ([0.5, True, 0.5], "True"), ([0.5, 0.5, b"1"], "b'1'"),
    (np.array([True, True, True]), "True"), ((0.5, 0.5, True), "True"),
])
def test_regret_columns_refuse_a_string_or_bool_price(prices, named):
    # the path was read with np.asarray(prices, float64), which parsed "0.5"
    # and read True as 1.0; a bool anywhere in the head is refused
    inst = MarketInstance(
        suppliers=(CostSpec.quadratic(0.5),), demands=np.ones(3), contexts=None,
        horizon=3, demand_bounds=(1.0, 1.0),
    )
    with pytest.raises(ValueError, match=rf"^price must be a number, got {re.escape(named)}$"):
        inst.regret_columns(prices)


def test_capacity_at_one_matches_scalar_reference():
    # the instance's feasibility rule uses production at p = 1 from the same
    # pass as the regret columns; it must agree bitwise with the scalar
    # best responses summed in supplier order
    rng = np.random.Generator(np.random.Philox(key=77))
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        sup = tuple(
            CostSpec.quadratic(
                rng.uniform(0.05, 3.0), a=rng.uniform(0.0, 1.2) * (rng.uniform() < 0.5)
            )
            for _ in range(n)
        )
        cap = aggregate_production(sup, 1.0).total
        if cap <= 0.0:
            continue
        inst = MarketInstance(
            suppliers=sup, demands=np.array([cap]), contexts=None, horizon=1,
            demand_bounds=(cap, cap),
        )
        assert inst.regret_columns(np.ones(1))["production"][0] == cap
        above = float(np.nextafter(cap, np.inf))
        with pytest.raises(InfeasibleMarket):
            MarketInstance(
                suppliers=sup, demands=np.array([above]), contexts=None, horizon=1,
                demand_bounds=(above, above),
            )


@pytest.mark.parametrize(
    "suppliers, mix",
    [
        ((CostSpec.quadratic(0.5), CostSpec.quadratic(1.0, a=0.1)), "quadratic"),
        ((CostSpec.linear(c=0.4, cap=2.0),), "linear"),
        (
            (CostSpec.context_quadratic((1.0,)), CostSpec.context_quadratic((0.5,))),
            "context_quadratic",
        ),
    ],
)
def test_instance_fixes_supplier_mix(suppliers, mix):
    inst = MarketInstance(
        suppliers=suppliers, demands=np.full(2, 0.5), contexts=np.array([[1.0], [2.0]]),
        horizon=2, demand_bounds=(0.5, 0.5),
    )
    assert inst.mix == mix
    if mix == "context_quadratic":
        assert np.array_equal(inst.coefficients, [1.5, 3.0])
    else:
        assert inst.coefficients is None
    # every period clears alike on a quadratic or linear market with a
    # constant demand only
    assert inst.price_only is (mix != "context_quadratic")
    varying = MarketInstance(
        suppliers=suppliers, demands=np.array([0.5, 0.6]), contexts=np.array([[1.0], [2.0]]),
        horizon=2, demand_bounds=(0.5, 0.6),
    )
    assert varying.price_only is False


@pytest.mark.parametrize(
    "suppliers",
    [
        (CostSpec.quadratic(0.5), CostSpec.linear(c=0.4, cap=2.0)),
        (CostSpec.linear(c=0.4, cap=2.0), CostSpec.linear(c=0.6, cap=2.0)),
        (CostSpec.quadratic(0.5), CostSpec.context_quadratic((1.0,))),
        (),
    ],
)
def test_unsupported_supplier_mix_rejected_at_materialize(suppliers):
    spec = InstanceSpec(
        suppliers=suppliers,
        demands=GeneratorSpec(kind="constant", value=0.5),
        contexts=GeneratorSpec(kind="uniform_cube", lo=0.5, hi=1.5, dim=1),
        horizon=4,
    )
    with pytest.raises(ValueError, match="support"):
        spec.materialize(np.random.Generator(np.random.Philox(key=0)))


# --- non-finite inputs -----------------------------------------------------

NON_FINITE_COSTS = [
    {"family": "quadratic", "mu": math.inf, "a": 0.0},
    {"family": "quadratic", "mu": math.nan, "a": 0.0},
    {"family": "quadratic", "mu": 1.0, "a": math.nan},
    {"family": "quadratic", "mu": 1.0, "a": math.inf},
    {"family": "linear", "c": math.inf, "cap": 2.0},
    {"family": "linear", "c": math.nan, "cap": 2.0},
    {"family": "linear", "c": 0.4, "cap": math.inf},
    {"family": "linear", "c": 0.4, "cap": math.nan},
    {"family": "context_quadratic", "phi": [0.5, math.nan]},
    {"family": "context_quadratic", "phi": [math.inf, 0.5]},
    {"family": "context_quadratic", "phi": [0.5, -math.inf]},
]


@pytest.mark.parametrize("doc", NON_FINITE_COSTS, ids=lambda d: json.dumps(d))
def test_cost_spec_rejects_non_finite_parameters(doc):
    # an instance file may spell these NaN and Infinity; json reads them
    with pytest.raises(ValueError, match="finite"):
        CostSpec.from_json_dict(json.loads(json.dumps(doc)))
    fields = {k: tuple(v) if k == "phi" else v for k, v in doc.items()}
    with pytest.raises(ValueError, match="finite"):
        CostSpec(**fields)


@pytest.mark.parametrize(
    "demands",
    [
        [1.0, math.nan, 1.0],
        [1.0, math.inf, 1.0],
        {"kind": "constant", "value": math.nan},
    ],
    ids=["explicit-nan", "explicit-inf", "constant-nan"],
)
def test_instance_rejects_non_finite_demands(demands):
    # declared bounds skip the min/max defaults, so only the finiteness
    # checks stand between a NaN demand and the run (a generator's own
    # check fires when the spec is read, an explicit array's when the
    # instance is materialised)
    doc = {
        "suppliers": [{"family": "quadratic", "mu": 0.5, "a": 0.0}],
        "demands": demands,
        "horizon": 3,
        "demand_bounds": [0.5, 1.5],
    }
    with pytest.raises(ValueError, match="finite"):
        spec = InstanceSpec.from_json_dict(doc)
        spec.materialize(np.random.Generator(np.random.Philox(key=0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_instance_rejects_non_finite_contexts(bad):
    with pytest.raises(ValueError, match="finite"):
        MarketInstance(
            suppliers=(CostSpec.context_quadratic(phi=(1.0,)),),
            demands=np.full(2, 0.1),
            contexts=np.array([[1.0], [bad]]),
            horizon=2,
            demand_bounds=(0.1, 0.1),
        )


def test_instance_rejects_infinite_demand_bound():
    with pytest.raises(ValueError, match="demand bounds"):
        MarketInstance(
            suppliers=(CostSpec.quadratic(0.5),), demands=np.ones(2), contexts=None,
            horizon=2, demand_bounds=(0.5, math.inf),
        )


# --- instances and serialization -----------------------------------------

def test_instance_round_trip_lossless():
    spec = InstanceSpec(
        suppliers=(
            CostSpec.quadratic(1 / 3, a=0.1),
            CostSpec.context_quadratic(phi=(0.123456789012345, 2 / 7), feature_map_id="tanh_affine"),
        ),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        contexts=GeneratorSpec(kind="uniform_cube", lo=0.5, hi=1.5, dim=1),
        horizon=100,
        class_bound=6.0,
        function_class=(
            {"family": "context_quadratic", "phi": [0.5, 0.25], "feature_map_id": "tanh_affine"},
            {"family": "context_quadratic", "phi": [0.7, 0.1], "feature_map_id": "tanh_affine"},
        ),
    )
    again = InstanceSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert again == spec
    # float fields survive a second trip through text exactly
    assert json.dumps(again.to_json_dict()) == json.dumps(spec.to_json_dict())


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_nonneg = st.floats(min_value=0.0, allow_infinity=False)
_feature_maps = st.sampled_from(["identity", "tanh_affine"])
_costs = st.one_of(
    st.builds(CostSpec.quadratic, _positive, _nonneg),
    st.builds(CostSpec.linear, _positive, _positive),
    st.builds(
        CostSpec.context_quadratic, st.lists(_finite, min_size=1, max_size=4), _feature_maps
    ),
)
_constant = st.builds(GeneratorSpec, kind=st.just("constant"), value=_finite)
_ordered = st.tuples(_finite, _finite).map(sorted)
_uniform = _ordered.map(lambda b: GeneratorSpec(kind="uniform", lo=b[0], hi=b[1]))
_cube = st.builds(
    lambda b, dim: GeneratorSpec(kind="uniform_cube", lo=b[0], hi=b[1], dim=dim),
    _ordered, st.integers(1, 6),
)
_rows = st.lists(st.tuples(_finite, _finite), min_size=1, max_size=5).map(tuple)
_members = st.builds(
    lambda phi, fmap: CostSpec.context_quadratic(phi, fmap).to_json_dict(),
    st.lists(_finite, min_size=1, max_size=4), _feature_maps,
)


@settings(max_examples=300, deadline=None)
@given(
    suppliers=st.lists(_costs, min_size=1, max_size=4).map(tuple),
    demands=st.one_of(_constant, _uniform, st.lists(_finite, min_size=1, max_size=5).map(tuple)),
    horizon=st.integers(1, 10**7),
    contexts=st.one_of(st.none(), _cube, _rows),
    demand_bounds=st.one_of(st.none(), st.tuples(_finite, _finite)),
    function_class=st.one_of(st.none(), st.lists(_members, min_size=1, max_size=3).map(tuple)),
    class_bound=st.one_of(st.none(), _finite),
)
def test_instance_json_round_trip_property(
    suppliers, demands, horizon, contexts, demand_bounds, function_class, class_bound
):
    spec = InstanceSpec(
        suppliers=suppliers, demands=demands, horizon=horizon, contexts=contexts,
        demand_bounds=demand_bounds, function_class=function_class, class_bound=class_bound,
    )
    text = json.dumps(spec.to_json_dict())
    again = InstanceSpec.from_json_dict(json.loads(text))
    assert again == spec
    assert json.dumps(again.to_json_dict()) == text


# --- reading: every key checked ----------------------------------------------

_QUADRATIC_DOC = {"family": "quadratic", "mu": 1.0}
_INSTANCE_DOC = {
    "suppliers": [_QUADRATIC_DOC],
    "demands": {"kind": "uniform", "lo": 0.5, "hi": 1.5},
    "horizon": 10,
}


@pytest.mark.parametrize(
    "cls, doc, key",
    [
        # each was read as if absent: a = 0, c dropped, dim ignored, and the
        # generator's bounds used
        (CostSpec, {**_QUADRATIC_DOC, "intercept": 0.3}, "intercept"),
        (CostSpec, {**_QUADRATIC_DOC, "c": 0.3}, "c"),
        (GeneratorSpec, {"kind": "uniform", "lo": 0.5, "hi": 1.5, "dim": 3}, "dim"),
        (InstanceSpec, {**_INSTANCE_DOC, "demand_bound": [0.25, 2.0]}, "demand_bound"),
        # a field of another family or kind is refused at its default too
        (CostSpec, {**_QUADRATIC_DOC, "feature_map_id": "identity"}, "feature_map_id"),
        (GeneratorSpec, {"kind": "constant", "value": 1.0, "lo": 0.0}, "lo"),
        (CostSpec, {"family": "linear", "c": 0.4, "cap": 2.0, "phi": [1.0]}, "phi"),
        # and inside an instance, wherever the record sits
        (InstanceSpec, {**_INSTANCE_DOC, "suppliers": [{**_QUADRATIC_DOC, "mu_": 2}]}, "mu_"),
        (
            InstanceSpec,
            {**_INSTANCE_DOC, "function_class": [{"family": "context_quadratic", "phi": [1.0],
                                                   "feature_map": "identity"}]},
            "feature_map",
        ),
        (
            InstanceSpec,
            {**_INSTANCE_DOC, "contexts": {"kind": "uniform_cube", "lo": 0, "hi": 1, "dim": 1,
                                           "value": 2}},
            "value",
        ),
    ],
)
def test_reader_rejects_unknown_keys(cls, doc, key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        cls.from_json_dict(doc)


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda: CostSpec(family="quadratic", mu=1.0, c=0.3), "c"),
        (lambda: CostSpec(family="linear", c=0.4, cap=2.0, feature_map_id="tanh_affine"),
         "feature_map_id"),
        (lambda: CostSpec(family="context_quadratic", phi=(1.0,), mu=2.0), "mu"),
        (lambda: GeneratorSpec(kind="uniform", lo=0.5, hi=1.5, dim=3), "dim"),
        (lambda: GeneratorSpec(kind="uniform_cube", lo=0.5, hi=1.5, dim=1, value=1.0), "value"),
    ],
)
def test_constructor_rejects_foreign_parameters(make, key):
    with pytest.raises(ValueError, match=f"does not read '{key}'"):
        make()


def test_unknown_family_or_kind_is_named_first():
    with pytest.raises(ValueError, match="unknown cost family 'cubic'"):
        CostSpec.from_json_dict({"family": "cubic", "k": 1.0})
    with pytest.raises(ValueError, match="unknown generator kind 'normal'"):
        GeneratorSpec.from_json_dict({"kind": "normal", "sigma": 1.0})


@pytest.mark.parametrize(
    "field, generator",
    [
        ("demands", GeneratorSpec(kind="uniform_cube", lo=0.5, hi=1.5, dim=1)),
        ("contexts", GeneratorSpec(kind="constant", value=1.0)),
        ("contexts", GeneratorSpec(kind="uniform", lo=0.5, hi=1.5)),
    ],
)
def test_generator_in_the_wrong_field_is_named(field, generator):
    # refused when the spec is built, before any run draws from it
    doc = {"suppliers": (CostSpec.quadratic(1.0),), "demands": (0.5,), "horizon": 1}
    with pytest.raises(ValueError, match=f"^{field} takes a .* generator, got '{generator.kind}'$"):
        InstanceSpec(**{**doc, field: generator})


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind, row in GENERATOR_FIELDS.items() for key in row[1:]],
)
def test_generator_document_lacking_a_key_of_its_kind_is_named(kind, key):
    # a dropped key would read as its default 0.0: contexts drawn from
    # [0, hi), or demands refused later under the bounds rule, not the key
    full = {"kind": kind, "value": 1.0, "lo": 0.5, "hi": 1.5, "dim": 2}
    doc = {k: full[k] for k in GENERATOR_FIELDS[kind] if k != key}
    with pytest.raises(ValueError, match=f"document of kind '{kind}' lacks the key '{key}'$"):
        GeneratorSpec.from_json_dict(doc)
    field = "contexts" if kind == "uniform_cube" else "demands"
    with pytest.raises(ValueError, match=f"^{field}: GeneratorSpec document of kind '{kind}'"):
        InstanceSpec.from_json_dict({**_INSTANCE_DOC, field: doc})


_COST_VALUES = {
    "mu": 1.0, "a": 0.1, "c": 0.4, "cap": 2.0, "phi": [1.0], "feature_map_id": "identity",
}


@pytest.mark.parametrize(
    "family, key",
    [(f, key) for f, row in COST_FIELDS.items() for key in row[1:] if key not in OPTIONAL_KEYS],
)
def test_cost_document_lacking_a_key_of_its_family_is_named(family, key):
    # a dropped key would read as its default, and fail under the family's
    # rule ("requires curvature mu > 0"), not by the key
    doc = {"family": family, **{k: _COST_VALUES[k] for k in COST_FIELDS[family][1:] if k != key}}
    message = f"CostSpec document of family '{family}' lacks the key '{key}'$"
    with pytest.raises(ValueError, match=f"^{message}"):
        CostSpec.from_json_dict(doc)
    if family != "context_quadratic":  # a contextual instance needs contexts
        with pytest.raises(ValueError, match=f"^suppliers\\[0\\]: {message}"):
            InstanceSpec.from_json_dict({**_INSTANCE_DOC, "suppliers": [doc]})


def test_cost_document_may_drop_a_and_feature_map_id():
    # the two keys with documented defaults (OPTIONAL_KEYS)
    assert CostSpec.from_json_dict({"family": "quadratic", "mu": 1.0}) == CostSpec.quadratic(1.0)
    doc = {"family": "context_quadratic", "phi": [1.0]}
    assert CostSpec.from_json_dict(doc) == CostSpec.context_quadratic([1.0], "identity")


@pytest.mark.parametrize("horizon", [1000.7, math.nan, math.inf, "1000"])
def test_non_integral_horizon_rejected(horizon):
    with pytest.raises(ValueError, match="horizon must be an integer"):
        InstanceSpec.from_json_dict({**_INSTANCE_DOC, "horizon": horizon})
    with pytest.raises(ValueError, match="horizon must be an integer"):
        InstanceSpec(suppliers=(CostSpec.quadratic(1.0),), demands=(0.5,), horizon=horizon)


@pytest.mark.parametrize("dim", [2.5, math.nan])
def test_non_integral_dim_rejected(dim):
    doc = {"kind": "uniform_cube", "lo": 0.5, "hi": 1.5, "dim": dim}
    with pytest.raises(ValueError, match="dim must be an integer"):
        GeneratorSpec.from_json_dict(doc)
    with pytest.raises(ValueError, match="dim must be an integer"):
        GeneratorSpec(**doc)


def test_integral_floats_become_ints():
    spec = InstanceSpec.from_json_dict(
        {**_INSTANCE_DOC, "horizon": 1e3,
         "contexts": {"kind": "uniform_cube", "lo": 0, "hi": 1, "dim": 2.0}}
    )
    assert (spec.horizon, spec.contexts.dim) == (1000, 2)
    assert type(spec.horizon) is int and type(spec.contexts.dim) is int


@pytest.mark.parametrize(
    "spec",
    [
        InstanceSpec(suppliers=[CostSpec.quadratic(1.0)], demands=[0.5], horizon=1),
        CostSpec(family="context_quadratic", phi=[1.0, 2.0]),
        InstanceSpec(
            suppliers=[{"family": "quadratic", "mu": 2, "a": 0}], demands=[1, 2], horizon=2,
            contexts=[[1, 2], [3, 4]], demand_bounds=[1, 2], class_bound=3,
            function_class=[{"family": "context_quadratic", "phi": [1]}],
        ),
    ],
    ids=["lists", "phi-list", "dicts-and-ints"],
)
def test_list_built_specs_hash_and_round_trip(spec):
    hash(spec)
    assert type(spec).from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec


def test_instance_json_text_every_field():
    spec = InstanceSpec(
        suppliers=(
            CostSpec.quadratic(0.5, a=0.125),
            CostSpec.linear(c=0.25, cap=2.0),
            CostSpec.context_quadratic((0.75, 1 / 3), "tanh_affine"),
        ),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        horizon=2,
        contexts=((0.5,), (1.5,)),
        demand_bounds=(0.25, 2.0),
        function_class=(CostSpec.context_quadratic((1.0, 0.1), "tanh_affine"),),
        class_bound=9.0,
    )
    text = json.dumps(spec.to_json_dict(), indent=2)
    assert text == """{
  "suppliers": [
    {
      "family": "quadratic",
      "mu": 0.5,
      "a": 0.125
    },
    {
      "family": "linear",
      "c": 0.25,
      "cap": 2.0
    },
    {
      "family": "context_quadratic",
      "phi": [
        0.75,
        0.3333333333333333
      ],
      "feature_map_id": "tanh_affine"
    }
  ],
  "demands": {
    "kind": "uniform",
    "lo": 0.5,
    "hi": 1.5
  },
  "horizon": 2,
  "contexts": [
    [
      0.5
    ],
    [
      1.5
    ]
  ],
  "demand_bounds": [
    0.25,
    2.0
  ],
  "function_class": [
    {
      "family": "context_quadratic",
      "phi": [
        1.0,
        0.1
      ],
      "feature_map_id": "tanh_affine"
    }
  ],
  "class_bound": 9.0
}"""
    assert InstanceSpec.from_json_dict(json.loads(text)) == spec


def test_instance_rejects_out_of_range_price():
    with pytest.raises(InfeasibleMarket):
        MarketInstance(
            suppliers=(CostSpec.quadratic(5.0),),
            demands=np.full(4, 1.0),
            contexts=None,
            horizon=4,
            demand_bounds=(1.0, 1.0),
        )


def test_capacity_rule_is_shared_by_instance_and_solver():
    # production at p = 1 is exactly 2: a demand just above it is rejected
    # when the instance is materialized, not later by the clearing-price solve
    spec = InstanceSpec(
        suppliers=(CostSpec.quadratic(0.5),),
        demands=GeneratorSpec(kind="constant", value=2.0 + 5e-13),
        horizon=8,
    )
    rng = np.random.Generator(np.random.Philox(key=3))
    with pytest.raises(InfeasibleMarket):
        spec.materialize(rng)
    at_capacity = InstanceSpec(
        suppliers=spec.suppliers, demands=GeneratorSpec(kind="constant", value=2.0), horizon=8
    )
    inst = at_capacity.materialize(rng)
    assert np.all(equilibrium_price(inst.suppliers, inst.demands) == 1.0)


@pytest.mark.parametrize("entry", ["quadratic", 0.5, None])
def test_instance_rejects_supplier_entry_that_is_no_spec(entry):
    # a family name alone is no spec; a run would fail on its missing .family
    good = CostSpec.quadratic(0.5)
    message = r"suppliers\[1\] must be of type CostSpec or its JSON dict"
    with pytest.raises(ValueError, match=message):
        InstanceSpec(suppliers=[good, entry], demands=[0.5], horizon=1)


def test_instance_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        MarketInstance(
            suppliers=(CostSpec.quadratic(0.5),),
            demands=np.ones(3),
            contexts=None,
            horizon=4,
            demand_bounds=(1.0, 1.0),
        )


def test_instance_validates_context_positivity():
    with pytest.raises(ValueError):
        MarketInstance(
            suppliers=(CostSpec.context_quadratic(phi=(1.0,)),),
            demands=np.full(2, 0.1),
            contexts=np.array([[1.0], [-1.0]]),
            horizon=2,
            demand_bounds=(0.1, 0.1),
        )


def test_materialize_constant_and_uniform():
    spec = InstanceSpec(
        suppliers=(CostSpec.quadratic(0.3),),
        demands=GeneratorSpec(kind="constant", value=1.0),
        horizon=16,
    )
    rng = np.random.Generator(np.random.Philox(key=1))
    inst = spec.materialize(rng)
    assert np.all(inst.demands == 1.0)
    assert inst.demand_bounds == (1.0, 1.0)

    spec_u = InstanceSpec(
        suppliers=(CostSpec.quadratic(0.3),),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        horizon=64,
    )
    inst_u = spec_u.materialize(np.random.Generator(np.random.Philox(key=2)))
    assert inst_u.demand_bounds == (0.5, 1.5)
    assert inst_u.demands.min() >= 0.5 and inst_u.demands.max() <= 1.5


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"kind": "bogus", "lo": 0.5, "hi": 1.5}, "unknown generator kind"),
        ({"kind": "constant", "value": math.nan}, "value must be finite"),
        ({"kind": "constant", "value": math.inf}, "value must be finite"),
        ({"kind": "uniform", "lo": -math.inf, "hi": 1.0}, "lo must be finite"),
        ({"kind": "uniform", "lo": 0.5, "hi": math.nan}, "hi must be finite"),
        ({"kind": "uniform_cube", "lo": 0.5, "hi": math.inf, "dim": 2}, "hi must be finite"),
        ({"kind": "uniform", "lo": 1.5, "hi": 0.5}, "lo <= hi"),
        ({"kind": "uniform_cube", "lo": 1.5, "hi": 0.5, "dim": 2}, "lo <= hi"),
        ({"kind": "uniform_cube", "lo": 0.5, "hi": 1.5, "dim": 0}, "dim >= 1"),
        ({"kind": "uniform_cube", "lo": 0.5, "hi": 1.5, "dim": -1}, "dim >= 1"),
    ],
)
def test_generator_spec_rejects_bad_fields(doc, message):
    with pytest.raises(ValueError, match=message):
        GeneratorSpec(**doc)
    with pytest.raises(ValueError, match=message):
        GeneratorSpec.from_json_dict(doc)


def test_cost_normalized_at_zero():
    theta = np.array([1.0])
    for s in (CostSpec.quadratic(0.7, a=0.2), CostSpec.linear(c=0.5, cap=1.0),
              CostSpec.context_quadratic(phi=(1.0,))):
        assert s.cost(0.0, theta) == 0.0


def test_feature_map_unknown_id_raises():
    with pytest.raises(KeyError):
        apply_feature_map("nope", np.array([1.0]))
    # a cost record naming one is rejected when it is built
    with pytest.raises(ValueError, match="feature_map_id"):
        CostSpec.context_quadratic(phi=(1.0,), feature_map_id="nope")


def test_feature_map_id_checked_when_specs_are_built():
    bad = {"family": "context_quadratic", "phi": [1.0], "feature_map_id": "nope"}
    with pytest.raises(ValueError, match="feature_map_id"):
        CostSpec.from_json_dict(bad)
    good = CostSpec.context_quadratic(phi=(1.0,))
    doc = InstanceSpec(
        suppliers=(good,),
        demands=GeneratorSpec(kind="constant", value=0.5),
        contexts=GeneratorSpec(kind="uniform_cube", lo=0.5, hi=1.5, dim=1),
        horizon=10,
        function_class=(good.to_json_dict(),),
        class_bound=2.0,
    ).to_json_dict()
    # as a supplier and as a class member, through the constructor and JSON
    for key in ("suppliers", "function_class"):
        broken = json.loads(json.dumps(doc))
        broken[key].append(bad)
        with pytest.raises(ValueError, match="feature_map_id"):
            InstanceSpec.from_json_dict(broken)
    with pytest.raises(ValueError, match="feature_map_id"):
        InstanceSpec(
            suppliers=(good,), demands=(0.5,), horizon=1, function_class=(bad,)
        )


def test_instance_rejects_phi_length_mismatch():
    # tanh_affine maps 3-dim contexts to 4 features; 3 parameters do not fit
    with pytest.raises(ValueError, match="supplier 1 has 3 parameters, context 4 features"):
        MarketInstance(
            suppliers=(
                CostSpec.context_quadratic(phi=(1.0, 1.0, 1.0)),
                CostSpec.context_quadratic(phi=(1.0, 0.5, 0.5), feature_map_id="tanh_affine"),
            ),
            demands=np.full(2, 0.1),
            contexts=np.ones((2, 3)),
            horizon=2,
            demand_bounds=(0.1, 0.1),
        )


@pytest.mark.parametrize("map_id", ["identity", "tanh_affine"])
def test_feature_map_of_a_path_equals_it_row_by_row(map_id):
    thetas = np.random.Generator(np.random.Philox(key=19)).uniform(-2.0, 2.0, (40, 3))
    path = apply_feature_map(map_id, thetas)
    assert path.shape == (40, 3 if map_id == "identity" else 4)
    for t, theta in enumerate(thetas):
        assert np.array_equal(path[t], apply_feature_map(map_id, theta))


@st.composite
def _contextual_spec_and_path(draw):
    """A context_quadratic spec of 1 to 4 features and a context path it
    keeps positive."""
    map_id = draw(st.sampled_from(["identity", "tanh_affine"]))
    dim = draw(st.integers(1, 4 if map_id == "identity" else 3))
    n_features = dim if map_id == "identity" else dim + 1
    positive = st.floats(0.05, 3.0)
    phi = draw(st.lists(positive, min_size=n_features, max_size=n_features))
    T = draw(st.integers(1, 12))
    path = draw(st.lists(st.lists(positive, min_size=dim, max_size=dim), min_size=T, max_size=T))
    return CostSpec.context_quadratic(phi, map_id), np.array(path)


@settings(max_examples=300, deadline=None)
@given(_contextual_spec_and_path())
def test_coefficient_is_one_computation(spec_and_path):
    # CostSpec.coefficient, context_coefficients and a class member's path
    # are one left-to-right sum, so they agree bit for bit
    spec, path = spec_and_path
    member_path = FunctionClass(members=(spec,), bound=100.0).member_coefficients(path)
    for t, theta in enumerate(path):
        want = spec.coefficient(theta).hex()
        assert float(context_coefficients((spec,), theta)[0]).hex() == want
        assert float(member_path[0, t]).hex() == want


def test_coefficient_rejects_feature_count_mismatch():
    spec = CostSpec.context_quadratic((1.0, 2.0))
    with pytest.raises(ValueError, match="spec 0 has 2 parameters, context 3 features"):
        spec.coefficient((1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="require a context"):
        spec.coefficient(None)


# --- values holding arrays --------------------------------------------------

_CLASS = FunctionClass(
    members=(CostSpec.context_quadratic((1.0,)), CostSpec.context_quadratic((2.0,))), bound=9.0
)
#: Each value type that holds numpy arrays, and a call that builds a fresh
#: value of it whose arrays hold two or more entries.
ARRAY_VALUES = {
    MarketInstance: lambda: InstanceSpec(
        suppliers=(CostSpec.quadratic(1.0),), demands=(0.5, 0.7), horizon=2
    ).materialize(harness.replication_stream(0, 0)),
    Allocation: lambda: aggregate_production(
        (CostSpec.quadratic(1.0), CostSpec.quadratic(2.0)), np.array([0.2, 0.5])
    ),
    DemandPolicyState: lambda: make_demand_state(DemandGrid(0.5, 1.5, 0.25), 100),
    IgwDistribution: lambda: igw_distribution(np.array([0.0, 0.5, 1.0]), 2.0),
    ContextualPolicyState: lambda: make_contextual_state(_CLASS, 3, 2.0),
    OracleState: lambda: make_oracle_state(_CLASS),
}


@pytest.mark.parametrize("make", ARRAY_VALUES.values(), ids=[c.__name__ for c in ARRAY_VALUES])
def test_array_holding_values_compare_by_identity(make):
    # == on two equal values neither raises numpy's "truth value of an array
    # is ambiguous" nor compares arrays: a value equals only itself, and
    # hashes by identity
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True and a == a
    assert len({a, b}) == 2


def test_every_dataclass_holding_arrays_compares_by_identity():
    held = set()
    for info in pkgutil.iter_modules(eqprice.__path__):
        module = importlib.import_module(f"eqprice.{info.name}")
        for obj in vars(module).values():
            if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
                continue
            if any("ndarray" in str(f.type) for f in dataclasses.fields(obj)):
                held.add(obj)
                assert obj.__eq__ is object.__eq__, obj
    assert held == set(ARRAY_VALUES)
