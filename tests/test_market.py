import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqprice.market import (
    CostSpec,
    GeneratorSpec,
    InfeasibleMarket,
    InstanceSpec,
    MarketInstance,
    RegretLedger,
    aggregate_production,
    best_response,
    equilibrium_price,
    equilibrium_price_batch,
    record_step,
)

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


def test_equilibrium_price_batch_matches_scalar():
    rng = np.random.Generator(np.random.Philox(key=5))
    mus = np.array([0.3, 0.8, 1.5])
    ints = np.array([0.0, 0.1, 0.3])
    sup = [CostSpec.quadratic(m, a) for m, a in zip(mus, ints)]
    demands = rng.uniform(0.2, 2.0, 64)
    batch = equilibrium_price_batch(mus, ints, demands)
    for d, p in zip(demands, batch):
        assert p == equilibrium_price(sup, d)  # element-for-element identical


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
                assert abs(s.marginal_cost(x) - p) <= KKT_TOL
            else:
                assert s.marginal_cost(0.0) >= p - KKT_TOL


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
            assert abs(s.marginal_cost(x, theta) - p) <= KKT_TOL
        else:
            assert s.marginal_cost(0.0, theta) >= p - KKT_TOL


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
    ps1 = equilibrium_price_batch(mus, ints, d1)
    ps2 = equilibrium_price_batch(mus, ints, d2)
    gap = np.abs(ps1 - ps2)
    exact = np.abs(d1 - d2) / inv_sum
    assert np.all(np.abs(gap - exact) <= 1e-8)
    # the generic constant is 2 / (dual curvature) = 2 / sum(1/mu)
    assert np.all(gap <= 2.0 / inv_sum * np.abs(d1 - d2) + 1e-8)


# --- regret ledger --------------------------------------------------------

def test_record_step_zero_at_equilibrium():
    sup = [CostSpec.quadratic(0.25)]
    led = record_step(RegretLedger(), sup, 1.0, None, equilibrium_price(sup, 1.0))
    u, c, p = led.per_period[0]
    assert abs(u) <= 1e-9 and abs(c) <= 1e-9 and abs(p) <= 1e-9


def test_record_step_payment_regret_above_equilibrium():
    # payment regret p(4p) - 1/4 at p = 1/2 is 0.75
    led = record_step(RegretLedger(), [CostSpec.quadratic(0.25)], 1.0, None, 0.5)
    assert led.per_period[0][2] == pytest.approx(0.75, abs=1e-9)


def test_record_step_unmet_below_equilibrium():
    # unmet demand 1 - 4p at p = 1/8 is one half
    led = record_step(RegretLedger(), [CostSpec.quadratic(0.25)], 1.0, None, 0.125)
    assert led.per_period[0][0] == pytest.approx(0.5, abs=1e-9)


def test_ledger_additivity_and_sign():
    rng = np.random.Generator(np.random.Philox(key=55))
    sup = [CostSpec.quadratic(0.5, a=0.1), CostSpec.quadratic(1.1)]
    led = RegretLedger()
    for _ in range(300):
        record_step(led, sup, rng.uniform(0.2, 1.0), None, rng.uniform(0.0, 1.0))
    u = c = p = 0.0
    for du, dc, dp in led.per_period:
        assert du >= 0.0
        u += du
        c += dc
        p += dp
    # cumulative fields are exact running sums, no drift
    assert led.unmet == u
    assert led.cost_regret == c
    assert led.payment_regret == p


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
    again = InstanceSpec.from_json(spec.to_json())
    assert again == spec
    # float fields survive a second trip through text exactly
    assert json.loads(again.to_json()) == json.loads(spec.to_json())


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
    assert np.all(equilibrium_price_batch(np.array([0.5]), np.zeros(1), inst.demands) == 1.0)


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


def test_cost_normalized_at_zero():
    theta = np.array([1.0])
    for s in (CostSpec.quadratic(0.7, a=0.2), CostSpec.linear(c=0.5, cap=1.0),
              CostSpec.context_quadratic(phi=(1.0,))):
        assert s.cost(0.0, theta) == 0.0


def test_feature_map_unknown_id_raises():
    s = CostSpec.context_quadratic(phi=(1.0,), feature_map_id="nope")
    with pytest.raises(KeyError):
        s.coefficient(np.array([1.0]))
