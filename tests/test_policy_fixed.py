import math

import numpy as np
import pytest

from eqprice.market import CostSpec, aggregate_production, equilibrium_price
from eqprice.policy_fixed import (
    fixed_next_price,
    fixed_observe,
    make_fixed_state,
    max_shrink_events,
)


def drive(state, suppliers, d, steps):
    """Step the tracker against exact best responses; returns offered prices."""
    prices = []
    for _ in range(steps):
        p = fixed_next_price(state)
        prices.append(p)
        x = aggregate_production(suppliers, p).total
        state = fixed_observe(state, x, d)
    return state, prices


def test_fresh_state_offers_zero():
    s = make_fixed_state(horizon=1000)
    assert fixed_next_price(s) == 0.0
    assert not s.frozen


def test_second_offer_is_half():
    s = make_fixed_state(horizon=1000)
    s = fixed_observe(s, 0.0, 1.0)  # production below demand
    assert fixed_next_price(s) == 0.5


def test_observe_rejects_nan_production():
    # NaN compares below every demand: three of them used to reset the
    # tracker, and a frozen tracker used to take one silently
    s = make_fixed_state(horizon=1000)
    for state in (s, drive(s, [CostSpec.quadratic(0.3)], 1.0, 500)[0]):
        with pytest.raises(ValueError, match="must not be NaN"):
            fixed_observe(state, math.nan, 1.0)
    assert drive(s, [CostSpec.quadratic(0.3)], 1.0, 500)[0].frozen


def test_frozen_returns_lower_end():
    from dataclasses import replace

    s = replace(make_fixed_state(horizon=1000), a=0.2999, frozen=True)
    assert fixed_next_price(s) == 0.2999


def test_hand_simulated_shrink_sequence():
    # single supplier with x*(p) = p/0.3, demand 1, clearing price 0.3
    sup = [CostSpec.quadratic(0.3)]
    s = make_fixed_state(horizon=1 << 30)
    s, prices = drive(s, sup, 1.0, 2)
    assert prices == [0.0, 0.5]
    assert (s.a, s.b, s.eps) == (0.0, 0.5, 0.25)
    s, prices = drive(s, sup, 1.0, 3)
    assert prices == [0.0, 0.25, 0.5]
    assert (s.a, s.b, s.eps) == (0.25, 0.5, 1.0 / 16.0)


def test_production_equal_to_demand_triggers_shrink():
    s = make_fixed_state(horizon=1000)
    before = s.shrink_count
    s = fixed_observe(s, 1.0, 1.0)
    assert s.shrink_count == before + 1


def test_shrink_budget_for_large_horizon():
    # iterate eps <- eps^2 from 1/2 until the width reaches 1/T
    T = 1 << 20
    width, eps, shrinks = 1.0, 0.5, 0
    while width > 1.0 / T:
        width, eps = eps, eps * eps
        shrinks += 1
    assert shrinks == 6

    sup = [CostSpec.quadratic(0.3)]
    s = make_fixed_state(horizon=T)
    for _ in range(80_000):  # the last sub-phase probes in eps = 2^-32 steps
        if s.frozen:
            break
        s = fixed_observe(s, aggregate_production(sup, fixed_next_price(s)).total, 1.0)
    assert s.frozen
    assert s.shrink_count <= 6


def test_shrink_count_bound_random_instances():
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(25):
        T = int(rng.integers(100, 200_000))
        sup = [CostSpec.quadratic(rng.uniform(0.15, 1.5)) for _ in range(3)]
        d = rng.uniform(0.2, aggregate_production(sup, 1.0).total * 0.95)
        s = make_fixed_state(horizon=T)
        s, _ = drive(s, sup, d, 3000)
        assert s.shrink_count <= max_shrink_events(T)
        assert s.resets == 0


def test_containment_of_clearing_price():
    rng = np.random.Generator(np.random.Philox(key=8))
    for _ in range(20):
        sup = [CostSpec.quadratic(rng.uniform(0.15, 1.2), rng.uniform(0.0, 0.2))
               for _ in range(2)]
        cap = aggregate_production(sup, 1.0).total
        d = rng.uniform(0.1 * cap, 0.9 * cap)
        p_star = equilibrium_price(sup, d)
        s = make_fixed_state(horizon=50_000)
        for _ in range(400):
            p = fixed_next_price(s)
            x = aggregate_production(sup, p).total
            s = fixed_observe(s, x, d)
            assert s.a - 1e-12 <= p_star <= s.b + 1e-12


def test_at_most_one_overshoot_per_subphase():
    sup = [CostSpec.quadratic(0.23, a=0.05), CostSpec.quadratic(0.9)]
    d = 1.3
    p_star = equilibrium_price(sup, d)
    s = make_fixed_state(horizon=100_000)
    overshoots = 0
    for _ in range(1500):
        p = fixed_next_price(s)
        if p > p_star:
            overshoots += 1
        shrinks_before = s.shrink_count
        s = fixed_observe(s, aggregate_production(sup, p).total, d)
        if s.shrink_count > shrinks_before:
            assert overshoots <= 1
            overshoots = 0
    assert overshoots <= 1


def test_reset_on_model_violation():
    # production never reaches demand: the cursor must not step past b
    s = make_fixed_state(horizon=100)
    for _ in range(10):
        s = fixed_observe(s, 0.0, 1.0)
    assert s.resets >= 1
    assert not s.frozen
    assert fixed_next_price(s) <= s.b


def test_observe_in_frozen_phase_is_noop():
    s = make_fixed_state(horizon=2)
    s = fixed_observe(s, 5.0, 1.0)  # immediate collapse: width 0 <= 1/T
    assert s.frozen
    assert fixed_observe(s, 0.0, 1.0) == s


def test_interval_invariants():
    rng = np.random.Generator(np.random.Philox(key=9))
    sup = [CostSpec.quadratic(0.4)]
    s = make_fixed_state(horizon=10_000)
    for _ in range(500):
        assert 0.0 <= s.a <= s.b <= 1.0
        if not s.frozen:
            assert 0.0 < s.eps <= 0.5
            assert s.a + s.cursor * s.eps <= s.b + s.eps + 1e-15
        p = fixed_next_price(s)
        s = fixed_observe(s, aggregate_production(sup, p).total, 1.9)
