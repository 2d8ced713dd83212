"""Kernel trajectories against the step-level reference implementations,
and numba against the plain-Python path."""

import math

import numpy as np
import pytest

from eqprice import kernels
from eqprice.backend import NUMBA_AVAILABLE, active_backend, set_backend
from eqprice.features import apply_feature_map_batch
from eqprice.market import (
    CostSpec,
    RegretLedger,
    aggregate_production,
    equilibrium_price,
    equilibrium_price_batch,
    record_step,
)
from eqprice.oracle import ClassMember, FiniteClassOracle, FunctionClass
from eqprice.policy_contextual import (
    IGWParams,
    PriceGrid,
    contextual_observe,
    contextual_step,
    make_contextual_state,
)
from eqprice.policy_demand import DemandGrid, cell_price, demand_step, make_demand_state
from eqprice.policy_fixed import fixed_next_price, fixed_observe, make_fixed_state


@pytest.fixture(params=["numpy", "numba"] if NUMBA_AVAILABLE else ["numpy"])
def backend(request):
    previous = active_backend()
    set_backend(request.param)
    yield request.param
    set_backend(previous)


def reference_fixed(suppliers, d, T):
    state = make_fixed_state(T)
    p_star = equilibrium_price(suppliers, d)
    led = RegretLedger()
    prices = np.empty(T)
    for t in range(T):
        p = fixed_next_price(state)
        prices[t] = p
        x = aggregate_production(suppliers, p).total
        record_step(led, suppliers, d, None, p)
        state = fixed_observe(state, x, d)
    return prices, led, state


def test_fixed_kernel_matches_reference(backend):
    suppliers = (CostSpec.quadratic(0.3, a=0.05), CostSpec.quadratic(0.8))
    d, T = 1.7, 4000
    p_star = equilibrium_price(suppliers, d)
    alloc_eq = aggregate_production(suppliers, p_star)
    cost_eq = sum(s.cost(x) for s, x in zip(suppliers, alloc_eq.per_supplier))
    pay_eq = p_star * alloc_eq.total
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    price, prod, unmet, cost, pay, shrinks, resets, a, b, eps, frozen = (
        kernels.fixed_trajectory(fam, p1, p2, d, T, cost_eq, pay_eq)
    )
    ref_prices, led, ref_state = reference_fixed(suppliers, d, T)
    assert np.array_equal(price, ref_prices)
    inc = np.array(led.per_period)
    # the ledger and the kernel share the exact clearing price and differ
    # only in summation order
    assert np.allclose(unmet, inc[:, 0], atol=1e-12)
    assert np.allclose(cost, inc[:, 1], atol=1e-12)
    assert np.allclose(pay, inc[:, 2], atol=1e-12)
    assert shrinks == ref_state.shrink_count
    assert resets == ref_state.resets
    assert (a, b) == (ref_state.a, ref_state.b)


def test_fixed_kernel_linear_instance(backend):
    supplier = CostSpec.linear(c=0.4, cap=2.0)
    d, T = 1.0, 3000
    fam, p1, p2 = kernels.encode_suppliers((supplier,))
    price, prod, unmet, cost, pay, *_ = kernels.fixed_trajectory(
        fam, p1, p2, d, T, 0.4 * d, 0.4 * d
    )
    state = make_fixed_state(T)
    for t in range(T):
        p = fixed_next_price(state)
        assert price[t] == p
        x = 2.0 if p >= 0.4 else 0.0
        assert prod[t] == x
        state = fixed_observe(state, x, d)


def test_demand_kernel_matches_reference(backend):
    rng = np.random.Generator(np.random.Philox(key=81))
    suppliers = (CostSpec.quadratic(0.5), CostSpec.quadratic(1.0, a=0.1))
    T = 2500
    demands = rng.uniform(0.5, 1.5, T)
    gamma = 1.0 / math.sqrt(T)
    d_lo, d_hi = 0.5, 1.5
    n_cells = math.ceil((d_hi - d_lo) / gamma)
    mus = np.array([s.mu for s in suppliers])
    ints = np.array([s.a for s in suppliers])
    p_stars = equilibrium_price_batch(mus, ints, demands)
    cost_eq = np.zeros(T)
    tot_eq = np.zeros(T)
    for mu_i, a_i in zip(mus, ints):
        x = np.maximum(0.0, (p_stars - a_i) / mu_i)
        cost_eq += 0.5 * mu_i * x * x + a_i * x
        tot_eq += x
    pay_eq = p_stars * tot_eq
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    price, prod, unmet, cost, pay, shrinks = kernels.demand_trajectory(
        fam, p1, p2, demands, p_stars, cost_eq, pay_eq, d_lo, gamma, n_cells, 1.0 / math.sqrt(T)
    )

    grid = DemandGrid.from_width(d_lo, d_hi, gamma)
    assert grid.n_cells == n_cells
    state = make_demand_state(grid, T)
    for t in range(T):
        p = cell_price(state, grid, demands[t])
        assert price[t] == p
        x = aggregate_production(suppliers, p).total
        assert prod[t] == x
        _, state = demand_step(state, grid, demands[t], x)
    assert shrinks == state.shrink_count


def _contextual_setup(T, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    phi_true = np.array([1.5, 1.5, 1.0])
    members = [ClassMember.context_quadratic(tuple(phi_true))]
    for _ in range(5):
        members.append(
            ClassMember.context_quadratic(tuple(phi_true * rng.uniform(0.6, 1.4, 3)))
        )
    cls = FunctionClass(members=tuple(members), bound=9.0)
    demands = rng.uniform(0.5, 1.5, T)
    thetas = rng.uniform(0.5, 1.5, (T, 3))
    uniforms = rng.uniform(0.0, 1.0, T)
    return cls, phi_true, demands, thetas, uniforms


def test_contextual_kernel_matches_ops(backend):
    T = 600
    cls, phi_true, demands, thetas, uniforms = _contextual_setup(T, seed=82)
    K, gamma = 9, 40.0
    grid_prices = np.linspace(0.0, 1.0, K)

    feats = apply_feature_map_batch("identity", thetas)
    member_u = cls.coefficient_matrix() @ feats.T
    u_true = feats @ phi_true
    p_stars = demands / u_true
    log_w0 = np.full(len(cls), -math.log(len(cls)))
    eta = 2.0 / (cls.bound ** 2)
    (arm, price, prod, unmet, cost, pay, proxy, floss, lw, cml) = (
        kernels.contextual_trajectory(
            member_u, log_w0, eta, u_true, demands, p_stars, grid_prices, gamma, uniforms
        )
    )

    class _Replay:
        def __init__(self, draws):
            self.draws = iter(draws)

        def uniform(self):
            return float(next(self.draws))

    oracle = FiniteClassOracle(cls, eta=eta)
    state = make_contextual_state(oracle)
    grid = PriceGrid.uniform(K)
    params = IGWParams(gamma_explore=gamma, n_prices=K)
    replay = _Replay(uniforms)
    for t in range(T):
        p, state = contextual_step(state, grid, params, thetas[t], demands[t], replay)
        x = float(p * u_true[t])
        state = contextual_observe(state, x)
        assert price[t] == p  # same arm from the same draw
        assert prod[t] == pytest.approx(x, abs=1e-12)
        e = float(state.last_distribution.probs @ np.abs(grid.prices * u_true[t] - demands[t]))
        assert proxy[t] == pytest.approx(e, rel=1e-9, abs=1e-12)
    assert np.allclose(lw, oracle.state.log_weights, atol=1e-9)
    assert np.allclose(cml, oracle.state.cum_member_loss, rtol=1e-9, atol=1e-9)
    assert np.cumsum(floss)[-1] == pytest.approx(oracle.state.cum_loss, rel=1e-9)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="needs both backends")
def test_backends_agree():
    suppliers = (CostSpec.quadratic(0.3), CostSpec.quadratic(0.8, a=0.1))
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    previous = active_backend()
    try:
        set_backend("numpy")
        ref = kernels.fixed_trajectory(fam, p1, p2, 1.2, 2000, 0.5, 0.6)
        set_backend("numba")
        jit = kernels.fixed_trajectory(fam, p1, p2, 1.2, 2000, 0.5, 0.6)
        for a, b in zip(ref[:5], jit[:5]):
            assert np.array_equal(a, b)
        assert ref[5:] == jit[5:]

        T = 400
        cls, phi_true, demands, thetas, uniforms = _contextual_setup(T, seed=83)
        feats = apply_feature_map_batch("identity", thetas)
        member_u = cls.coefficient_matrix() @ feats.T
        u_true = feats @ phi_true
        p_stars = demands / u_true
        log_w0 = np.full(len(cls), -math.log(len(cls)))
        args = (member_u, log_w0, 2.0 / 81.0, u_true, demands, p_stars,
                np.linspace(0.0, 1.0, 7), 25.0, uniforms)
        set_backend("numpy")
        ref_c = kernels.contextual_trajectory(*args)
        set_backend("numba")
        jit_c = kernels.contextual_trajectory(*args)
        assert np.array_equal(ref_c[0], jit_c[0])  # identical arm sequence
        for a, b in zip(ref_c[1:], jit_c[1:]):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
    finally:
        set_backend(previous)
