"""Kernel trajectories against the step-level reference implementations,
and numba against the plain-Python path."""

import math

import numpy as np
import pytest

from eqprice import kernels
from eqprice.backend import NUMBA_AVAILABLE, active_backend, set_backend
from eqprice.features import apply_feature_map_batch
from eqprice.market import CostSpec, aggregate_production
from eqprice.oracle import ClassMember, FiniteClassOracle, FunctionClass
from eqprice.policy_contextual import (
    IGWParams,
    PriceGrid,
    contextual_observe,
    contextual_step,
    make_contextual_state,
)
from eqprice.policy_demand import DemandGrid, cell_price, demand_step, make_demand_state
from eqprice.policy_fixed import FROZEN, fixed_next_price, fixed_observe, make_fixed_state


@pytest.fixture(params=["numpy", "numba"] if NUMBA_AVAILABLE else ["numpy"])
def backend(request):
    previous = active_backend()
    set_backend(request.param)
    yield request.param
    set_backend(previous)


def reference_fixed(suppliers, d, T):
    state = make_fixed_state(T)
    prices = np.empty(T)
    for t in range(T):
        p = fixed_next_price(state)
        prices[t] = p
        x = aggregate_production(suppliers, p).total
        state = fixed_observe(state, x, d)
    return prices, state


def test_fixed_kernel_matches_reference(backend):
    suppliers = (CostSpec.quadratic(0.3, a=0.05), CostSpec.quadratic(0.8))
    d, T = 1.7, 4000
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    price, a, b, eps, frozen, shrinks, resets = kernels.fixed_trajectory(fam, p1, p2, d, T)
    ref_prices, ref_state = reference_fixed(suppliers, d, T)
    assert np.array_equal(price, ref_prices)
    assert shrinks == ref_state.shrink_count
    assert resets == ref_state.resets
    assert (a, b, eps) == (ref_state.a, ref_state.b, ref_state.eps)
    assert frozen == (ref_state.phase == FROZEN)


def test_fixed_kernel_linear_instance(backend):
    supplier = CostSpec.linear(c=0.4, cap=2.0)
    d, T = 1.0, 3000
    fam, p1, p2 = kernels.encode_suppliers((supplier,))
    price = kernels.fixed_trajectory(fam, p1, p2, d, T)[0]
    ref_prices, _ = reference_fixed((supplier,), d, T)
    assert np.array_equal(price, ref_prices)


def test_demand_kernel_matches_reference(backend):
    rng = np.random.Generator(np.random.Philox(key=81))
    suppliers = (CostSpec.quadratic(0.5), CostSpec.quadratic(1.0, a=0.1))
    T = 2500
    demands = rng.uniform(0.5, 1.5, T)
    gamma = 1.0 / math.sqrt(T)
    grid = DemandGrid.from_width(0.5, 1.5, gamma)
    state = make_demand_state(grid, T)
    fam, p1, p2 = kernels.encode_suppliers(suppliers)
    price, s_lo, s_hi, cell_prices, eps, shrinks = kernels.demand_trajectory(
        fam, p1, p2, demands, state.s_lo, state.s_hi, state.eps,
        grid.d_lo, grid.gamma, grid.n_cells, state.freeze_width,
    )
    assert np.array_equal(state.s_lo, np.zeros(grid.n_cells))  # inputs untouched
    assert np.array_equal(state.eps, np.full(grid.n_cells, 0.5))

    for t in range(T):
        p = cell_price(state, grid, demands[t])
        assert price[t] == p
        x = aggregate_production(suppliers, p).total
        _, state = demand_step(state, grid, demands[t], x)
    assert shrinks == state.shrink_count
    assert np.array_equal(s_lo, state.s_lo)
    assert np.array_equal(s_hi, state.s_hi)
    assert np.array_equal(cell_prices, state.price)
    assert np.array_equal(eps, state.eps)


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
    log_w0 = np.full(len(cls), -math.log(len(cls)))
    eta = 2.0 / (cls.bound ** 2)
    arm, price, proxy, floss, lw, cml = kernels.contextual_trajectory(
        member_u, log_w0, eta, u_true, demands, uniforms, grid_prices, gamma
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
        assert grid_prices[arm[t]] == p
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
        ref = kernels.fixed_trajectory(fam, p1, p2, 1.2, 2000)
        set_backend("numba")
        jit = kernels.fixed_trajectory(fam, p1, p2, 1.2, 2000)
        assert np.array_equal(ref[0], jit[0])
        assert ref[1:] == jit[1:]

        T = 400
        cls, phi_true, demands, thetas, uniforms = _contextual_setup(T, seed=83)
        feats = apply_feature_map_batch("identity", thetas)
        member_u = cls.coefficient_matrix() @ feats.T
        u_true = feats @ phi_true
        log_w0 = np.full(len(cls), -math.log(len(cls)))
        args = (member_u, log_w0, 2.0 / 81.0, u_true, demands, uniforms,
                np.linspace(0.0, 1.0, 7), 25.0)
        set_backend("numpy")
        ref_c = kernels.contextual_trajectory(*args)
        set_backend("numba")
        jit_c = kernels.contextual_trajectory(*args)
        assert np.array_equal(ref_c[0], jit_c[0])  # identical arm sequence
        for a, b in zip(ref_c[1:], jit_c[1:]):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
    finally:
        set_backend(previous)
