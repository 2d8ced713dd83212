import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqprice.market import CostSpec, FunctionClass
from eqprice.oracle import oracle_predict
from eqprice.policy_contextual import (
    DELTA,
    IgwDistribution,
    contextual_observe,
    contextual_step,
    default_gamma,
    default_grid_size,
    igw_distribution,
    make_contextual_state,
    sample_price,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


ONE_MEMBER = FunctionClass(members=(CostSpec.context_quadratic((0.4,)),), bound=1.0)


def test_grid_spacing():
    state = make_contextual_state(ONE_MEMBER, 5, 1.0)
    assert np.allclose(state.prices, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(np.diff(state.prices), 0.25)
    with pytest.raises(ValueError):
        make_contextual_state(ONE_MEMBER, 1, 1.0)


def test_igw_uniform_when_all_gaps_zero():
    dist = igw_distribution(np.zeros(7), gamma_explore=3.0)
    assert np.allclose(dist.probs, 1.0 / 7.0)
    assert dist.lam == pytest.approx(7.0, abs=1e-9)
    # the root is K itself, so a rounding overshoot would leave [1, K]
    for K in range(2, 201):
        assert 1.0 <= igw_distribution(np.zeros(K), 3.0).lam <= K


def test_igw_two_arm_closed_form():
    # 1/lam + 1/(lam + 1) = 1 has the golden ratio as its root
    dist = igw_distribution(np.array([0.0, 0.5]), gamma_explore=1.0)
    assert dist.lam == pytest.approx(GOLDEN, abs=1e-9)
    assert dist.probs[0] == pytest.approx(1.0 / GOLDEN, abs=1e-9)
    assert dist.probs[1] == pytest.approx(1.0 - 1.0 / GOLDEN, abs=1e-9)


def test_igw_greedy_dominates_for_large_gamma():
    gaps = np.array([0.0, 0.2, 0.7, 1.3])
    dist = igw_distribution(gaps, gamma_explore=1e6)
    assert dist.probs[0] > 0.999


def test_igw_rejects_bad_gaps():
    with pytest.raises(ValueError):
        igw_distribution(np.array([-0.1, 0.0]), 1.0)
    with pytest.raises(ValueError):
        igw_distribution(np.array([0.2, 0.4]), 1.0)  # greedy gap missing
    for bad in (math.nan, math.inf, -math.inf):
        # a NaN gap made gaps.min() NaN, so no check fired and probs were NaN
        with pytest.raises(ValueError, match="finite"):
            igw_distribution(np.array([0.0, bad]), 1.0)


def test_igw_distribution_properties_random():
    rng = np.random.Generator(np.random.Philox(key=71))
    for _ in range(1000):
        K = int(rng.integers(2, 65))
        gamma = float(np.exp(rng.uniform(math.log(0.1), math.log(1e6))))
        gaps = rng.uniform(0.0, 2.0, K)
        gaps[rng.integers(0, K)] = 0.0
        gaps = gaps - gaps.min()
        dist = igw_distribution(gaps, gamma)
        assert abs(dist.probs.sum() - 1.0) <= 1e-9
        assert np.all(dist.probs > 0.0)
        greedy = int(np.argmin(gaps))
        assert dist.probs[greedy] == pytest.approx(dist.probs.max())
        # exploration floor
        floor = 1.0 / (K + 2.0 * gamma * gaps.max())
        assert np.all(dist.probs >= floor - 1e-12)
        assert 0.0 < dist.lam <= K + 1e-12


def _bisect_lambda(c):
    """Root of sum 1/(lam + c) = 1 on [1, K], bisected until the midpoint
    no longer moves."""
    lo, hi = 1.0, float(len(c))
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if np.sum(1.0 / (mid + c)) > 1.0:
            lo = mid
        else:
            hi = mid


@settings(max_examples=300, deadline=None)
@given(
    gaps=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=199),
    zero_at=st.integers(0, 199),
    log_gamma=st.floats(math.log(1e-3), math.log(1e8)),
)
def test_igw_lambda_solve_property(gaps, zero_at, log_gamma):
    gaps.insert(zero_at % (len(gaps) + 1), 0.0)  # the greedy gap
    gaps = np.array(gaps)
    K = len(gaps)
    gamma = math.exp(log_gamma)
    dist = igw_distribution(gaps, gamma)
    c = 2.0 * gamma * gaps
    assert 1.0 <= dist.lam <= K
    assert abs(np.sum(1.0 / (dist.lam + c)) - 1.0) <= 1e-12
    assert abs(dist.probs.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(dist.probs[np.argsort(gaps, kind="stable")]) <= 0.0)
    assert dist.lam == pytest.approx(_bisect_lambda(c), rel=1e-12, abs=0.0)


def test_sample_price_inverse_cdf():
    dist = IgwDistribution(probs=np.array([0.618, 0.382]), lam=GOLDEN)
    assert sample_price(dist, 0.7) == 1  # second arm: draw above 0.618
    assert sample_price(dist, 0.5) == 0
    assert sample_price(dist, 0.618) == 0  # boundary goes to the lower arm
    assert sample_price(dist, 0.9999999) == 1


def test_default_tunings():
    assert default_grid_size(10**5, 8) == math.ceil((10**5 / math.log(8)) ** (1 / 3))
    assert DELTA == 0.05
    g = default_gamma(10**5, 37, 8)
    expected = math.sqrt(37 * 10**5 / (math.log(8) + math.log(1 / 0.05)))
    assert g == pytest.approx(expected)


def test_default_grid_size_of_one_member():
    # ln|F| = 0: the grid keeps the T^(1/3) scale, and at least 2 prices
    assert default_grid_size(1, 1) == 2
    assert default_grid_size(10**3, 1) == math.ceil((10**3) ** (1 / 3)) == 10
    assert default_grid_size(10**5, 1) == 47


def test_params_validation():
    # fewer than 2 prices, or a grid size that is not an integer
    for n_prices in (1, 0, -3, 2.5, 4.0, "4", None):
        with pytest.raises(ValueError, match="n_prices"):
            make_contextual_state(ONE_MEMBER, n_prices, 1.0)
    for gamma in (0.0, -1.0, math.inf, math.nan, "10", True, None):
        with pytest.raises(ValueError, match="gamma_explore"):
            make_contextual_state(ONE_MEMBER, 4, gamma)
        with pytest.raises(ValueError, match="gamma_explore"):
            igw_distribution(np.zeros(3), gamma)
    # a numeric string was converted with float(): gamma 10.0 and eta 0.5
    with pytest.raises(ValueError, match="eta must be a number, got '0.5'"):
        make_contextual_state(ONE_MEMBER, 4, 10.0, "0.5")


def test_state_carries_its_configuration():
    state = make_contextual_state(ONE_MEMBER, np.int64(3), 7)
    assert np.array_equal(state.prices, np.linspace(0.0, 1.0, 3))
    assert state.gamma_explore == 7.0 and type(state.gamma_explore) is float


class _FixedDraw:
    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value


THETA = np.array([1.0])


def test_first_round_is_uniform():
    # members that predict zero production at every price give equal gaps
    cls = FunctionClass(
        members=(CostSpec.context_quadratic((0.0,)), CostSpec.context_quadratic((0.0,))),
        bound=1.0,
    )
    state = make_contextual_state(cls, 4, 10.0)
    _, state = contextual_step(state, THETA, 0.4, _FixedDraw(0.1))
    assert np.allclose(state.last_distribution.probs, 0.25)


def test_observe_requires_pending_step():
    state = make_contextual_state(ONE_MEMBER, 4, 10.0)
    with pytest.raises(ValueError):
        contextual_observe(state, 0.5)


def test_long_run_greedy_converges_to_clearing_price():
    # truth in a 2-member class: after convergence the greedy arm is the
    # grid price nearest the clearing price
    rng = np.random.Generator(np.random.Philox(key=72))
    truth = CostSpec.context_quadratic(phi=(2.0, 1.0))
    other = CostSpec.context_quadratic(phi=(1.0, 2.5))
    cls = FunctionClass(members=(truth, other), bound=6.0)
    K = 11
    state = make_contextual_state(cls, K, 200.0)
    d = 1.0
    for _ in range(600):
        theta = rng.uniform(0.5, 1.5, 2)
        p, state = contextual_step(state, theta, d, rng)
        x = p * cls.member_coefficients(theta)[0]
        state = contextual_observe(state, x)
    theta = np.array([1.0, 1.0])
    u = 3.0  # <phi_truth, theta>
    p_star = d / u
    estimates = oracle_predict(state.oracle, cls, state.prices, theta)
    greedy = int(np.argmin(np.abs(estimates - d)))
    nearest = int(np.argmin(np.abs(state.prices - p_star)))
    assert greedy == nearest


def test_distribution_attached_to_state():
    cls = FunctionClass(
        members=(CostSpec.context_quadratic((0.2,)), CostSpec.context_quadratic((0.8,))),
        bound=1.0,
    )
    state = make_contextual_state(cls, 3, 5.0)
    price, state = contextual_step(state, THETA, 0.5, _FixedDraw(0.0))
    assert price == state.prices[0]  # draw 0 lands on the first arm
    assert state.last_distribution is not None
    assert state.pending_price == price
    state = contextual_observe(state, 0.5)
    assert state.pending_price is None


def test_observe_leaves_earlier_states_unchanged():
    # the oracle is a value: updating a later state cannot reach back into
    # the state it was derived from
    cls = FunctionClass(
        members=(CostSpec.context_quadratic((0.2,)), CostSpec.context_quadratic((0.8,))),
        bound=1.0,
    )
    s0 = make_contextual_state(cls, 3, 5.0)
    _, s1 = contextual_step(s0, THETA, 0.5, _FixedDraw(0.9))
    s2 = contextual_observe(s1, 0.3)
    assert s2.oracle.cum_loss > 0.0
    for earlier in (s0, s1):
        assert earlier.oracle.cum_loss == 0.0
        assert np.array_equal(earlier.oracle.log_weights, np.full(2, -math.log(2.0)))
    assert s1.pending_price == s0.prices[2]
