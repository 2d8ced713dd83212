import math

import numpy as np
import pytest

from eqprice import kernels
from eqprice.features import apply_feature_map
from eqprice.market import CostSpec, FunctionClass
from eqprice.oracle import (
    default_eta,
    make_oracle_state,
    oracle_excess_loss,
    oracle_predict,
    oracle_update,
)


def weights(state):
    """The oracle's normalised weights, as the kernels read them."""
    return np.array(kernels.oracle_weights(state.log_weights.tolist()))


# Members phi = (v,) predict exactly v at price P and context THETA.
P, THETA = 1.0, np.array([1.0])


def constant_class(values, bound=1.0):
    return FunctionClass(
        members=tuple(CostSpec.context_quadratic((v,)) for v in values), bound=bound
    )


def test_uniform_weights_predict_mean():
    cls = constant_class([0.2, 0.6])
    state = make_oracle_state(cls)
    assert oracle_predict(state, cls, P, THETA) == pytest.approx(0.4)


def test_singleton_class_is_exact():
    cls = FunctionClass(members=(CostSpec.context_quadratic((1.4,)),), bound=1.0)
    state = make_oracle_state(cls)
    assert oracle_predict(state, cls, 0.25, THETA) == pytest.approx(0.35)
    for _ in range(5):
        state = oracle_update(state, cls, 0.25, THETA, 0.35)
    assert oracle_excess_loss(state) == pytest.approx(0.0, abs=1e-15)


def test_convergence_to_truth_in_class():
    cls = constant_class([0.2, 0.6, 0.9])
    state = make_oracle_state(cls)
    # independent oracle: the same exponential-weights recursion, written out
    lw = np.full(3, -math.log(3.0))
    preds = np.array([0.2, 0.6, 0.9])
    for _ in range(1000):
        state = oracle_update(state, cls, P, THETA, 0.6)
        lw = lw - state.eta * (preds - 0.6) ** 2
        lw = lw - (lw.max() + math.log(np.exp(lw - lw.max()).sum()))
    w = np.exp(lw)
    expected = float(w @ preds / w.sum())
    got = oracle_predict(state, cls, P, THETA)
    assert got == pytest.approx(expected, abs=1e-12)
    assert abs(got - 0.6) <= 1e-3


def test_zero_loss_member_keeps_max_weight():
    cls = constant_class([0.3, 0.8])
    state = make_oracle_state(cls)
    for _ in range(10):
        state = oracle_update(state, cls, P, THETA, 0.3)
    assert int(np.argmax(weights(state))) == 0


def test_weight_ratio_after_one_update():
    cls = constant_class([1.0, 0.0])
    state = make_oracle_state(cls, eta=1.0)
    state = oracle_update(state, cls, P, THETA, 1.0)  # losses (0, 1)
    w = weights(state)
    assert w[0] / w[1] == pytest.approx(math.e)


def test_weights_normalize_after_every_update():
    rng = np.random.Generator(np.random.Philox(key=61))
    cls = constant_class(list(rng.uniform(0.0, 1.0, 6)))
    state = make_oracle_state(cls)
    for _ in range(200):
        state = oracle_update(state, cls, P, THETA, float(rng.uniform(0.0, 1.0)))
        assert weights(state).sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(state.log_weights))


def test_predictions_stay_in_bounds():
    rng = np.random.Generator(np.random.Philox(key=62))
    cls = constant_class(list(rng.uniform(0.0, 1.0, 5)), bound=1.0)
    state = make_oracle_state(cls)
    for _ in range(100):
        state = oracle_update(state, cls, P, THETA, float(rng.uniform(0.0, 1.0)))
        assert 0.0 <= oracle_predict(state, cls, P, THETA) <= 1.0


def test_clamp_diagnostic():
    cls = constant_class([0.5], bound=1.0)
    state = make_oracle_state(cls)
    state = oracle_update(state, cls, P, THETA, 1.7)
    assert state.clamped == 1


@pytest.mark.parametrize("x, clipped", [(math.inf, 1.0), (-math.inf, 0.0), (math.nan, None)])
def test_non_finite_observations(x, clipped):
    # +-inf is clipped to [0, B] and counted; NaN is rejected
    cls = constant_class([1.0, 0.0])
    state = make_oracle_state(cls)
    if clipped is None:
        with pytest.raises(ValueError, match="NaN"):
            oracle_update(state, cls, 0.5, [1.0], x)
        return
    got = oracle_update(state, cls, 0.5, [1.0], x)
    want = oracle_update(state, cls, 0.5, [1.0], clipped)
    assert got.clamped == 1 and want.clamped == 0
    assert np.array_equal(got.log_weights, want.log_weights)
    assert np.all(np.isfinite(got.log_weights))


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, -0.5, 1.5])
def test_price_outside_unit_interval_rejected(p):
    # a NaN or infinite price turned every log-weight NaN for good
    cls = constant_class([1.0, 0.0])
    with pytest.raises(ValueError, match=r"price must lie in \[0, 1\]"):
        oracle_update(make_oracle_state(cls), cls, p, [1.0], 0.5)


@pytest.mark.parametrize("p, named", [("0.5", "'0.5'"), (b"0.5", "b'0.5'"), (True, "True")])
def test_string_or_bool_price_refused(p, named):
    # oracle_update(state, cls, "0.5", ...) updated the log-weights
    cls = constant_class([1.0, 0.0])
    with pytest.raises(ValueError, match=rf"^price must be a number, got {named}$"):
        oracle_update(make_oracle_state(cls), cls, p, [1.0], 0.5)


def test_excess_loss_bound_adversarial_stream():
    # member-switching stream; excess stays below (1/eta) * ln(F)
    rng = np.random.Generator(np.random.Philox(key=63))
    values = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85]
    cls = constant_class(values, bound=1.0)
    state = make_oracle_state(cls)
    c_bound = (1.0 / state.eta) * math.log(len(values))
    T = 10_000
    for t in range(T):
        target = values[1] if t < T // 2 else values[4]
        x = target + float(rng.uniform(-0.05, 0.05))
        x = min(max(x, 0.0), 1.0)
        state = oracle_update(state, cls, P, THETA, x)
        assert oracle_excess_loss(state) <= c_bound


def test_excess_loss_bound_where_proven_adaptive_stream():
    # At eta = 1/(2 B^2) squared loss on [0, B] is eta-exp-concave, so the
    # bound ln|F|/eta holds on every stream, this adversary's included: it
    # observes B whenever the forecast is at most B/2, else 0.
    B = 1.0
    cls = constant_class([0.121, 0.996], bound=B)
    state = make_oracle_state(cls, eta=1.0 / (2.0 * B * B))
    c_bound = math.log(len(cls)) / state.eta
    for _ in range(2000):
        x = 0.0 if oracle_predict(state, cls, P, THETA) > B / 2 else B
        state = oracle_update(state, cls, P, THETA, x)
        assert oracle_excess_loss(state) <= c_bound
    assert state.clamped == 0


def test_miss_specified_class():
    eps = 0.05
    truth = 0.5
    cls = constant_class([truth + eps, 0.9], bound=1.0)
    state = make_oracle_state(cls)
    c_bound = (1.0 / state.eta) * math.log(2)
    T = 2000
    for _ in range(T):
        state = oracle_update(state, cls, P, THETA, truth)
    assert oracle_excess_loss(state) <= c_bound
    assert float(state.cum_member_loss.min()) <= eps * eps * T + 1e-9


def test_default_eta_is_two_over_bound_squared():
    cls = constant_class([0.2, 0.6], bound=1.5)
    assert make_oracle_state(cls).eta == default_eta(1.5) == 2.0 / 1.5**2
    with pytest.raises(ValueError):
        make_oracle_state(cls, eta=0.0)
    with pytest.raises(ValueError, match="eta"):
        make_oracle_state(cls, eta=math.inf)
    with pytest.raises(ValueError, match="eta must be a number"):
        make_oracle_state(cls, eta="0.5")


def test_oracle_predicts_at_a_price_array():
    cls = constant_class([0.2, 0.6])
    state = make_oracle_state(cls)
    assert oracle_predict(state, cls, P, THETA) == pytest.approx(0.4)
    state = oracle_update(state, cls, P, THETA, 0.2)
    assert oracle_predict(state, cls, P, THETA) < 0.4  # weight moved toward the low member
    grid = np.array([0.0, 0.5, 1.0])
    preds = oracle_predict(state, cls, grid, THETA)
    assert preds.shape == (3,)
    assert preds[2] == oracle_predict(state, cls, 1.0, THETA)


def test_contextual_member_coefficients():
    cls = FunctionClass(members=(CostSpec.context_quadratic(phi=(2.0, 1.0)),), bound=3.0)
    theta = np.array([0.5, 1.0])
    assert 0.5 * cls.member_coefficients(theta)[0] == pytest.approx(0.5 * (1.0 + 1.0))
    with pytest.raises(ValueError, match="context"):
        oracle_predict(make_oracle_state(constant_class([0.4])), constant_class([0.4]), P)


def test_member_serialization_round_trip():
    members = (
        CostSpec.context_quadratic(phi=(1 / 3, 0.7), feature_map_id="tanh_affine"),
        CostSpec.context_quadratic(phi=(0.4,)),
    )
    for m in members:
        assert CostSpec.from_json_dict(m.to_json_dict()) == m
    with pytest.raises(ValueError, match="constant"):
        CostSpec.from_json_dict({"family": "constant", "value": 0.4})


def _left_to_right(member, theta):
    """<phi, sigma(theta)> summed left to right on Python floats."""
    u = 0.0
    for phi_k, f_k in zip(member.phi, apply_feature_map(member.feature_map_id, theta).tolist()):
        u = u + phi_k * f_k
    return u


def test_member_coefficients_mixed_feature_maps():
    # dim-1 contexts: identity gives one feature, tanh_affine two
    cls = FunctionClass(
        members=(
            CostSpec.context_quadratic((1.0,)),
            CostSpec.context_quadratic((0.2, 0.3), feature_map_id="tanh_affine"),
        ),
        bound=1.0,
    )
    thetas = np.random.Generator(np.random.Philox(key=17)).uniform(-2.0, 2.0, (50, 1))
    path = cls.member_coefficients(thetas)
    assert path.shape == (2, 50)
    for t, theta in enumerate(thetas):
        assert np.array_equal(path[:, t], cls.member_coefficients(theta))
        assert path[0, t] == _left_to_right(cls.members[0], theta)
        assert path[1, t] == _left_to_right(cls.members[1], theta)
    with pytest.raises(ValueError, match="features"):
        cls.member_coefficients(np.ones((50, 2)))

