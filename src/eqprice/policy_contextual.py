"""Inverse-gap-weighted price sampling over a uniform grid, driven by an
online regression oracle, for time-varying costs with contexts.

Each period the oracle estimates production at every grid price; the greedy
price minimizes the absolute mismatch with the demand. Sampling weights are
inversely proportional to each price's mismatch gap above the greedy one:
prob_i = 1 / (lambda + 2*gamma*gap_i), with lambda in [1, K] the
normalization constant. Heavier gamma concentrates on the greedy price;
every price keeps probability at least 1/(K + 2*gamma*max_gap).

The arithmetic is :func:`eqprice.kernels.igw_gaps`, ``igw_probs`` and
``sample_arm``, shared with the fused kernel. The frozen
:class:`ContextualPolicyState` carries the policy's whole configuration
(function class, price grid, gamma) and its oracle as an
:class:`~eqprice.oracle.OracleState` value; :func:`make_contextual_state`
builds and checks it for both the step-level API (:func:`contextual_step`,
:func:`contextual_observe`, through :func:`~eqprice.oracle.oracle_predict`
and :func:`~eqprice.oracle.oracle_update`) and the harness, which hands
the same fields to :func:`eqprice.kernels.contextual_trajectory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .market import FunctionClass, positive
from .oracle import (
    OracleState,
    make_oracle_state,
    oracle_predict,
    oracle_update,
)


@dataclass(frozen=True, eq=False)
class IgwDistribution:
    """Sampling distribution over grid prices with its normalization constant."""

    probs: np.ndarray
    lam: float


def default_grid_size(horizon: int, n_members: int) -> int:
    """K = ceil((T / ln|F|)^(1/3)), the tuning that yields T^(2/3) regret
    for a finite class. At least 2."""
    if n_members < 2:
        # ln|F| = 0 for a singleton; any grid works, keep the T^(1/3) scale.
        return max(2, math.ceil(horizon ** (1.0 / 3.0)))
    return max(2, math.ceil((horizon / math.log(n_members)) ** (1.0 / 3.0)))


#: The failure probability of the regret bound :func:`default_gamma` tunes for.
DELTA = 0.05


def grid_size(n_prices, name: str = "n_prices") -> int:
    """``n_prices`` as an int: an integer (not a float) of at least 2."""
    if not isinstance(n_prices, (int, np.integer)) or n_prices < 2:
        raise ValueError(f"{name} must be an integer >= 2, got {n_prices!r}")
    return int(n_prices)


def default_gamma(horizon: int, n_prices: int, n_members: int) -> float:
    """gamma = sqrt(K*T / (ln|F| + eps^2 T + ln(1/delta))), the rate-optimal
    exploration weight for a finite class whose best member misses the truth
    by eps, taken at eps = 0 (a well-specified class) and delta =
    :data:`DELTA`: sqrt(K*T / (ln|F| + ln(1/delta)))."""
    grid_size(n_prices)
    return math.sqrt(n_prices * horizon / (math.log(max(n_members, 2)) + math.log(1.0 / DELTA)))


def igw_distribution(gaps: np.ndarray, gamma_explore: float) -> IgwDistribution:
    """Solve for lambda and return probs_i = 1/(lambda + 2*gamma*gap_i),
    renormalised. Requires finite gaps with min(gaps) == 0, the greedy gap.

    lambda is found by :func:`eqprice.kernels.igw_probs`: Newton's method
    from lambda = 1, which rises monotonically to the root of
    sum_i 1/(lambda + 2*gamma*gap_i) = 1 without overshooting it, so
    lambda lies in [1, K]."""
    gaps = np.asarray(gaps, dtype=np.float64)
    if not np.all(np.isfinite(gaps)):
        raise ValueError("gaps must be finite")
    if gaps.min() < 0:
        raise ValueError("gaps must be nonnegative")
    if gaps.min() > 0:
        raise ValueError("the greedy gap must be zero")
    probs, lam = kernels.igw_probs(gaps.tolist(), positive(gamma_explore, "gamma_explore"))
    return IgwDistribution(probs=np.array(probs), lam=lam)


def sample_price(dist: IgwDistribution, u: float) -> int:
    """Inverse-CDF draw: smallest index whose cumulative probability covers u."""
    return kernels.sample_arm(np.asarray(dist.probs, dtype=np.float64).tolist(), float(u))


@dataclass(frozen=True, eq=False)
class ContextualPolicyState:
    """Function class, price grid p_1 = 0, ..., p_K = 1, exploration weight
    gamma, oracle state, and the pending (price, context) awaiting
    production.

    Every field is a value: :func:`contextual_observe` returns a state with
    a new :class:`~eqprice.oracle.OracleState` and leaves earlier states as
    they were.
    """

    cls: FunctionClass
    prices: np.ndarray
    gamma_explore: float
    oracle: OracleState
    pending_price: float | None = None
    pending_theta: object | None = None
    last_distribution: IgwDistribution | None = None


def make_contextual_state(
    cls: FunctionClass, n_prices: int, gamma_explore: float, eta: float | None = None
) -> ContextualPolicyState:
    """Fresh state over ``cls`` with the grid linspace(0, 1, n_prices),
    exploration weight ``gamma_explore`` and uniform oracle weights;
    ``eta`` as in :func:`~eqprice.oracle.make_oracle_state`. Rejects a
    grid of fewer than 2 prices and a non-finite or non-positive gamma."""
    grid_size(n_prices)
    return ContextualPolicyState(
        cls=cls,
        prices=np.linspace(0.0, 1.0, n_prices),
        gamma_explore=positive(gamma_explore, "gamma_explore"),
        oracle=make_oracle_state(cls, eta),
    )


def contextual_step(
    state: ContextualPolicyState, theta, d: float, rng: np.random.Generator
) -> tuple[float, ContextualPolicyState]:
    """Sample this period's price from the inverse-gap distribution.

    Queries the oracle at every grid price, builds gaps against the greedy
    price, samples via one uniform draw from ``rng``, and parks (p_t, theta)
    for the follow-up :func:`contextual_observe` call. The sampling
    distribution is exposed on the returned state so a simulator can take
    exact expectations against it.
    """
    estimates = oracle_predict(state.oracle, state.cls, state.prices, theta)
    gaps = kernels.igw_gaps(estimates.tolist(), float(d))
    dist = igw_distribution(np.array(gaps), state.gamma_explore)
    arm = sample_price(dist, float(rng.uniform()))
    price = float(state.prices[arm])
    return price, replace(
        state, pending_price=price, pending_theta=theta, last_distribution=dist
    )


def contextual_observe(
    state: ContextualPolicyState, x_observed: float
) -> ContextualPolicyState:
    """Feed the realized production back to the oracle for the pending price;
    the returned state holds the updated oracle."""
    if state.pending_price is None:
        raise ValueError("contextual_observe called before contextual_step")
    oracle = oracle_update(
        state.oracle, state.cls, state.pending_price, state.pending_theta, x_observed
    )
    return replace(state, oracle=oracle, pending_price=None, pending_theta=None)
