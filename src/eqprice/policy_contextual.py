"""Inverse-gap-weighted price sampling over a uniform grid, driven by an
online regression oracle, for time-varying costs with contexts.

Each period the oracle estimates production at every grid price; the greedy
price minimizes the absolute mismatch with the demand. Sampling weights are
inversely proportional to each price's mismatch gap above the greedy one:
prob_i = 1 / (lambda + 2*gamma*gap_i), with lambda in [1, K] the
normalization constant. Heavier gamma concentrates on the greedy price;
every price keeps probability at least 1/(K + 2*gamma*max_gap).

The arithmetic is :func:`eqprice.kernels.igw_gaps`, ``igw_probs`` and
``sample_arm``, shared with the fused kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels


@dataclass(frozen=True)
class PriceGrid:
    """K prices uniformly spaced over [0, 1]: p_1 = 0, ..., p_K = 1."""

    prices: np.ndarray

    @classmethod
    def uniform(cls, n_prices: int) -> "PriceGrid":
        if n_prices < 2:
            raise ValueError("price grid needs at least 2 prices")
        return cls(prices=np.linspace(0.0, 1.0, n_prices))

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def spacing(self) -> float:
        return 1.0 / (len(self.prices) - 1)


@dataclass(frozen=True)
class IGWParams:
    """Exploration parameter, grid size, and reporting failure probability."""

    gamma_explore: float
    n_prices: int
    delta: float = 0.05

    def __post_init__(self):
        if not isinstance(self.n_prices, (int, np.integer)) or self.n_prices < 2:
            raise ValueError("n_prices must be an integer >= 2")
        if not (math.isfinite(self.gamma_explore) and self.gamma_explore > 0):
            raise ValueError("gamma_explore must be finite and positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
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


def default_gamma(
    horizon: int,
    n_prices: int,
    n_members: int,
    delta: float = 0.05,
    miss_spec: float = 0.0,
) -> float:
    """gamma = sqrt(K*T / (ln|F| + eps^2 T + ln(1/delta))), the rate-optimal
    exploration weight for a finite class (eps = 0 when well-specified)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    est_bound = math.log(max(n_members, 2))
    denom = est_bound + miss_spec * miss_spec * horizon + math.log(1.0 / delta)
    return math.sqrt(n_prices * horizon / denom)


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
    if not (math.isfinite(gamma_explore) and gamma_explore > 0):
        raise ValueError("gamma_explore must be finite and positive")
    probs, lam = kernels.igw_probs(gaps.tolist(), float(gamma_explore))
    return IgwDistribution(probs=np.array(probs), lam=lam)


def sample_price(dist: IgwDistribution, u: float) -> int:
    """Inverse-CDF draw: smallest index whose cumulative probability covers u."""
    return kernels.sample_arm(np.asarray(dist.probs, dtype=np.float64).tolist(), float(u))


@dataclass(frozen=True)
class ContextualPolicyState:
    """Oracle wrapper plus the pending (price, context) awaiting production.

    The stateful oracle object is shared across copies; one policy instance
    owns one oracle, matching the sequential-update contract.
    """

    oracle: object
    pending_price: float | None = None
    pending_theta: object | None = None
    last_distribution: IgwDistribution | None = None


def make_contextual_state(oracle) -> ContextualPolicyState:
    return ContextualPolicyState(oracle=oracle)


def contextual_step(
    state: ContextualPolicyState,
    grid: PriceGrid,
    params: IGWParams,
    theta,
    d: float,
    rng: np.random.Generator,
) -> tuple[float, ContextualPolicyState]:
    """Sample this period's price from the inverse-gap distribution.

    Queries the oracle at every grid price, builds gaps against the greedy
    price, samples via one uniform draw from ``rng``, and parks (p_t, theta)
    for the follow-up :func:`contextual_observe` call. The sampling
    distribution is exposed on the returned state so a simulator can take
    exact expectations against it.
    """
    estimates = np.asarray(state.oracle.predict_at_prices(grid.prices, theta), dtype=np.float64)
    gaps = kernels.igw_gaps(estimates.tolist(), float(d))
    dist = igw_distribution(np.array(gaps), params.gamma_explore)
    arm = sample_price(dist, float(rng.uniform()))
    price = float(grid.prices[arm])
    return price, replace(
        state, pending_price=price, pending_theta=theta, last_distribution=dist
    )


def contextual_observe(
    state: ContextualPolicyState, x_observed: float
) -> ContextualPolicyState:
    """Feed the realized production back to the oracle for the pending price."""
    if state.pending_price is None:
        raise ValueError("contextual_observe called before contextual_step")
    state.oracle.update(state.pending_price, state.pending_theta, x_observed)
    return replace(state, pending_price=None, pending_theta=None)
