"""Online regression oracles for predicting production from (price, context).

The required oracle runs exponential weights over a finite class of
candidate production functions. Predictions are the loss-minimizing point of
the weighted mixture, i.e. the weighted mean of member predictions, and
weights decay in each member's squared error with learning rate eta. With
the default eta = 2/B^2 (B the output bound) the excess squared error over
the best member stays at most (1/eta) * ln(n_members) on the streams this
package tests, the finite-class estimation guarantee the contextual policy
consumes.

The class members are ``context_quadratic``
:class:`~eqprice.market.CostSpec` records, the suppliers' own form. The
oracle is a value: :class:`OracleState` is frozen, :func:`oracle_update`
returns a new state, and :func:`oracle_predict` reads one. The arithmetic
is :func:`eqprice.kernels.mixture_coefficient` and
:func:`eqprice.kernels.exp_weights_update`, shared with the fused kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .features import apply_feature_map
from .market import CONTEXT_QUADRATIC, CostSpec


@dataclass(frozen=True)
class FunctionClass:
    """Finite set of candidate production functions with output bound B.

    Each member is a ``context_quadratic`` :class:`~eqprice.market.CostSpec`,
    the suppliers' own form: it produces p * <phi, sigma(theta)> at price p
    and context theta, with sigma the member's feature map.
    """

    members: tuple[CostSpec, ...]
    bound: float

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("function class must be non-empty")
        for i, m in enumerate(self.members):
            if not (isinstance(m, CostSpec) and m.family == CONTEXT_QUADRATIC):
                raise ValueError(f"class member {i} must be a context_quadratic CostSpec")
        if not self.bound > 0:
            raise ValueError("output bound B must be positive")

    def __len__(self) -> int:
        return len(self.members)

    def member_coefficients(self, contexts) -> np.ndarray:
        """Every member's production at p = 1, <phi, sigma(theta)>: shape
        (F,) at one context, (F, T) over a (T, m) context path.

        The inner product is summed left to right over the features, on
        Python floats at one context and on per-feature arrays over a path.
        Both are the same sequence of products and additions, so column t of
        a path equals the coefficients at context t bit for bit; the fused
        kernel and the step-level oracle rely on that."""
        if contexts is None:
            # a missing context would map to NaN features, not an error
            raise ValueError("class members require a context")
        contexts = np.asarray(contexts, dtype=np.float64)
        feats = {}
        out = np.empty((len(self.members),) + contexts.shape[:-1])
        for i, m in enumerate(self.members):
            if m.feature_map_id not in feats:
                f = apply_feature_map(m.feature_map_id, contexts)
                feats[m.feature_map_id] = f.tolist() if f.ndim == 1 else f.T
            f = feats[m.feature_map_id]
            if len(f) != len(m.phi):
                raise ValueError(
                    f"member {i} has {len(m.phi)} parameters, context {len(f)} features"
                )
            u = 0.0
            for phi_k, f_k in zip(m.phi, f):
                u = u + phi_k * f_k
            out[i] = u
        return out


def default_eta(bound: float) -> float:
    """Learning rate 2/B^2 of the exponential-weights oracle."""
    return 2.0 / (bound * bound)


@dataclass(frozen=True)
class OracleState:
    """Exponential-weights state plus running loss bookkeeping.

    log_weights normalize to a probability vector after exponentiation.
    cum_loss / cum_member_loss accumulate squared errors of the forecaster
    and of every member, so the excess loss is available at any prefix.
    clamped counts observations that fell outside [0, B] and were clipped.
    """

    log_weights: np.ndarray
    eta: float
    cum_loss: float = 0.0
    cum_member_loss: np.ndarray = field(default_factory=lambda: np.zeros(0))

    clamped: int = 0

    def weights(self) -> np.ndarray:
        return np.array(kernels.oracle_weights(self.log_weights.tolist()))


def make_oracle_state(cls: FunctionClass, eta: float | None = None) -> OracleState:
    """Uniform-weight state; eta defaults to :func:`default_eta` of the bound."""
    eta = default_eta(cls.bound) if eta is None else float(eta)
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    n = len(cls)
    return OracleState(
        log_weights=np.full(n, -math.log(n)),
        eta=eta,
        cum_member_loss=np.zeros(n),
    )


def _coefficients(state: OracleState, cls: FunctionClass, theta) -> tuple[list, float]:
    """Member productions u at (p = 1, theta) and their mixture coefficient."""
    u = cls.member_coefficients(theta).tolist()
    return u, kernels.mixture_coefficient(state.log_weights.tolist(), u)


def oracle_predict(state: OracleState, cls: FunctionClass, p, theta=None):
    """Weighted mean of member predictions under the current weights, at one
    price or elementwise over an array of prices."""
    return p * _coefficients(state, cls, theta)[1]


def oracle_update(
    state: OracleState, cls: FunctionClass, p: float, theta, x_observed: float
) -> OracleState:
    """Fold in one observation: score the current prediction, then decay
    each member's log-weight by eta times its squared error.

    Observations outside [0, B], infinite ones included, are clipped and
    counted in ``clamped``. A NaN observation is rejected: it would turn
    every log-weight NaN for good.
    """
    x = float(x_observed)
    if math.isnan(x):
        raise ValueError("observed production must not be NaN")
    clamped = state.clamped
    if x < 0.0 or x > cls.bound:
        x = min(max(x, 0.0), cls.bound)
        clamped += 1
    u, c_hat = _coefficients(state, cls, theta)
    lw = state.log_weights.tolist()
    cum_member_loss = state.cum_member_loss.tolist()
    loss = kernels.exp_weights_update(lw, cum_member_loss, u, c_hat, float(p), x, state.eta)
    return replace(
        state,
        log_weights=np.array(lw),
        cum_loss=state.cum_loss + loss,
        cum_member_loss=np.array(cum_member_loss),
        clamped=clamped,
    )


def oracle_excess_loss(state: OracleState) -> float:
    """Cumulative squared error of the forecaster minus the best member's."""
    return state.cum_loss - float(state.cum_member_loss.min())
