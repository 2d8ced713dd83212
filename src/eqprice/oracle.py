"""Online regression oracles for predicting production from (price, context).

The required oracle runs exponential weights over a finite class of
candidate production functions. Predictions are the loss-minimizing point of
the weighted mixture, i.e. the weighted mean of member predictions, and
weights decay in each member's squared error with learning rate eta. The
excess squared error over the best member is at most (1/eta) * ln(n_members),
the finite-class estimation guarantee the contextual policy consumes. That
bound is proven for eta <= 1/(2 B^2), B the output bound, where squared loss
on [0, B] is eta-exp-concave (Cesa-Bianchi and Lugosi, *Prediction,
Learning, and Games*, 2006, section 3.3). At the default eta = 2/B^2 it is
only observed, on the streams this package tests.

The class is a :class:`~eqprice.market.FunctionClass`, whose members are
``context_quadratic`` :class:`~eqprice.market.CostSpec` records, the
suppliers' own form; :mod:`eqprice.market` owns that model and computes
every member's <phi, sigma(theta)>. The oracle is a value:
:class:`OracleState` is frozen, :func:`oracle_update` returns a new state,
and :func:`oracle_predict` reads one. The arithmetic
is :func:`eqprice.kernels.mixture_coefficient` and
:func:`eqprice.kernels.exp_weights_update`, shared with the fused kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .market import FunctionClass, positive, price_array


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


def make_oracle_state(cls: FunctionClass, eta: float | None = None) -> OracleState:
    """Uniform-weight state; eta defaults to :func:`default_eta` of the bound."""
    eta = positive(default_eta(cls.bound) if eta is None else eta, "eta")
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
    every log-weight NaN for good, as would a NaN or infinite price, so ``p``
    must be a price in [0, 1] (:func:`~eqprice.market.price_array`).
    """
    p = float(price_array(p))
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
    loss = kernels.exp_weights_update(lw, cum_member_loss, u, c_hat, p, x, state.eta)
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
