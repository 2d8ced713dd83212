"""Online regression oracles for predicting production from (price, context).

The required oracle runs exponential weights over a finite class of
candidate production functions. Predictions are the loss-minimizing point of
the weighted mixture, i.e. the weighted mean of member predictions, and
weights decay in each member's squared error with learning rate eta. With
the default eta = 2/B^2 (B the output bound) the excess squared error over
the best member stays at most (1/eta) * ln(n_members) on the streams this
package tests, the finite-class estimation guarantee the contextual policy
consumes.

The arithmetic is :func:`eqprice.kernels.mixture_coefficient` and
:func:`eqprice.kernels.exp_weights_update`, shared with the fused kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import kernels
from .features import apply_feature_map


@dataclass(frozen=True)
class ClassMember:
    """One candidate production function of the ``context_quadratic`` family:
    (p, theta) -> p * <phi, sigma(theta)>, with sigma the named feature map.
    """

    phi: tuple[float, ...]
    feature_map_id: str = "identity"

    @classmethod
    def context_quadratic(cls, phi: Sequence[float], feature_map_id: str = "identity"):
        return cls(phi=tuple(float(v) for v in phi), feature_map_id=feature_map_id)

    def evaluate(self, p: float, theta) -> float:
        if theta is None:
            # a missing context would map to NaN features, not an error
            raise ValueError("class members require a context")
        return p * float(np.dot(self.phi, apply_feature_map(self.feature_map_id, theta)))

    def to_json_dict(self) -> dict:
        return {
            "family": "context_quadratic",
            "phi": list(self.phi),
            "feature_map_id": self.feature_map_id,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ClassMember":
        fam = doc["family"]
        if fam != "context_quadratic":
            raise ValueError(f"unknown class member family {fam!r}")
        return cls.context_quadratic(doc["phi"], doc.get("feature_map_id", "identity"))


@dataclass(frozen=True)
class FunctionClass:
    """Finite set of candidate production functions with output bound B."""

    members: tuple[ClassMember, ...]
    bound: float

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("function class must be non-empty")
        if not self.bound > 0:
            raise ValueError("output bound B must be positive")

    def __len__(self) -> int:
        return len(self.members)

    def evaluate_all(self, p: float, theta=None) -> np.ndarray:
        return np.array([m.evaluate(p, theta) for m in self.members])

    def coefficient_matrix(self) -> np.ndarray:
        """Member phi matrix when every member uses the same feature map;
        used by the fused simulation kernel."""
        self.feature_map_id()  # raises unless the members share one map
        return np.array([m.phi for m in self.members])

    def feature_map_id(self) -> str:
        ids = {m.feature_map_id for m in self.members}
        if len(ids) != 1:
            raise ValueError("members must share one feature map")
        return next(iter(ids))


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
        w = np.empty(len(self.log_weights))
        kernels.oracle_weights(self.log_weights, w)
        return w


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


def _coefficients(state: OracleState, cls: FunctionClass, theta) -> tuple[np.ndarray, float]:
    """Member productions u at (p = 1, theta) and their mixture coefficient."""
    u = cls.evaluate_all(1.0, theta)
    return u, kernels.mixture_coefficient(state.log_weights, u, np.empty(len(u)))


def oracle_predict(state: OracleState, cls: FunctionClass, p: float, theta=None) -> float:
    """Weighted mean of member predictions under the current weights."""
    return p * _coefficients(state, cls, theta)[1]


def oracle_update(
    state: OracleState, cls: FunctionClass, p: float, theta, x_observed: float
) -> OracleState:
    """Fold in one observation: score the current prediction, then decay
    each member's log-weight by eta times its squared error.

    Observations outside [0, B] are clipped and counted in ``clamped``.
    """
    x = float(x_observed)
    clamped = state.clamped
    if x < 0.0 or x > cls.bound:
        x = min(max(x, 0.0), cls.bound)
        clamped += 1
    u, c_hat = _coefficients(state, cls, theta)
    lw = state.log_weights.copy()
    cum_member_loss = state.cum_member_loss.copy()
    loss = kernels.exp_weights_update(lw, cum_member_loss, u, c_hat, p, x, state.eta)
    return replace(
        state,
        log_weights=lw,
        cum_loss=state.cum_loss + loss,
        cum_member_loss=cum_member_loss,
        clamped=clamped,
    )


def oracle_excess_loss(state: OracleState) -> float:
    """Cumulative squared error of the forecaster minus the best member's."""
    return state.cum_loss - float(state.cum_member_loss.min())


class FiniteClassOracle:
    """Stateful wrapper over the functional oracle ops, for policy drivers."""

    def __init__(self, cls: FunctionClass, eta: float | None = None):
        self.cls = cls
        self.state = make_oracle_state(cls, eta=eta)

    @property
    def bound(self) -> float:
        return self.cls.bound

    def predict(self, p: float, theta=None) -> float:
        return oracle_predict(self.state, self.cls, p, theta)

    def predict_at_prices(self, prices: np.ndarray, theta=None) -> np.ndarray:
        c_hat = _coefficients(self.state, self.cls, theta)[1]
        return np.asarray(prices, dtype=np.float64) * c_hat

    def update(self, p: float, theta, x_observed: float) -> None:
        self.state = oracle_update(self.state, self.cls, p, theta, x_observed)

