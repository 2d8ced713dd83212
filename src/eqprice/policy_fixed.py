"""Feasible-price-interval tracking for fixed demand and fixed costs.

The policy keeps an interval [a, b] known to contain the clearing price and
a precision eps. Within a sub-phase it offers a, a+eps, a+2*eps, ... (capped
at b) until production reaches the demand, then shrinks the interval to the
bracketing pair of offers and squares the precision. Once the interval is
narrower than 1/T the price freezes at the lower end. Squaring eps means the
number of shrink events over a horizon T is O(log log T).

The arithmetic is :func:`eqprice.kernels.fixed_offer` and
:func:`eqprice.kernels.fixed_update`, shared with the fused kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels

SEARCHING = "searching"
FROZEN = "frozen"


@dataclass(frozen=True)
class FixedPolicyState:
    """Interval tracker state. Value-copyable; observe() returns a new state.

    ``cursor`` indexes the next offer within the current sub-phase, so the
    current offer is min(a + cursor*eps, b). ``resets`` counts sub-phase
    restarts triggered by reaching b without covering demand, which cannot
    happen under exact best responses when the clearing price is in [a, b].
    """

    a: float
    b: float
    eps: float
    cursor: int
    phase: str
    horizon: int
    shrink_count: int = 0
    resets: int = 0


def _state(horizon: int, a, b, eps, cursor, frozen, shrinks, resets) -> FixedPolicyState:
    """Repack a kernel tracker tuple (see :func:`eqprice.kernels.fixed_update`)."""
    return FixedPolicyState(
        a=a, b=b, eps=eps, cursor=cursor, phase=FROZEN if frozen else SEARCHING,
        horizon=horizon, shrink_count=shrinks, resets=resets,
    )


def make_fixed_state(horizon: int) -> FixedPolicyState:
    """Fresh tracker over [0, 1] with eps = 1/2."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return _state(horizon, *kernels.fixed_start(horizon))


def fixed_next_price(state: FixedPolicyState) -> float:
    """Price to post this period: the cursor offer, or a once frozen."""
    return kernels.fixed_offer(
        state.a, state.b, state.eps, state.cursor, state.phase == FROZEN
    )


def fixed_observe(
    state: FixedPolicyState, total_production: float, d: float
) -> FixedPolicyState:
    """Advance the tracker given production observed at fixed_next_price(state)
    (see :func:`eqprice.kernels.fixed_update`); a no-op once frozen."""
    if state.phase == FROZEN:
        return state
    return _state(
        state.horizon,
        *kernels.fixed_update(
            state.a, state.b, state.eps, state.cursor, state.shrink_count,
            state.resets, fixed_next_price(state), total_production, d,
            state.horizon,
        ),
    )


def max_shrink_events(horizon: int) -> int:
    """Shrink-count ceiling ceil(log2 log2 T) + 1 implied by eps-squaring."""
    if horizon < 4:
        return 1
    return math.ceil(math.log2(math.log2(horizon))) + 1
