"""Feasible-price-interval tracking for fixed demand and fixed costs.

The policy keeps an interval [a, b] known to contain the clearing price and
a precision eps. Within a sub-phase it offers a, a+eps, a+2*eps, ... (capped
at b) until production reaches the demand, then shrinks the interval to the
bracketing pair of offers and squares the precision. Once the interval is
narrower than 1/T the price freezes at the lower end. Squaring eps means the
number of shrink events over a horizon T is O(log log T).

The arithmetic is :func:`eqprice.kernels.fixed_offer` and
:func:`eqprice.kernels.fixed_update`, the only copy of it; ``fixed_update``
prices its bracketing offer with ``fixed_offer``. This module calls them
once per period. :func:`eqprice.kernels.fixed_trajectory` calls
``fixed_update`` only at the periods that shrink: whether cursor c does is
monotone in c, so a galloping search finds that period, and the probes
before it are priced by one ``fixed_offer`` call on the array of their
cursors. A :class:`FixedPolicyState` is the kernel's tracker tuple followed
by the policy's configuration, the horizon, so the step API builds it
straight from :func:`eqprice.kernels.fixed_start` and ``fixed_update``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels

@dataclass(frozen=True)
class FixedPolicyState:
    """Interval tracker state: the kernel's tracker tuple (see
    :func:`eqprice.kernels.fixed_update`) plus the policy's one setting,
    ``horizon``. Value-copyable; observe() returns a new state.

    ``cursor`` indexes the next offer within the current sub-phase, so the
    current offer is min(a + cursor*eps, b). ``frozen`` is set once the
    interval is narrower than 1/horizon. ``resets`` counts sub-phase
    restarts triggered by reaching b without covering demand, which cannot
    happen under exact best responses when the clearing price is in [a, b].
    """

    a: float
    b: float
    eps: float
    cursor: int
    frozen: bool
    shrink_count: int
    resets: int
    horizon: int


def make_fixed_state(horizon: int) -> FixedPolicyState:
    """Fresh tracker over [0, 1] with eps = 1/2."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return FixedPolicyState(*kernels.fixed_start(horizon), horizon)


def fixed_next_price(state: FixedPolicyState) -> float:
    """Price to post this period: the cursor offer, or a once frozen."""
    return kernels.fixed_offer(state.a, state.b, state.eps, state.cursor, state.frozen)


def fixed_observe(
    state: FixedPolicyState, total_production: float, d: float
) -> FixedPolicyState:
    """Advance the tracker given production observed at fixed_next_price(state)
    (see :func:`eqprice.kernels.fixed_update`); a no-op once frozen. A NaN
    production, which would read as a shortfall, is rejected."""
    if math.isnan(total_production):
        raise ValueError("observed production must not be NaN")
    if state.frozen:
        return state
    tracker = kernels.fixed_update(
        state.a, state.b, state.eps, state.cursor, state.shrink_count,
        state.resets, fixed_next_price(state), total_production, d, state.horizon,
    )
    return FixedPolicyState(*tracker, state.horizon)


def max_shrink_events(horizon: int) -> int:
    """Shrink-count ceiling ceil(log2 log2 T) + 1 implied by eps-squaring."""
    if horizon < 4:
        return 1
    return math.ceil(math.log2(math.log2(horizon))) + 1
