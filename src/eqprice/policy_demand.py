"""Per-demand-interval price tracking for time-varying demand.

Demands in [d_lo, d_hi] are bucketed into cells of width gamma; every cell
runs its own interval search, treating any demand in the cell as the cell's
lower bound. A cell's feasible set (lo, hi] starts at (0, 1] with precision
1/2; when production at the cell price covers the cell's lower demand bound
the set shrinks to (p - eps, p], the price drops to p - eps, and eps is
squared. A cell freezes once its set is no wider than the freeze width
(1/sqrt(T) by default). With gamma = 1/sqrt(T) the policy's regret is
O(sqrt(T) log log T); setting one cell per distinct demand recovers the
small-support variant.

The arithmetic is :func:`eqprice.kernels.cell_index`, the freeze test
:func:`eqprice.kernels.cell_searching` and :func:`eqprice.kernels.demand_update`
(whose probe step is :func:`eqprice.kernels.demand_probe`), the only copy of
it. This module calls them once per period.
:func:`eqprice.kernels.demand_trajectory` calls ``cell_index`` once, on the
whole demand path, and runs each cell on its own visits while
``cell_searching`` holds: a cell's update never reads the demand, and
whether a visit shrinks is monotone along a probe run, so a galloping
search finds the shrinking visit and ``demand_update`` runs only there (see
:mod:`eqprice.kernels`). A :class:`DemandPolicyState` carries the policy's
whole configuration, its :class:`DemandGrid` and freeze width, so the step
API reads the grid from the state and the harness hands the same fields to
:func:`eqprice.kernels.demand_trajectory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .market import DEMAND_SLACK, number, positive


@dataclass(frozen=True)
class DemandGrid:
    """Uniform partition of [d_lo, d_hi] into cells of width gamma.

    Cell k (1-based) covers [d_lo + (k-1)*gamma, d_lo + k*gamma); the top
    boundary d_hi clamps into the last cell. Finite 0 < d_lo <= d_hi and gamma > 0
    (the harness's ``gamma_demand``) give n_cells = max(1, ceil((d_hi - d_lo)/gamma)).
    """

    d_lo: float
    d_hi: float
    gamma: float
    n_cells: int = field(init=False)

    def __post_init__(self):
        d_lo, d_hi = number(self.d_lo, "d_lo"), number(self.d_hi, "d_hi")
        if not 0.0 < d_lo <= d_hi:
            raise ValueError(f"need 0 < d_lo <= d_hi, got d_lo={d_lo!r}, d_hi={d_hi!r}")
        gamma = positive(self.gamma, "gamma_demand")
        for name, value in (("d_lo", d_lo), ("d_hi", d_hi), ("gamma", gamma)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n_cells", max(1, math.ceil((d_hi - d_lo) / gamma)))


def default_gamma(horizon: int) -> float:
    """Cell width 1/sqrt(T), balancing per-cell search cost against
    within-cell demand rounding."""
    return 1.0 / math.sqrt(horizon)


def interval_index(grid: DemandGrid, d: float) -> int:
    """1-based cell index of demand d: floor((d - d_lo)/gamma) + 1, clamped.
    A demand outside the grid bounds, NaN included, is rejected."""
    if not (grid.d_lo - DEMAND_SLACK <= d <= grid.d_hi + DEMAND_SLACK):
        raise ValueError(f"demand {d} outside grid bounds [{grid.d_lo}, {grid.d_hi}]")
    return kernels.cell_index(d, grid.d_lo, grid.gamma, grid.n_cells) + 1


@dataclass(frozen=True, eq=False)
class DemandPolicyState:
    """The demand grid, per-cell feasible sets (s_lo, s_hi], prices, and
    precisions.

    Arrays are indexed by cell (0-based internally). freeze_width is the
    |S| threshold below which a cell's price stops moving.
    """

    grid: DemandGrid
    s_lo: np.ndarray
    s_hi: np.ndarray
    price: np.ndarray
    eps: np.ndarray
    freeze_width: float
    shrink_count: int = 0


def make_demand_state(grid: DemandGrid, horizon: int, freeze_width: float | None = None) -> DemandPolicyState:
    """Fresh state over ``grid``: every cell at S=(0,1], price 0, eps 1/2. The freeze
    width defaults to :func:`default_gamma` and must be finite and positive."""
    freeze_width = positive(
        default_gamma(horizon) if freeze_width is None else freeze_width, "freeze_width"
    )
    n = grid.n_cells
    return DemandPolicyState(
        grid=grid,
        s_lo=np.zeros(n),
        s_hi=np.ones(n),
        price=np.zeros(n),
        eps=np.full(n, 0.5),
        freeze_width=freeze_width,
    )


def cell_price(state: DemandPolicyState, d: float) -> float:
    """Price the policy posts for demand d (the current price of d's cell)."""
    return float(state.price[interval_index(state.grid, d) - 1])


def demand_step(
    state: DemandPolicyState, d: float, total_production: float
) -> tuple[float, DemandPolicyState]:
    """One period: returns (price offered, updated state).

    ``total_production`` is the aggregate best response observed at the
    cell's current price; a cell wider than the freeze width updates as
    :func:`eqprice.kernels.demand_update` describes. Comparing against the
    cell lower bound rather than d itself is what rounds demands down
    within a cell. A NaN production is rejected.
    """
    if math.isnan(total_production):
        raise ValueError("observed production must not be NaN")
    grid = state.grid
    k = interval_index(grid, d)
    offered = float(state.price[k - 1])
    if not kernels.cell_searching(state.s_lo, state.s_hi, k - 1, state.freeze_width):
        return offered, state
    s_lo, s_hi, price, eps = (
        x.tolist() for x in (state.s_lo, state.s_hi, state.price, state.eps)
    )
    shrinks = state.shrink_count + kernels.demand_update(
        s_lo, s_hi, price, eps, k - 1, float(total_production), grid.d_lo, grid.gamma
    )
    return offered, replace(
        state, s_lo=np.array(s_lo), s_hi=np.array(s_hi), price=np.array(price),
        eps=np.array(eps), shrink_count=shrinks,
    )


def max_total_shrinks(grid: DemandGrid, horizon: int) -> int:
    """Ceiling K_d * (ceil(log2 log2 sqrt(T)) + 2) on shrink events."""
    root = math.sqrt(horizon)
    if root < 4:
        per_cell = 2
    else:
        per_cell = math.ceil(math.log2(math.log2(root))) + 2
    return grid.n_cells * per_cell
