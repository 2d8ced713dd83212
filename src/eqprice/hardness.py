"""Executable hardness demonstrations.

Two fixed constructions show when sub-linear regret on all three metrics
is impossible:

- A single supplier whose quadratic cost is redrawn i.i.d. each period
  between x^2/8 and x^2/16 (clearing prices 1/4 and 1/8) under fixed demand
  1 (the ``IID_*`` constants). No fixed price escapes an expected
  per-period total regret of at least 7/64, so the sum of the three metrics
  grows linearly for any policy. :func:`verify_lower_bound` checks the
  closed form at the prices :data:`LOWER_BOUND_PRICES`.

- A single supplier with linear cost 0.4 x up to a cap of 2 under fixed
  demand 1 (the ``LINEAR_*`` constants): production jumps from 0 to the
  cap at p = c, so any price below the clearing price forfeits the whole
  demand while any price above overpays, and the three metrics cannot all
  be sub-linear.

Realized regret comes from :meth:`eqprice.market.MarketInstance.regret_columns`,
the pass the harness applies to every policy's price path, so the
demonstrations measure regret exactly as the policy runs do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harness import ExperimentConfig, _fit_line, replication_stream, run_experiment, seed_key
from .market import (
    CostSpec, GeneratorSpec, InstanceSpec, MarketInstance, integral, price_array
)


# The i.i.d. instance: the stiffer cost x^2/8 with probability 1/2, else
# x^2/16, at demand 1. Clearing prices are 1/4 and 1/8 respectively.
IID_STIFF_COST = CostSpec.quadratic(mu=0.25, a=0.0)
IID_SOFT_COST = CostSpec.quadratic(mu=0.125, a=0.0)
IID_STIFF_PROB = 0.5
IID_DEMAND = 1.0
#: Prices at which :func:`verify_lower_bound` simulates the i.i.d. instance:
#: 0, the minimizer 1/8, the other kink 1/4, and 1/2.
LOWER_BOUND_PRICES = (0.0, 0.125, 0.25, 0.5)
#: (lower end, upper end, b, c) of each piece 9p^2 + b p + c of
#: :func:`expected_total_regret`: both draws leave unmet demand below 1/8,
#: only the stiffer cost does up to 1/4, and neither does above.
IID_REGRET_PIECES = (
    (0.0, 0.125, -6.0, 23.0 / 32.0),
    (0.125, 0.25, -2.0, 7.0 / 32.0),
    (0.25, 1.0, 0.0, -9.0 / 32.0),
)

# The linear instance: cost 0.4 x up to a cap of 2 at demand 1, so the
# clearing price is the unit cost 0.4 and the cap covers the demand.
LINEAR_UNIT_COST = 0.4
LINEAR_DEMAND = 1.0
LINEAR_CAP = 2.0


def expected_total_regret(p):
    """Expected per-period (unmet + cost regret + payment regret) at price
    ``p``: a float at one price, an array at an array of prices. A price
    outside [0, 1] or NaN is rejected, naming the first.

    Piecewise in p, one quadratic per :data:`IID_REGRET_PIECES` row, which
    meet exactly at the kinks; minimized at the kink p = 1/8 with value 7/64.
    An entry has the bits of its piece on one Python float.
    """
    p = price_array(p)
    _, upper, b, c = np.array(IID_REGRET_PIECES).T
    i = np.searchsorted(upper, p)
    r = 9.0 * p * p + b[i] * p + c[i]  # summed left to right
    return r if p.ndim else float(r)


@dataclass(frozen=True)
class LowerBoundRow:
    price: float
    analytic: float
    empirical: float
    n_periods: int
    seed: int


@dataclass(frozen=True)
class LowerBoundReport:
    """Exact minimum of the expected total regret plus Monte Carlo rows."""

    argmin: float
    minimum: float
    rows: tuple[LowerBoundRow, ...]

    def to_csv_rows(self) -> list[str]:
        return ["p,analytic,empirical,n_periods,seed"] + [
            f"{r.price:.17g},{r.analytic:.17g},{r.empirical:.17g},{r.n_periods},{r.seed}"
            for r in self.rows
        ]


def verify_lower_bound(n_periods: int = 100_000, seed: int = 0) -> LowerBoundReport:
    """Compute the exact minimum of the expected total regret, the least
    value at a convex piece's vertex -b/18 clipped into the piece, and check
    the closed form against seeded i.i.d. simulation.

    The report has one row per price of :data:`LOWER_BOUND_PRICES`. Its
    empirical value is the average realized total regret over ``n_periods``
    draws of the i.i.d. instance's mixture, drawn from replication 0 of
    ``seed`` (:func:`~eqprice.harness.replication_stream`), with the
    per-draw regret evaluated by the market model. The instance is fixed
    because :func:`expected_total_regret`, the analytic column, is the
    closed form for that mixture only.

    ``n_periods`` must be an integer of at least 1 and ``seed`` an integer
    in [0, 2**128) (:func:`~eqprice.harness.seed_key`); any other value
    raises ``ValueError`` naming it.
    """
    n_periods = integral(n_periods, "n_periods")
    if n_periods < 1:
        raise ValueError(f"n_periods must be at least 1, got {n_periods!r}")
    seed = seed_key(seed, 0)
    minimum, argmin = min(
        (expected_total_regret(v), v)
        for v in (min(max(-b / 18.0, lo), hi) for lo, hi, b, _ in IID_REGRET_PIECES)
    )

    # realized total regret at each price, one market per cost draw
    n, d = len(LOWER_BOUND_PRICES), IID_DEMAND
    totals = []
    for cost in (IID_STIFF_COST, IID_SOFT_COST):
        market = MarketInstance(
            suppliers=(cost,), demands=np.full(n, d), contexts=None, horizon=n,
            demand_bounds=(d, d),
        )
        cols = market.regret_columns(np.array(LOWER_BOUND_PRICES))
        totals.append((cols["unmet_inc"] + cols["cost_inc"] + cols["pay_inc"]).tolist())
    rng = replication_stream(seed, 0)
    rows = []
    for p, total_a, total_b in zip(LOWER_BOUND_PRICES, *totals):
        # the stream's next n_periods draws, counted 2**16 at a time
        stiff = sum(
            np.count_nonzero(rng.uniform(0.0, 1.0, min(2**16, n_periods - i)) < IID_STIFF_PROB)
            for i in range(0, n_periods, 2**16)
        )
        frac_a = float(stiff) / n_periods
        empirical = frac_a * total_a + (1.0 - frac_a) * total_b
        rows.append(LowerBoundRow(p, expected_total_regret(p), empirical, n_periods, seed))
    return LowerBoundReport(argmin=argmin, minimum=minimum, rows=tuple(rows))


@dataclass(frozen=True)
class LinearDemoReport:
    """Trajectory summary of a policy on the linear-cost instance.

    slope/intercept/r_squared fit the cumulative total regret against t.
    ``per_period_bound`` is the analytic floor on one period's total regret
    away from the clearing price; ``bound_violations`` counts periods below
    it (zero is the expected outcome).
    """

    policy: str
    horizon: int
    unit_cost: float
    cap: float
    demand: float
    unmet: float
    cost_regret: float
    payment_regret: float
    slope: float
    intercept: float
    r_squared: float
    per_period_bound: float
    bound_violations: int


def linear_cost_demo(horizon: int = 10_000, seed: int = 0) -> LinearDemoReport:
    """Run interval tracking against the linear-cost instance (unit cost
    c = :data:`LINEAR_UNIT_COST`, cap :data:`LINEAR_CAP`, demand d =
    :data:`LINEAR_DEMAND`) and fit the growth of the summed regret metrics.

    The clearing price is the unit cost c itself (the cap covers d), so the
    regret baseline is payment and cost c*d per period with zero unmet
    demand; no equilibrium solve is involved. A period priced below c
    contributes d - 2*c*d in total (positive, as c < 1/2) and a period
    priced at or above c contributes at least 2*c, so away from p = c the
    per-period total regret is floored by the smaller of the two.

    The ``fixed_interval`` run goes through
    :func:`~eqprice.harness.run_experiment` with ``seed`` as its base seed.
    The run is deterministic: its constant demand draws nothing and the
    tracker has no randomness, so ``seed`` is checked as a base seed and
    changes no result.
    """
    if horizon < 2:
        raise ValueError("linear_cost_demo needs horizon >= 2 to fit a line")
    unit_cost, demand = LINEAR_UNIT_COST, LINEAR_DEMAND
    instance = InstanceSpec(
        suppliers=(CostSpec.linear(c=unit_cost, cap=LINEAR_CAP),),
        demands=GeneratorSpec(kind="constant", value=demand),
        horizon=horizon,
    )
    config = ExperimentConfig(
        instance=instance, policy="fixed_interval", horizons=(horizon,), seed=seed
    )
    rec = run_experiment(config)[0]

    cost_eq = pay_eq = unit_cost * demand
    below_total = demand + (0.0 - cost_eq) + (0.0 - pay_eq)
    bound = min(below_total, 2.0 * unit_cost)
    totals = rec.unmet_inc + rec.cost_inc + rec.pay_inc
    violations = np.count_nonzero((rec.price != unit_cost) & (totals < bound - 1e-12))

    slope, intercept, r2 = _fit_line(np.arange(1.0, horizon + 1), np.cumsum(totals))

    return LinearDemoReport(
        policy=rec.policy,
        horizon=horizon,
        unit_cost=unit_cost,
        cap=LINEAR_CAP,
        demand=demand,
        unmet=rec.unmet,
        cost_regret=rec.cost_regret,
        payment_regret=rec.payment_regret,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        per_period_bound=bound,
        bound_violations=int(violations),
    )
