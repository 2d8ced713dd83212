"""Executable hardness demonstrations.

Two constructions show when sub-linear regret on all three metrics is
impossible:

- A single supplier whose quadratic cost is redrawn i.i.d. each period
  between x^2/8 and x^2/16 (clearing prices 1/4 and 1/8) under fixed demand
  1. No fixed price escapes an expected per-period total regret of at least
  7/64, so the sum of the three metrics grows linearly for any policy.

- A single supplier with linear cost c*x: production jumps from 0 to the
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

from .harness import ExperimentConfig, run_experiment
from .market import CostSpec, GeneratorSpec, InstanceSpec, MarketInstance


@dataclass(frozen=True)
class IidCostInstance:
    """Two-point cost mixture: x^2/8 or x^2/16 with probability 1/2 each,
    demand fixed at 1. Clearing prices are 1/4 and 1/8 respectively."""

    cost_a: CostSpec = CostSpec.quadratic(mu=0.25, a=0.0)
    cost_b: CostSpec = CostSpec.quadratic(mu=0.125, a=0.0)
    prob_a: float = 0.5
    demand: float = 1.0


def expected_total_regret(p: float) -> float:
    """Expected per-period (unmet + cost regret + payment regret) at price p.

    Piecewise in p: 9p^2 - 6p + 23/32 below 1/8 (both draws leave unmet
    demand), 9p^2 - 2p + 7/32 on [1/8, 1/4] (only the stiffer cost does),
    and 9p^2 - 9/32 above 1/4. Minimized at the kink p = 1/8 with value
    7/64.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("price must lie in [0, 1]")
    if p < 0.125:
        return 9.0 * p * p - 6.0 * p + 23.0 / 32.0
    if p <= 0.25:
        return 9.0 * p * p - 2.0 * p + 7.0 / 32.0
    return 9.0 * p * p - 9.0 / 32.0


def per_period_total_regret(instance: IidCostInstance, p: float, stiff_draw: bool) -> float:
    """Realized total regret of one period given which cost was drawn,
    computed by :meth:`~eqprice.market.MarketInstance.regret_columns` on a
    one-period market (not the closed form)."""
    cost = instance.cost_a if stiff_draw else instance.cost_b
    d = instance.demand
    market = MarketInstance(
        suppliers=(cost,), demands=np.array([d]), contexts=None, horizon=1,
        demand_bounds=(d, d),
    )
    cols = market.regret_columns(np.array([p]))
    return float(cols["unmet_inc"][0] + cols["cost_inc"][0] + cols["pay_inc"][0])


@dataclass(frozen=True)
class LowerBoundRow:
    price: float
    analytic: float
    empirical: float
    n_periods: int
    seed: int


@dataclass(frozen=True)
class LowerBoundReport:
    """Analytic grid minimum plus Monte Carlo checks at selected prices."""

    grid_argmin: float
    grid_min: float
    rows: tuple[LowerBoundRow, ...]

    def to_csv_rows(self) -> list[str]:
        out = ["p,analytic,empirical,n_periods,seed"]
        for r in self.rows:
            out.append(
                f"{r.price:.17g},{r.analytic:.17g},{r.empirical:.17g},"
                f"{r.n_periods},{r.seed}"
            )
        return out


def verify_lower_bound(
    grid_step: float = 1e-4,
    n_periods: int = 100_000,
    seed: int = 0,
    prices: tuple[float, ...] = (0.0, 0.125, 0.25, 0.5),
) -> LowerBoundReport:
    """Locate the analytic minimum of the expected total regret on a price
    grid and check the formula against seeded i.i.d. simulation.

    The empirical value at each price is the average realized total regret
    over ``n_periods`` draws of the default :class:`IidCostInstance`
    mixture, with the per-draw regret evaluated by the market model. The
    mixture is fixed because :func:`expected_total_regret`, the analytic
    column, is the closed form for that mixture only.
    """
    instance = IidCostInstance()
    n_grid = int(round(1.0 / grid_step))
    grid = np.arange(n_grid + 1) / n_grid
    values = np.array([expected_total_regret(p) for p in grid])
    arg = int(np.argmin(values))

    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    for p in prices:
        draws = rng.uniform(0.0, 1.0, n_periods) < instance.prob_a
        frac_a = float(np.count_nonzero(draws)) / n_periods
        total_a = per_period_total_regret(instance, p, True)
        total_b = per_period_total_regret(instance, p, False)
        empirical = frac_a * total_a + (1.0 - frac_a) * total_b
        rows.append(
            LowerBoundRow(
                price=p,
                analytic=expected_total_regret(p),
                empirical=empirical,
                n_periods=n_periods,
                seed=seed,
            )
        )
    return LowerBoundReport(
        grid_argmin=float(grid[arg]), grid_min=float(values[arg]), rows=tuple(rows)
    )


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


def linear_cost_demo(
    policy: str = "fixed_interval",
    horizon: int = 10_000,
    seed: int = 0,
    unit_cost: float = 0.4,
    demand: float = 1.0,
    cap: float | None = None,
    constant_price: float | None = None,
) -> LinearDemoReport:
    """Run a policy against a single linear-cost supplier and fit the growth
    of the summed regret metrics.

    The clearing price is the unit cost c itself (with production cap >= d),
    so the regret baseline is payment and cost c*d per period with zero
    unmet demand; no equilibrium solve is involved. A period priced below c
    contributes d - 2*c*d in total (positive for c < 1/2) and a period
    priced at or above c contributes at least 2*c, so away from p = c the
    per-period total regret is floored by the smaller of the two.

    ``policy`` is ``fixed_interval`` or ``constant_price`` (the latter uses
    ``constant_price`` as the posted price); the run goes through
    :func:`~eqprice.harness.run_experiment` with ``seed`` as its base seed.
    """
    if cap is None:
        cap = 2.0 * demand
    if cap < demand:
        raise ValueError("cap below demand: clearing is impossible")
    if policy == "constant_price":
        if constant_price is None:
            raise ValueError("constant_price policy needs a price")
        params = {"p": constant_price}
    elif policy == "fixed_interval":
        params = {}
    else:
        raise ValueError(f"unsupported policy {policy!r} for the linear demo")
    instance = InstanceSpec(
        suppliers=(CostSpec.linear(c=unit_cost, cap=cap),),
        demands=GeneratorSpec(kind="constant", value=demand),
        horizon=horizon,
    )
    config = ExperimentConfig(
        instance=instance, policy=policy, horizons=(horizon,), seed=seed,
        policy_params=params,
    )
    rec = run_experiment(config)[0]

    cost_eq = pay_eq = unit_cost * demand
    below_total = demand + (0.0 - cost_eq) + (0.0 - pay_eq)
    bound = min(below_total, 2.0 * unit_cost)
    totals = rec.unmet_inc + rec.cost_inc + rec.pay_inc
    violations = np.count_nonzero((rec.price != unit_cost) & (totals < bound - 1e-12))

    cum = np.cumsum(totals)
    ts = np.arange(1, horizon + 1, dtype=np.float64)
    slope, intercept = np.polyfit(ts, cum, 1)
    resid = cum - (slope * ts + intercept)
    ss_tot = float(np.sum((cum - cum.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0

    return LinearDemoReport(
        policy=policy,
        horizon=horizon,
        unit_cost=unit_cost,
        cap=cap,
        demand=demand,
        unmet=rec.unmet,
        cost_regret=rec.cost_regret,
        payment_regret=rec.payment_regret,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        per_period_bound=bound,
        bound_violations=int(violations),
    )
