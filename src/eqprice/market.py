"""Market model: cost families, best responses, exact clearing prices, and
the per-period regret of a posted price path.

A market instance is a list of supplier cost functions, a demand sequence,
an optional context sequence, and a horizon. Suppliers are price takers: at
a posted price ``p`` each produces the quantity maximizing ``p*x - cost(x)``
over ``x >= 0``. The clearing price of a demand ``d`` is the price at which
aggregate best-response production equals ``d``; for convex costs it is also
the price minimizing total production cost and total payment among all
allocations meeting ``d``, which is what :meth:`MarketInstance.regret_columns`
measures against.

The scalar functions (:func:`best_response`, :func:`aggregate_production`,
:func:`equilibrium_price`, :meth:`CostSpec.cost`) serve one price at a time;
:class:`MarketInstance` computes the same quantities over a whole horizon
for the supplier mixes the policies run on. Prices are normalized to
[0, 1]; instance constructors reject inputs whose clearing price would fall
outside that range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .features import FEATURE_MAP_IDS, apply_feature_map

QUADRATIC = "quadratic"
LINEAR = "linear"
CONTEXT_QUADRATIC = "context_quadratic"

class InfeasibleMarket(ValueError):
    """Demand cannot be met at any price in [0, 1]."""


@dataclass(frozen=True)
class CostSpec:
    """One supplier's cost function.

    Families:

    - ``quadratic``: cost(x) = (mu/2) x^2 + a x with curvature ``mu > 0``
      and marginal-cost intercept ``a >= 0``. Strongly convex with
      modulus ``mu``; cost(0) = 0.
    - ``linear``: cost(x) = c x on [0, cap]. Not strongly convex; used by
      the hardness demonstrations only. At p == c any quantity is
      profit-equivalent; the supplier produces ``cap`` (deterministic
      one-sided jump).
    - ``context_quadratic``: cost(x; theta) = x^2 / (2 <phi, sigma(theta)>)
      where sigma is the feature map named by ``feature_map_id``. Requires
      <phi, sigma(theta)> > 0 for every admissible context.
    """

    family: str
    mu: float = 0.0
    a: float = 0.0
    c: float = 0.0
    cap: float = 0.0
    phi: tuple[float, ...] = ()
    feature_map_id: str = "identity"

    def __post_init__(self):
        for name in ("mu", "a", "c", "cap", "phi"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"cost parameter {name} must be finite, got {value}")
        if self.feature_map_id not in FEATURE_MAP_IDS:
            raise ValueError(
                f"feature_map_id must be one of {FEATURE_MAP_IDS}, got {self.feature_map_id!r}"
            )
        if self.family == QUADRATIC:
            if not self.mu > 0:
                raise ValueError("quadratic family requires curvature mu > 0")
            if self.a < 0:
                raise ValueError("quadratic intercept a must be >= 0")
        elif self.family == LINEAR:
            if not self.c > 0:
                raise ValueError("linear family requires unit cost c > 0")
            if not self.cap > 0:
                raise ValueError("linear family requires a production cap > 0")
        elif self.family == CONTEXT_QUADRATIC:
            if len(self.phi) == 0:
                raise ValueError("context_quadratic family requires a parameter vector")
        else:
            raise ValueError(f"unknown cost family {self.family!r}")

    @classmethod
    def quadratic(cls, mu: float, a: float = 0.0) -> "CostSpec":
        return cls(family=QUADRATIC, mu=float(mu), a=float(a))

    @classmethod
    def linear(cls, c: float, cap: float) -> "CostSpec":
        return cls(family=LINEAR, c=float(c), cap=float(cap))

    @classmethod
    def context_quadratic(
        cls, phi: Sequence[float], feature_map_id: str = "identity"
    ) -> "CostSpec":
        return cls(
            family=CONTEXT_QUADRATIC,
            phi=tuple(float(v) for v in phi),
            feature_map_id=feature_map_id,
        )

    @property
    def strongly_convex(self) -> bool:
        return self.family in (QUADRATIC, CONTEXT_QUADRATIC)

    def coefficient(self, theta) -> float:
        """<phi, sigma(theta)>, the inverse curvature of the contextual family."""
        if self.family != CONTEXT_QUADRATIC:
            raise ValueError("coefficient is defined for the context_quadratic family")
        u = float(np.dot(self.phi, apply_feature_map(self.feature_map_id, theta)))
        if not u > 0:
            raise ValueError(
                f"context_quadratic requires <phi, sigma(theta)> > 0, got {u}"
            )
        return u

    def cost(self, x: float, theta=None) -> float:
        """Production cost of quantity ``x`` (context required iff contextual)."""
        if x < 0:
            raise ValueError("production quantity must be >= 0")
        if self.family == QUADRATIC:
            return 0.5 * self.mu * x * x + self.a * x
        if self.family == LINEAR:
            return self.c * x
        return x * x / (2.0 * self._require_coefficient(theta))

    def marginal_cost(self, x: float, theta=None) -> float:
        if self.family == QUADRATIC:
            return self.mu * x + self.a
        if self.family == LINEAR:
            return self.c
        return x / self._require_coefficient(theta)

    def _require_coefficient(self, theta) -> float:
        if theta is None:
            raise ValueError("context_quadratic cost requires a context")
        return self.coefficient(theta)

    def to_json_dict(self) -> dict:
        if self.family == QUADRATIC:
            return {"family": QUADRATIC, "mu": self.mu, "a": self.a}
        if self.family == LINEAR:
            return {"family": LINEAR, "c": self.c, "cap": self.cap}
        return {
            "family": CONTEXT_QUADRATIC,
            "phi": list(self.phi),
            "feature_map_id": self.feature_map_id,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CostSpec":
        fam = doc["family"]
        if fam == QUADRATIC:
            return cls.quadratic(doc["mu"], doc.get("a", 0.0))
        if fam == LINEAR:
            return cls.linear(doc["c"], doc["cap"])
        if fam == CONTEXT_QUADRATIC:
            return cls.context_quadratic(doc["phi"], doc.get("feature_map_id", "identity"))
        raise ValueError(f"unknown cost family {fam!r}")


def _check_class_member(i: int, member) -> None:
    """The rule for entry ``i`` of a contextual function class: a
    ``context_quadratic`` :class:`CostSpec`, whose constructor has already
    checked it as it checks a supplier."""
    if not (isinstance(member, CostSpec) and member.family == CONTEXT_QUADRATIC):
        raise ValueError(f"class member {i} must be a context_quadratic CostSpec")


@dataclass(frozen=True)
class Allocation:
    """Per-supplier production quantities at a posted price."""

    per_supplier: tuple[float, ...]
    total: float


def best_response(cost: CostSpec, p: float, theta=None) -> float:
    """Profit-maximizing production at posted price ``p``.

    quadratic: max(0, (p - a)/mu); linear: 0 below c, cap at or above c;
    context_quadratic: p * <phi, sigma(theta)>.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"price must lie in [0, 1], got {p}")
    if cost.family == QUADRATIC:
        return max(0.0, (p - cost.a) / cost.mu)
    if cost.family == LINEAR:
        return cost.cap if p >= cost.c else 0.0
    if theta is None:
        raise ValueError("best_response for context_quadratic requires a context")
    return p * cost.coefficient(theta)


def aggregate_production(
    suppliers: Sequence[CostSpec], p: float, theta=None
) -> Allocation:
    """Best responses of every supplier at ``p`` and their sum."""
    per = tuple(best_response(s, p, theta) for s in suppliers)
    total = 0.0
    for x in per:
        total += x
    return Allocation(per_supplier=per, total=total)


def _clearing_prices(
    slopes: np.ndarray, intercepts: np.ndarray, demands: np.ndarray
) -> np.ndarray:
    """Exact clearing prices of a market whose supplier ``i`` produces
    ``slopes[i] * max(0, p - intercepts[i])`` at price ``p``.

    Aggregate supply is piecewise linear with kinks at the sorted
    intercepts. Supply at each kink locates every demand's active set (the
    suppliers whose intercept lies below its clearing price) by
    ``searchsorted``; over that set S(p) = p * sum(s) - sum(s * a), so
    p* = (d + sum(s * a)) / sum(s). Demands must be positive and the slopes
    positive; feasibility at p = 1 is the caller's check.
    """
    slopes = np.asarray(slopes, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    if np.any(demands <= 0):
        raise ValueError("demand must be positive")
    order = np.argsort(intercepts, kind="stable")
    a = intercepts[order]
    s = slopes[order]
    cum_s = np.cumsum(s)
    cum_sa = np.cumsum(s * a)
    # Supply at the k-th kink; rounding can break ties in a, so keep it monotone.
    kink_supply = np.maximum.accumulate(a * cum_s - cum_sa)
    k = np.searchsorted(kink_supply, demands, side="left") - 1
    return np.minimum((demands + cum_sa[k]) / cum_s[k], 1.0)


def equilibrium_price(suppliers: Sequence[CostSpec], d: float, theta=None) -> float:
    """Market-clearing price: the exact root of total production(p) = d.

    Requires every supplier strongly convex and the demand feasible at
    p = 1. A quadratic supplier responds with slope 1/mu above its
    intercept a, a contextual one with slope <phi, sigma(theta)> above 0,
    so mixed markets solve through the same exact formula. By the
    first-order conditions the price equals every active supplier's
    marginal cost, so it also minimizes total cost and total payment among
    demand-feasible allocations.
    """
    if d <= 0:
        raise ValueError("demand must be positive")
    for s in suppliers:
        if not s.strongly_convex:
            raise ValueError(
                "equilibrium_price requires strongly convex suppliers; "
                f"{s.family} family present"
            )
    if aggregate_production(suppliers, 1.0, theta).total < d:
        raise InfeasibleMarket(
            f"aggregate production at p=1 is below demand {d}; no clearing price in [0, 1]"
        )
    slopes = [1.0 / s.mu if s.family == QUADRATIC else s.coefficient(theta) for s in suppliers]
    intercepts = [s.a if s.family == QUADRATIC else 0.0 for s in suppliers]
    return float(_clearing_prices(slopes, intercepts, [d])[0])


def equilibrium_price_batch(
    mus: np.ndarray, intercepts: np.ndarray, demands: np.ndarray
) -> np.ndarray:
    """Exact clearing prices of an all-quadratic market over many demands.

    Element-for-element identical to calling :func:`equilibrium_price` per
    demand.
    """
    mus = np.asarray(mus, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    # Production at p = 1, summed in supplier order as aggregate_production does.
    cap = 0.0
    for mu, a in zip(mus, intercepts):
        cap += max(0.0, (1.0 - a) / mu)
    if np.any(demands > cap):
        raise InfeasibleMarket("some demands infeasible at p=1")
    return _clearing_prices(1.0 / mus, intercepts, demands)


# ---------------------------------------------------------------------------
# Instances and their JSON form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """Seedable sequence generator named in an instance file.

    kinds: ``constant`` (value), ``uniform`` (lo, hi) for demands,
    ``uniform_cube`` (lo, hi, dim) for contexts. Draws use the replication's
    Philox stream; see the harness docs for the draw order. An unknown kind,
    a non-finite value, lo or hi, hi < lo and a cube with dim < 1 are
    rejected.
    """

    kind: str
    value: float = 0.0
    lo: float = 0.0
    hi: float = 0.0
    dim: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "uniform", "uniform_cube"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        for name in ("value", "lo", "hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"generator {name} must be finite, got {getattr(self, name)}")
        if self.hi < self.lo:
            raise ValueError(f"generator needs lo <= hi, got lo={self.lo}, hi={self.hi}")
        if self.kind == "uniform_cube" and self.dim < 1:
            raise ValueError(f"uniform_cube needs dim >= 1, got {self.dim}")

    def to_json_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "uniform":
            return {"kind": "uniform", "lo": self.lo, "hi": self.hi}
        return {"kind": "uniform_cube", "lo": self.lo, "hi": self.hi, "dim": self.dim}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GeneratorSpec":
        kind = doc["kind"]
        if kind == "constant":
            return cls(kind="constant", value=float(doc["value"]))
        if kind == "uniform":
            return cls(kind="uniform", lo=float(doc["lo"]), hi=float(doc["hi"]))
        if kind == "uniform_cube":
            return cls(
                kind="uniform_cube",
                lo=float(doc["lo"]),
                hi=float(doc["hi"]),
                dim=int(doc["dim"]),
            )
        raise ValueError(f"unknown generator kind {kind!r}")

    def bounds(self) -> tuple[float, float]:
        if self.kind == "constant":
            return (self.value, self.value)
        return (self.lo, self.hi)


@dataclass(frozen=True)
class InstanceSpec:
    """Serializable description of a market instance.

    ``demands`` and ``contexts`` are either explicit sequences or
    :class:`GeneratorSpec` entries materialized per replication by the
    harness. ``function_class`` optionally lists candidate production
    functions for the contextual policy as ``context_quadratic`` cost
    records (the JSON of :class:`CostSpec`); ``class_bound`` is their shared
    output bound B. Each member is parsed and checked when the spec is
    built; the bound is checked by the :class:`~eqprice.oracle.FunctionClass`
    the contextual policy builds from them.
    """

    suppliers: tuple[CostSpec, ...]
    demands: tuple[float, ...] | GeneratorSpec
    horizon: int
    contexts: tuple[tuple[float, ...], ...] | GeneratorSpec | None = None
    demand_bounds: tuple[float, float] | None = None
    function_class: tuple[dict, ...] | None = None
    class_bound: float | None = None

    def __post_init__(self):
        for i, member in enumerate(self.function_class or ()):
            _check_class_member(i, CostSpec.from_json_dict(member))

    def to_json_dict(self) -> dict:
        doc: dict = {
            "suppliers": [s.to_json_dict() for s in self.suppliers],
            "demands": (
                self.demands.to_json_dict()
                if isinstance(self.demands, GeneratorSpec)
                else list(self.demands)
            ),
            "horizon": self.horizon,
        }
        if self.contexts is not None:
            doc["contexts"] = (
                self.contexts.to_json_dict()
                if isinstance(self.contexts, GeneratorSpec)
                else [list(row) for row in self.contexts]
            )
        if self.demand_bounds is not None:
            doc["demand_bounds"] = list(self.demand_bounds)
        if self.function_class is not None:
            doc["function_class"] = [dict(m) for m in self.function_class]
        if self.class_bound is not None:
            doc["class_bound"] = self.class_bound
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "InstanceSpec":
        suppliers = tuple(CostSpec.from_json_dict(s) for s in doc["suppliers"])
        raw_d = doc["demands"]
        demands = (
            GeneratorSpec.from_json_dict(raw_d)
            if isinstance(raw_d, dict)
            else tuple(float(v) for v in raw_d)
        )
        raw_c = doc.get("contexts")
        if raw_c is None:
            contexts = None
        elif isinstance(raw_c, dict):
            contexts = GeneratorSpec.from_json_dict(raw_c)
        else:
            contexts = tuple(tuple(float(v) for v in row) for row in raw_c)
        fc = doc.get("function_class")
        return cls(
            suppliers=suppliers,
            demands=demands,
            horizon=int(doc["horizon"]),
            contexts=contexts,
            demand_bounds=(
                tuple(float(v) for v in doc["demand_bounds"])
                if "demand_bounds" in doc
                else None
            ),
            function_class=tuple(dict(m) for m in fc) if fc is not None else None,
            class_bound=float(doc["class_bound"]) if "class_bound" in doc else None,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "InstanceSpec":
        return cls.from_json_dict(json.loads(text))

    def with_horizon(self, horizon: int) -> "InstanceSpec":
        return replace(self, horizon=int(horizon))

    def materialize(self, rng: np.random.Generator) -> "MarketInstance":
        """Draw any generated sequences and validate the concrete instance.

        Draw order: demands first (T uniforms when generated), then contexts
        (T*dim uniforms, row-major). Explicit sequences consume no draws.
        """
        T = self.horizon
        if isinstance(self.demands, GeneratorSpec):
            g = self.demands
            if g.kind == "constant":
                demands = np.full(T, g.value)
            elif g.kind == "uniform":
                demands = rng.uniform(g.lo, g.hi, T)
            else:
                raise ValueError(f"demand generator kind {g.kind!r} not supported")
            bounds = self.demand_bounds or g.bounds()
        else:
            demands = np.asarray(self.demands, dtype=np.float64)
            bounds = self.demand_bounds or (float(demands.min()), float(demands.max()))
        if isinstance(self.contexts, GeneratorSpec):
            g = self.contexts
            if g.kind != "uniform_cube":
                raise ValueError(f"context generator kind {g.kind!r} not supported")
            contexts = rng.uniform(g.lo, g.hi, (T, g.dim))
        elif self.contexts is not None:
            contexts = np.asarray(self.contexts, dtype=np.float64)
        else:
            contexts = None
        return MarketInstance(
            suppliers=self.suppliers,
            demands=demands,
            contexts=contexts,
            horizon=T,
            demand_bounds=bounds,
        )


@dataclass
class MarketInstance:
    """Concrete instance: suppliers, a demand path, optional contexts, horizon.

    The constructor checks sequence lengths, that demands and contexts are
    finite, the demand bounds, and that the clearing price lies in [0, 1]
    at every period: production at p = 1 must cover every demand, with no
    slack, the same rule the clearing-price solvers apply.

    It also fixes the supplier ``mix`` the policies run on, rejecting any
    other: all ``quadratic``, a single ``linear`` supplier, or all
    ``context_quadratic``. An all-contextual market produces p * u_t in
    period t, where ``coefficients`` is the path u_t = sum_i <phi_i,
    sigma(theta_t)>, computed once here (``None`` for the other mixes).
    ``constant_demand`` records whether every period has the same demand.
    """

    suppliers: tuple[CostSpec, ...]
    demands: np.ndarray
    contexts: np.ndarray | None
    horizon: int
    demand_bounds: tuple[float, float]
    mix: str = field(init=False)
    constant_demand: bool = field(init=False)
    coefficients: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        self.suppliers = tuple(self.suppliers)
        self.demands = np.asarray(self.demands, dtype=np.float64)
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.demands.shape != (self.horizon,):
            raise ValueError("demand sequence length must equal the horizon")
        # min and max are NaN when any demand is, so this also rejects NaN
        d_min, d_max = float(self.demands.min()), float(self.demands.max())
        if not (math.isfinite(d_min) and math.isfinite(d_max)):
            raise ValueError("demands must be finite")
        self.constant_demand = d_min == d_max
        d_lo, d_hi = self.demand_bounds
        if not (0.0 < d_lo <= d_hi < math.inf):
            raise ValueError("demand bounds must satisfy 0 < d_lo <= d_hi < inf")
        if d_min < d_lo - 1e-12 or d_max > d_hi + 1e-12:
            raise ValueError("demands fall outside the declared bounds")
        if self.contexts is not None:
            self.contexts = np.asarray(self.contexts, dtype=np.float64)
            if self.contexts.ndim != 2 or self.contexts.shape[0] != self.horizon:
                raise ValueError("context sequence must be (horizon, dim)")
            if not np.all(np.isfinite(self.contexts)):
                raise ValueError("contexts must be finite")

        families = {s.family for s in self.suppliers}
        if len(families) != 1:
            raise ValueError(
                "harness trajectories support all-quadratic, single-linear, or "
                f"all-contextual instances; got families {sorted(families)}"
            )
        if families == {LINEAR} and len(self.suppliers) != 1:
            raise ValueError("linear instances support a single supplier")
        self.mix = families.pop()

        self.coefficients = None
        if self.mix == CONTEXT_QUADRATIC:
            if self.contexts is None:
                raise ValueError("contextual suppliers require a context sequence")
            total = np.zeros(self.horizon)
            for i, s in enumerate(self.suppliers):
                feats = apply_feature_map(s.feature_map_id, self.contexts)
                if feats.shape[1] != len(s.phi):
                    raise ValueError(
                        f"supplier {i} has {len(s.phi)} parameters, context "
                        f"{feats.shape[1]} features"
                    )
                # A matrix product, not the class members' left-to-right sum
                # (FunctionClass.member_coefficients): the two differ in the
                # last bit on some periods, and this path's bits are the ones
                # recorded in the committed benchmark reference digests.
                u = feats @ np.asarray(s.phi)
                if not u.min() > 0:
                    raise ValueError(
                        "context_quadratic requires <phi, sigma(theta)> > 0 "
                        "for every period"
                    )
                total += u
            self.coefficients = total

        # Clearing price <= 1 iff production at p = 1 covers the demand. That
        # production is one number unless the market is contextual.
        top, _ = self._production(1.0)
        if np.any(top < (self.demands if np.ndim(top) else d_max)):
            raise InfeasibleMarket(
                "clearing price above 1 for some period: production at p=1 "
                f"falls short of the demand (maximum demand {d_max})"
            )

    def _production(self, prices):
        """(total production, total cost) of the best responses at posted
        prices, one price or one per period.

        Each contextual supplier's cost x_i^2 / (2 u_i) equals p x_i / 2, so
        an all-contextual market costs p x / 2 in total.
        """
        if self.mix == CONTEXT_QUADRATIC:
            tot = prices * self.coefficients
            return tot, 0.5 * prices * tot
        tot = np.zeros(np.shape(prices))
        cost = np.zeros(np.shape(prices))
        for s in self.suppliers:
            if self.mix == QUADRATIC:
                x = np.maximum(0.0, (prices - s.a) / s.mu)
                cost += 0.5 * s.mu * x * x + s.a * x
            else:
                x = np.where(prices >= s.c, s.cap, 0.0)
                cost += s.c * x
            tot += x
        return tot, cost

    @property
    def _price_only(self) -> bool:
        """Whether every period clears alike, so that each regret column is
        a function of the posted price alone: a quadratic or linear market
        with a constant demand."""
        return self.constant_demand and self.mix != CONTEXT_QUADRATIC

    def _clearing_cost_and_payment(self) -> tuple[np.ndarray, np.ndarray]:
        """Total cost and total payment of every period's clearing allocation.

        A quadratic or linear market with a constant demand clears the same
        way in every period, so it solves one period and returns arrays of
        shape (1,), which broadcast over the horizon.
        """
        demands = self.demands[:1] if self._price_only else self.demands
        if self.mix == LINEAR:
            # p* = c, where the supplier is indifferent and the clearing
            # allocation produces exactly the demand.
            base = self.suppliers[0].c * demands
            return base, base
        if self.mix == QUADRATIC:
            p_stars = equilibrium_price_batch(
                np.array([s.mu for s in self.suppliers]),
                np.array([s.a for s in self.suppliers]),
                demands,
            )
        else:
            p_stars = demands / self.coefficients
        tot_eq, cost_eq = self._production(p_stars)
        return cost_eq, p_stars * tot_eq

    def regret_columns(self, prices: np.ndarray) -> dict:
        """Per-period production and regret increments of a posted price path.

        Measured against every period's clearing allocation:
        ``unmet_inc`` = (d_t - x_t)_+, and ``cost_inc`` and ``pay_inc`` are
        the total cost and payment at the posted price minus those of the
        clearing allocation (signed). Keys are the
        :class:`~eqprice.harness.RunRecord` column names ``price``,
        ``production``, ``unmet_inc``, ``cost_inc`` and ``pay_inc``.

        When every period clears alike (a quadratic or linear market with a
        constant demand), the columns are computed once per run of
        bit-equal prices and repeated over it, so the work scales with the
        number of price changes; the values are those of the per-period
        pass, since each is the same arithmetic on the same operands.
        """
        prices = np.asarray(prices, dtype=np.float64)
        if prices.shape != (self.horizon,):
            raise ValueError("price path length must equal the horizon")
        if not (0.0 <= prices.min() and prices.max() <= 1.0):
            raise ValueError("prices must lie in [0, 1]")
        cost_eq, pay_eq = self._clearing_cost_and_payment()
        posted, demands = prices, self.demands
        if self._price_only:
            # bit patterns, so that 0.0 and -0.0 stay apart
            bits = prices.view(np.int64)
            starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
            posted, demands = prices[starts], demands[:1]
        prod, cost = self._production(posted)
        cols = dict(
            production=prod,
            unmet_inc=np.maximum(0.0, demands - prod),
            cost_inc=cost - cost_eq,
            pay_inc=posted * prod - pay_eq,
        )
        if self._price_only:
            lengths = np.diff(np.append(starts, self.horizon))
            cols = {k: np.repeat(v, lengths) for k, v in cols.items()}
        return dict(price=prices, **cols)
