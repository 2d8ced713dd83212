"""Market model: cost families, best responses, exact clearing prices, and
the per-period regret of a posted price path.

A market instance is a list of supplier cost functions, a demand sequence,
an optional context sequence, and a horizon. Suppliers are price takers: at
a posted price ``p`` each produces the quantity maximizing ``p*x - cost(x)``
over ``x >= 0``. The clearing price of a demand ``d`` is the price at which
aggregate best-response production equals ``d``; for convex costs it is also
the price minimizing total production cost and total payment among all
allocations meeting ``d``, which is what :meth:`MarketInstance.regret_columns`
measures against. :func:`equilibrium_price` solves it exactly, for one
demand or an array of demands.

Supply has two forms. :func:`best_response` and :func:`aggregate_production`
take one price (as the tests drive the step-level API) or an array of prices
(as :class:`MarketInstance` prices a horizon for its regret pass), and
``eqprice.kernels.supply`` is their Python-float twin, pinned by a test.

Contextual suppliers and :class:`FunctionClass` members are both
``context_quadratic`` :class:`CostSpec` records, and
:func:`context_coefficients` computes every <phi, sigma(theta)> but one: a
:class:`MarketInstance`'s supplier path is a matrix product, whose bits the
benchmark reference records (see the comment there).

Prices are normalized to [0, 1]; instance constructors reject inputs whose
clearing price would fall outside that range.

A spec's JSON keys are its fields, or per cost family :data:`COST_FIELDS`
and per generator kind :data:`GENERATOR_FIELDS`; ``to_json_dict`` writes
them and :func:`read_json_dict` names a missing or any other key. Each
constructor reads its fields by their annotations (:func:`_read`, naming a
field it rejects) and rejects a parameter its family or kind ignores.
"""

from __future__ import annotations

import functools
import itertools
import math
import reprlib
import types
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .features import FEATURE_MAP_IDS, apply_feature_map

QUADRATIC = "quadratic"
LINEAR = "linear"
CONTEXT_QUADRATIC = "context_quadratic"

class InfeasibleMarket(ValueError):
    """Demand cannot be met at any price in [0, 1]."""


#: The JSON keys of each cost family, in file order: the parameters it reads.
COST_FIELDS = {
    QUADRATIC: ("family", "mu", "a"),
    LINEAR: ("family", "c", "cap"),
    CONTEXT_QUADRATIC: ("family", "phi", "feature_map_id"),
}
#: The JSON keys of each generator kind, in file order: the fields it reads.
GENERATOR_FIELDS = {
    "constant": ("kind", "value"),
    "uniform": ("kind", "lo", "hi"),
    "uniform_cube": ("kind", "lo", "hi", "dim"),
}
#: The table keys a document may drop, each read as its documented default.
OPTIONAL_KEYS = ("a", "feature_map_id")
#: How far outside its declared bounds a demand is still accepted.
DEMAND_SLACK = 1e-12


def read_json_dict(cls, doc: dict, table: dict | None = None):
    """``cls`` built from the JSON document ``doc``, whose keys must be the
    ``table`` row of the spec's first field (its family or kind), or else
    fields of ``cls``. A missing required field, a missing key of the row
    (but :data:`OPTIONAL_KEYS`) and any other key are named."""
    names = [f.name for f in fields(cls)]
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{cls.__name__} document lacks the required key {f.name!r}")
    tag = doc.get(names[0])
    for key in table.get(tag, ()) if table and isinstance(tag, str) else ():
        if key not in doc and key not in OPTIONAL_KEYS:
            raise ValueError(f"{cls.__name__} document of {names[0]} {tag!r} lacks the key {key!r}")
    spec = cls(**{k: v for k, v in doc.items() if k in names})
    known = table[getattr(spec, names[0])] if table else names
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown key {key!r} for {cls.__name__}; accepted: {list(known)}")
    return spec


def _json(value):
    """A field as JSON: a spec as its document, a tuple as a list."""
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value.to_json_dict() if hasattr(value, "to_json_dict") else value


_REAL = (int, float, np.integer, np.floating)
#: Every field's annotation, resolved once per class.
_annotations = functools.cache(get_type_hints)


def number(value, name: str) -> float:
    """``value`` as a float: a finite real number, not a bool, a string or None."""
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def positive(value, name: str) -> float:
    """``value`` as a float, which must be a finite number above 0."""
    if not number(value, name) > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return float(value)


def integral(value, name: str) -> int:
    """``value`` as an int; a value that is not integral (1000.7, nan, "5",
    True) is rejected, not truncated. An int is never converted to a float,
    which overflows above 1e308."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not (
        isinstance(value, (int, np.integer)) or float(value).is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _read(value, kind, name: str):
    """``value`` read as the field ``name`` of annotation ``kind``: a float by
    :func:`number`, an int by :func:`integral`, a spec from itself or its JSON
    dict, another class as itself, a tuple from a list, a tuple or an array (of
    numbers in one numpy pass), a union as the member class the value is (a
    spec if a dict), else as its first. A rejection names the field and entry."""
    args = get_args(kind)
    if isinstance(kind, types.UnionType):
        fits = [k for k in args if get_origin(k) is None and (
            isinstance(value, k) or isinstance(value, dict) and hasattr(k, "from_json_dict"))]
        return _read(value, (fits + list(args))[0], name)
    if get_origin(kind) is tuple and (args[0] is float or get_origin(args[0])):
        ndim = 1 if args[0] is float else 2
        try:
            a = np.asarray(value)
            ok = a.dtype.kind in "iuf" and a.ndim == ndim and 0 not in a.shape[1:]
        except ValueError:  # ragged rows
            ok = False
        if not ok or not np.isfinite(a).all() or args[-1] is not ... and len(a) != len(args):
            what = "finite numbers" if ndim == 1 else "equal-length rows of finite numbers"
            raise ValueError(f"{name} must be a list of {what}, got {reprlib.repr(value)}")
        # numpy reads a bool as 1 or 0, so only a list holding 0 or 1 can hold one
        if not isinstance(value, np.ndarray) and ((a == 0) | (a == 1)).any():
            flat = value if ndim == 1 else list(itertools.chain.from_iterable(value))
            if not {bool, np.bool_}.isdisjoint(map(type, flat)):
                i = next(i for i, v in enumerate(flat) if isinstance(v, (bool, np.bool_)))
                where = [int(j) for j in np.unravel_index(i, a.shape)]
                raise ValueError(f"{name}{where} must be a number, got {flat[i]!r}")
        a = np.ascontiguousarray(a, dtype=float)
        if ndim == 1:
            return tuple(memoryview(a))  # Python floats, faster than tolist()
        # one record per row, so that tolist() builds the row tuples
        return tuple(a.view([("", float)] * a.shape[1])[:, 0].tolist())
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return tuple(_read(v, args[0], f"{name}[{i}]") for i, v in enumerate(value))
    if kind is float:
        return number(value, name)
    if kind is int:
        return integral(value, name)
    spec = hasattr(kind, "from_json_dict")
    if spec and isinstance(value, dict):
        try:
            return kind.from_json_dict(value)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
    if not isinstance(value, kind):
        what = " or its JSON dict" * spec
        raise ValueError(f"{name} must be of type {kind.__name__}{what}, got {value!r}")
    return value


def _normalise(spec, table: dict | None = None, what: str = "") -> None:
    """Read every field of a frozen spec as its annotation declares. With a
    ``table`` keyed by its first field (a family or kind, called ``what``),
    reject an unknown tag and any field outside its row set away from its default."""
    for name, kind in _annotations(type(spec)).items():
        object.__setattr__(spec, name, _read(getattr(spec, name), kind, name))
    tag = getattr(spec, fields(spec)[0].name)
    if table and tag not in table:
        raise ValueError(f"unknown {what} {tag!r}")
    for f in fields(spec) if table else ():
        if f.name not in table[tag] and (v := getattr(spec, f.name)) != f.default:
            raise ValueError(f"the {tag} {table[tag][0]} does not read {f.name!r}, got {v!r}")


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

    A parameter the family does not read (:data:`COST_FIELDS`) is rejected.
    A JSON document must hold every key its family reads but
    :data:`OPTIONAL_KEYS`: a dropped ``mu`` is named, not read as 0.
    """

    family: str
    mu: float = 0.0
    a: float = 0.0
    c: float = 0.0
    cap: float = 0.0
    phi: tuple[float, ...] = ()
    feature_map_id: str = "identity"

    def __post_init__(self):
        _normalise(self, COST_FIELDS, "cost family")
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
        elif len(self.phi) == 0:
            raise ValueError("context_quadratic family requires a parameter vector phi")

    @classmethod
    def quadratic(cls, mu: float, a: float = 0.0) -> "CostSpec":
        return cls(family=QUADRATIC, mu=mu, a=a)

    @classmethod
    def linear(cls, c: float, cap: float) -> "CostSpec":
        return cls(family=LINEAR, c=c, cap=cap)

    @classmethod
    def context_quadratic(
        cls, phi: Sequence[float], feature_map_id: str = "identity"
    ) -> "CostSpec":
        return cls(family=CONTEXT_QUADRATIC, phi=phi, feature_map_id=feature_map_id)

    @property
    def strongly_convex(self) -> bool:
        return self.family in (QUADRATIC, CONTEXT_QUADRATIC)

    def coefficient(self, theta) -> float:
        """<phi, sigma(theta)>, the inverse curvature of the contextual family,
        at one context (see :func:`context_coefficients`)."""
        if self.family != CONTEXT_QUADRATIC:
            raise ValueError("coefficient is defined for the context_quadratic family")
        u = float(context_coefficients((self,), theta)[0])
        if not u > 0:
            raise ValueError(
                f"context_quadratic requires <phi, sigma(theta)> > 0, got {u}"
            )
        return u

    def cost(self, x, theta=None):
        """Production cost of ``x``, a quantity or an array (context required iff contextual)."""
        if np.any(x < 0):
            raise ValueError(f"production quantity must be >= 0, got {np.min(x)}")
        if self.family == QUADRATIC:
            return 0.5 * self.mu * x * x + self.a * x
        if self.family == LINEAR:
            return self.c * x
        return x * x / (2.0 * self.coefficient(theta))

    def to_json_dict(self) -> dict:
        return {k: _json(getattr(self, k)) for k in COST_FIELDS[self.family]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CostSpec":
        return read_json_dict(cls, doc, COST_FIELDS)


def _features(specs: Sequence[CostSpec], contexts: np.ndarray, role: str) -> dict:
    """The features at ``contexts`` of each map the specs name, applied once;
    a spec whose parameter count is not its map's feature count is rejected,
    named by ``role`` and position."""
    feats = {}
    for i, s in enumerate(specs):
        if s.feature_map_id not in feats:
            feats[s.feature_map_id] = apply_feature_map(s.feature_map_id, contexts)
        n = feats[s.feature_map_id].shape[-1]
        if n != len(s.phi):
            raise ValueError(f"{role} {i} has {len(s.phi)} parameters, context {n} features")
    return feats


def context_coefficients(specs: Sequence[CostSpec], contexts) -> np.ndarray:
    """<phi, sigma(theta)> of every ``context_quadratic`` spec, its
    production at p = 1: shape (n,) at one context, (n, T) over a (T, m)
    context path.

    The inner product is summed left to right over the features, on Python
    floats at one context and on per-feature arrays over a path. Both are
    the same sequence of products and additions, so column t of a path
    equals the coefficients at context t bit for bit; the fused kernel and
    the step-level oracle rely on that."""
    if contexts is None:
        # a missing context would map to NaN features, not an error
        raise ValueError("context_quadratic coefficients require a context")
    contexts = np.asarray(contexts, dtype=np.float64)
    feats = _features(specs, contexts, "spec")
    cols = {k: f.tolist() if f.ndim == 1 else f.T for k, f in feats.items()}
    out = np.empty((len(specs),) + contexts.shape[:-1])
    for i, s in enumerate(specs):
        u = 0.0
        for phi_k, f_k in zip(s.phi, cols[s.feature_map_id]):
            u = u + phi_k * f_k
        out[i] = u
    return out


def _class_members(members: tuple[CostSpec, ...], name: str) -> None:
    """Reject a class member that is not ``context_quadratic``, naming ``name[i]``."""
    for i, s in enumerate(members):
        if s.family != CONTEXT_QUADRATIC:
            raise ValueError(f"{name}[{i}] must be a {CONTEXT_QUADRATIC} CostSpec, got {s!r}")


@dataclass(frozen=True)
class FunctionClass:
    """Finite set of candidate production functions with output bound B.

    Each member is a ``context_quadratic`` :class:`CostSpec`, the suppliers'
    own form: it produces p * <phi, sigma(theta)> at price p and context
    theta, with sigma the member's feature map. A JSON dict is parsed.
    """

    members: tuple[CostSpec, ...]
    bound: float

    def __post_init__(self):
        _normalise(self)
        _class_members(self.members, "members")
        if len(self.members) == 0:
            raise ValueError("function class must be non-empty")
        if not self.bound > 0:
            raise ValueError(f"output bound B must be finite and positive, got {self.bound}")

    def __len__(self) -> int:
        return len(self.members)

    def member_coefficients(self, contexts) -> np.ndarray:
        """Every member's production at p = 1: shape (F,) at one context,
        (F, T) over a (T, m) context path (see :func:`context_coefficients`)."""
        return context_coefficients(self.members, contexts)


@dataclass(frozen=True)
class Allocation:
    """Per-supplier production at a posted price and its sum: floats, or arrays at an array."""

    per_supplier: tuple
    total: float | np.ndarray


def _prices(p) -> np.ndarray:
    """``p``, one price or an array of prices, as a float64 array. A string,
    bytes or bool is refused, as one value or as an entry, not converted; an
    array of numbers is passed on its dtype alone, in O(1)."""
    a = np.asarray(p)
    # numpy reads a bool among numbers as 1 or 0, so only a sequence holding 0 or 1 can hide one
    if a.dtype.kind not in "iuf" or not isinstance(p, np.ndarray) and ((a == 0) | (a == 1)).any():
        for v in np.asarray(p, dtype=object).flat:
            if isinstance(v, (str, bytes, bool, np.bool_)):
                raise ValueError(f"price must be a number, got {v!r}")
    return np.asarray(a, dtype=np.float64)


def price_array(p) -> np.ndarray:
    """``p``, one price or an array of prices, as a float64 array (:func:`_prices`);
    a price outside [0, 1] or NaN is rejected, naming the first."""
    prices = _prices(p)
    outside = prices[~((0.0 <= prices) & (prices <= 1.0))]
    if outside.size:
        raise ValueError(f"price must lie in [0, 1], got {outside[0]}")
    return prices


def best_response(cost: CostSpec, p, theta=None):
    """Profit-maximizing production at posted price ``p``: a float at one
    price, an array at an array of prices, each entry the one-price result
    bit for bit. A price outside [0, 1] or NaN is rejected, naming the first.

    quadratic: max(0, (p - a)/mu); linear: 0 below c, cap at or above c;
    context_quadratic: p * <phi, sigma(theta)>.
    """
    prices = price_array(p)
    if cost.family == QUADRATIC:
        x = np.maximum((prices - cost.a) / cost.mu, 0.0)
    elif cost.family == LINEAR:
        x = np.where(prices >= cost.c, cost.cap, 0.0)
    else:
        x = prices * cost.coefficient(theta)
    return x if prices.ndim else float(x)


def aggregate_production(suppliers: Sequence[CostSpec], p, theta=None) -> Allocation:
    """Best responses of all suppliers at ``p``, a price or an array, and their sum."""
    per = tuple(best_response(s, p, theta) for s in suppliers)
    total = 0.0
    for x in per:
        total += x
    return Allocation(per_supplier=per, total=total)


def equilibrium_price(suppliers: Sequence[CostSpec], d, theta=None) -> float | np.ndarray:
    """Market-clearing price: the exact root of total production(p) = d.

    ``d`` is one demand, giving a float, or an array of demands, giving an
    array of their prices; a contextual market clears them all at the one
    context ``theta``. Every demand must be positive and feasible at p = 1,
    and every supplier strongly convex. Supplier i produces s_i * max(0, p - a_i): slope 1/mu above its
    intercept a for a quadratic supplier, <phi, sigma(theta)> above 0 for a
    contextual one. Aggregate supply is piecewise linear with kinks at the
    sorted intercepts; supply at each kink locates every demand's active set
    by ``searchsorted``, and over that set p* = (d + sum(s a)) / sum(s). By
    the first-order conditions the price equals every active supplier's
    marginal cost, so it also minimizes total cost and total payment among
    demand-feasible allocations.
    """
    demands = np.asarray(d, dtype=np.float64)
    if not np.all(demands > 0):
        raise ValueError("demand must be positive")
    for s in suppliers:
        if not s.strongly_convex:
            raise ValueError(
                "equilibrium_price requires strongly convex suppliers; "
                f"{s.family} family present"
            )
    d_max = float(demands.max(initial=0.0))
    if aggregate_production(suppliers, 1.0, theta).total < d_max:
        raise InfeasibleMarket(
            f"aggregate production at p=1 is below demand {d_max}; no clearing price in [0, 1]"
        )
    a = np.array([s.a if s.family == QUADRATIC else 0.0 for s in suppliers])
    slope = np.array(
        [1.0 / s.mu if s.family == QUADRATIC else s.coefficient(theta) for s in suppliers]
    )
    order = np.argsort(a, kind="stable")
    a, slope = a[order], slope[order]
    cum_s = np.cumsum(slope)
    cum_sa = np.cumsum(slope * a)
    # Supply at the k-th kink; rounding can break ties in a, so keep it monotone.
    kink_supply = np.maximum.accumulate(a * cum_s - cum_sa)
    k = np.searchsorted(kink_supply, demands, side="left") - 1
    prices = np.minimum((demands + cum_sa[k]) / cum_s[k], 1.0)
    return float(prices) if demands.ndim == 0 else prices


# ---------------------------------------------------------------------------
# Instances and their JSON form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """Seedable sequence generator named in an instance file.

    kinds: ``constant`` (value), ``uniform`` (lo, hi) for demands,
    ``uniform_cube`` (lo, hi, dim) for contexts. Draws use the replication's
    Philox stream; see the harness docs for the draw order. An unknown kind,
    a non-finite value, lo or hi, hi < lo, a cube with dim < 1 and a field
    the kind does not read (:data:`GENERATOR_FIELDS`) are rejected. A JSON
    document must hold every key its kind reads: a dropped ``lo`` is named,
    not read as 0.
    """

    kind: str
    value: float = 0.0
    lo: float = 0.0
    hi: float = 0.0
    dim: int = 0

    def __post_init__(self):
        _normalise(self, GENERATOR_FIELDS, "generator kind")
        if self.hi < self.lo:
            raise ValueError(f"generator needs lo <= hi, got lo={self.lo}, hi={self.hi}")
        if self.kind == "uniform_cube" and self.dim < 1:
            raise ValueError(f"uniform_cube needs dim >= 1, got {self.dim}")

    def to_json_dict(self) -> dict:
        return {k: _json(getattr(self, k)) for k in GENERATOR_FIELDS[self.kind]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GeneratorSpec":
        return read_json_dict(cls, doc, GENERATOR_FIELDS)

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
    functions for the contextual policy, ``context_quadratic`` specs;
    ``class_bound`` is their shared output bound B, checked by the
    :class:`FunctionClass` the contextual policy builds from them.

    Every field is read as its annotation declares (:func:`_read`), so a
    spec built from lists or dicts hashes and equals its round trip. A
    ``demands`` generator is ``constant`` or ``uniform``, a ``contexts`` one
    ``uniform_cube``; any other kind is rejected, naming the field.
    """

    suppliers: tuple[CostSpec, ...]
    demands: tuple[float, ...] | GeneratorSpec
    horizon: int
    contexts: tuple[tuple[float, ...], ...] | GeneratorSpec | None = None
    demand_bounds: tuple[float, float] | None = None
    function_class: tuple[CostSpec, ...] | None = None
    class_bound: float | None = None

    def __post_init__(self):
        _normalise(self)
        _class_members(self.function_class or (), "function_class")
        for name, kinds in (("demands", ("constant", "uniform")), ("contexts", ("uniform_cube",))):
            g = getattr(self, name)
            if isinstance(g, GeneratorSpec) and g.kind not in kinds:
                raise ValueError(f"{name} takes a {' or '.join(kinds)} generator, got {g.kind!r}")

    def to_json_dict(self) -> dict:
        return {f.name: _json(v) for f in fields(self) if (v := getattr(self, f.name)) is not None}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "InstanceSpec":
        return read_json_dict(cls, doc)

    def with_horizon(self, horizon: int) -> "InstanceSpec":
        return replace(self, horizon=horizon)

    def materialize(self, rng: np.random.Generator) -> "MarketInstance":
        """Draw any generated sequences and validate the concrete instance.

        Draw order: demands first (T uniforms when generated), then contexts
        (T*dim uniforms, row-major). Explicit sequences consume no draws.
        """
        T = self.horizon
        if isinstance(self.demands, GeneratorSpec):
            g = self.demands
            if g.kind == "constant":
                # one value, read-only: a view of stride 0, not T copies
                demands = np.broadcast_to(np.float64(g.value), (T,))
            else:
                demands = rng.uniform(g.lo, g.hi, T)
            bounds = self.demand_bounds or g.bounds()
        else:
            demands = np.asarray(self.demands, dtype=np.float64)
            bounds = self.demand_bounds or (float(demands.min()), float(demands.max()))
        if isinstance(self.contexts, GeneratorSpec):
            g = self.contexts
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


def full_column(head, horizon: int) -> np.ndarray:
    """A head, then its last value repeated up to ``horizon`` periods, in a
    new array: what a ``RunRecord`` column reads of a head returned by
    :meth:`MarketInstance.regret_columns`, and the price path that method
    prices of a runner's price head on a market whose periods do not clear
    alike. A head of the full horizon is returned as it is, and one of
    stride 0 becomes a read-only view of stride 0."""
    k = len(head)
    if k == horizon:
        return head
    head = np.asarray(head)
    if head.strides == (0,):
        return np.broadcast_to(head[-1:], (horizon,))
    col = np.empty(horizon, head.dtype)
    col[:k] = head
    col[k:] = head[-1]
    return col


def supplier_mix(suppliers: Sequence[CostSpec]) -> str:
    """The supplier mix the policies run on, the suppliers' one family: all
    ``quadratic``, a single ``linear`` supplier, or all ``context_quadratic``.
    Any other mix is rejected."""
    families = {s.family for s in suppliers}
    if len(families) != 1:
        raise ValueError(
            "harness trajectories support all-quadratic, single-linear, or "
            f"all-contextual instances; got families {sorted(families)}"
        )
    if families == {LINEAR} and len(suppliers) != 1:
        raise ValueError("linear instances support a single supplier")
    return families.pop()


@dataclass
class MarketInstance:
    """Concrete instance: suppliers, a demand path, optional contexts, horizon.

    ``demands`` may be a read-only array of stride 0, one value seen over
    the horizon: :meth:`InstanceSpec.materialize` stores a ``constant``
    generator that way, and the constructor checks its one value.

    The constructor checks sequence lengths, that demands and contexts are
    finite, the demand bounds, and that the clearing price lies in [0, 1]
    at every period: production at p = 1 must cover every demand, with no
    slack, the same rule the clearing-price solvers apply.

    It also fixes the supplier ``mix`` (:func:`supplier_mix`). An
    all-contextual market produces p * u_t in period t, where
    ``coefficients`` is the path u_t = sum_i <phi_i, sigma(theta_t)>,
    computed once here (``None`` for the other mixes). ``price_only``
    records whether every period clears alike, so that each regret column is
    a function of the posted price alone: a quadratic or linear market with
    a constant demand. :meth:`regret_columns` then prices the head only.
    """

    suppliers: tuple[CostSpec, ...]
    demands: np.ndarray
    contexts: np.ndarray | None
    horizon: int
    demand_bounds: tuple[float, float]
    mix: str = field(init=False)
    price_only: bool = field(init=False)
    coefficients: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        self.suppliers = tuple(self.suppliers)
        self.demands = np.asarray(self.demands, dtype=np.float64)
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.demands.shape != (self.horizon,):
            raise ValueError("demand sequence length must equal the horizon")
        # min and max are NaN when any demand is, so this also rejects NaN; a
        # view of stride 0 holds one value, which is checked alone
        one = self.demands[:1] if self.demands.strides == (0,) else self.demands
        d_min, d_max = float(one.min()), float(one.max())
        if not (math.isfinite(d_min) and math.isfinite(d_max)):
            raise ValueError("demands must be finite")
        d_lo, d_hi = self.demand_bounds
        if not (0.0 < d_lo <= d_hi < math.inf):
            raise ValueError("demand bounds must satisfy 0 < d_lo <= d_hi < inf")
        if d_min < d_lo - DEMAND_SLACK or d_max > d_hi + DEMAND_SLACK:
            raise ValueError("demands fall outside the declared bounds")
        if self.contexts is not None:
            self.contexts = np.asarray(self.contexts, dtype=np.float64)
            if self.contexts.ndim != 2 or self.contexts.shape[0] != self.horizon:
                raise ValueError("context sequence must be (horizon, dim)")
            if not np.all(np.isfinite(self.contexts)):
                raise ValueError("contexts must be finite")

        self.mix = supplier_mix(self.suppliers)
        self.price_only = d_min == d_max and self.mix != CONTEXT_QUADRATIC

        self.coefficients = None
        if self.mix == CONTEXT_QUADRATIC:
            if self.contexts is None:
                raise ValueError("contextual suppliers require contexts")
            feats = _features(self.suppliers, self.contexts, "supplier")
            total = np.zeros(self.horizon)
            for s in self.suppliers:
                # A matrix product, not context_coefficients' left-to-right
                # sum: the two differ in the last bit in some periods, and the
                # benchmark reference digests record this path's bits. No
                # matrix product can serve one context instead: row t of a
                # (T, m) product differed from the one-row product at context
                # t in 123,571 of 393,837 random rows of 1 to 4 features.
                u = feats[s.feature_map_id] @ np.asarray(s.phi)
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
        prices, one price or one per period, each summed in supplier order.

        Each contextual supplier's cost x_i^2 / (2 u_i) equals p x_i / 2, so
        an all-contextual market costs p x / 2 in total.
        """
        if self.mix == CONTEXT_QUADRATIC:
            tot = prices * self.coefficients
            return tot, 0.5 * prices * tot
        alloc = aggregate_production(self.suppliers, prices)
        cost = 0.0
        for s, x in zip(self.suppliers, alloc.per_supplier):
            cost += s.cost(x)
        return alloc.total, cost

    def _clearing_cost_and_payment(self) -> tuple[np.ndarray, np.ndarray]:
        """Total cost and total payment of every period's clearing allocation.

        A quadratic or linear market with a constant demand clears the same
        way in every period, so it solves one period and returns arrays of
        shape (1,), which broadcast over the horizon.
        """
        demands = self.demands[:1] if self.price_only else self.demands
        if self.mix == LINEAR:
            # p* = c, where the supplier is indifferent and the clearing
            # allocation produces exactly the demand.
            base = self.suppliers[0].cost(demands)
            return base, base
        if self.mix == QUADRATIC:
            p_stars = equilibrium_price(self.suppliers, demands)
        else:
            p_stars = demands / self.coefficients
        tot_eq, cost_eq = self._production(p_stars)
        return cost_eq, p_stars * tot_eq

    def regret_columns(self, prices: np.ndarray) -> dict:
        """Per-period production and regret increments of a posted price head.

        ``prices`` is a head of 1 to T prices, as a runner returns it: its
        last price repeats up to the horizon T. Measured against every
        period's clearing allocation: ``unmet_inc`` = (d_t - x_t)_+, and
        ``cost_inc`` and ``pay_inc`` are the total cost and payment at the
        posted price minus those of the clearing allocation (signed). Keys are
        the :class:`~eqprice.harness.RunRecord` column names, ``demand`` to
        ``pay_inc``, and each column is its head, the first ``k`` periods.

        If every period clears alike (a quadratic or linear market with a
        constant demand), ``k`` is the length of the price head, and every
        later period repeats period ``k - 1`` of each column, bit for bit what
        a pass over every period computes: ``price`` is then a copy of a head
        shorter than T, and ``demand`` a view of stride 0. Any other market prices :func:`full_column` of the head, and ``k``
        is T. A string, bytes or bool is refused (:func:`_prices`), as is a
        price outside [0, 1] or NaN (:func:`price_array`, naming the first),
        or a head that is not 1-D, is empty or is longer than T.
        """
        head = price_array(prices)
        if head.ndim != 1 or not 1 <= len(head) <= self.horizon:
            raise ValueError(
                f"a price head holds 1 to {self.horizon} prices, got shape {head.shape}"
            )
        if not self.price_only:
            head = full_column(head, self.horizon)
        k = len(head)
        cost_eq, pay_eq = self._clearing_cost_and_payment()
        prod, cost = self._production(head)
        demand = self.demands if k == self.horizon else np.broadcast_to(self.demands[k - 1], (k,))
        return dict(
            demand=demand,
            price=head if k == self.horizon else head.copy(),
            production=prod,
            unmet_inc=np.maximum(0.0, demand - prod),
            cost_inc=cost - cost_eq,
            pay_inc=head * prod - pay_eq,
        )
