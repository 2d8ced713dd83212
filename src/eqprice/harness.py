"""Experiment runner: seeded policy executions, CSV export, scaling fits.

Everything the harness knows about a policy is its row of :data:`POLICIES`.
The config checks its parameters and instance against that row when it is
built; each run materialises the instance, lets the row's runner produce a
price head, and takes every column of the run from
:meth:`~eqprice.market.MarketInstance.regret_columns`, the same pass for
every policy. A price head is 1 to T prices whose last repeats up to T: a
runner whose price freezes ends it at the first frozen period. On a market
that clears alike in every period, the pass returns every column's head of
that length; :class:`RunRecord` keeps and totals the heads, and a read
builds the full column without storing it. Runners call ``kernels.<name>`` by
position, since the benchmark's tracer wraps those attributes and reads
arguments by index.

Reproducibility contract
------------------------
All randomness flows from the Philox 4x64-10 counter-based generator as
implemented by NumPy. Replication ``r`` of a configuration with base seed
``s`` uses the stream ``Philox(key = s + r)`` (:func:`seed_key`); distinct
keys give independent streams, so replications never share draws. Within a
replication the draw order is fixed: demands (T uniforms, when generated),
then contexts (T*dim uniforms, row-major, when generated), then the
policy's own uniforms (one per period for the sampling policy). Uniform
draws on [lo, hi) are ``lo + (hi - lo) * next_double()``. Given the same
configuration and seed, output CSV files are byte-identical across runs.

CSV schemas (fixed headers, fixed column order, 17 significant digits):

- per-period: ``t,demand,price,production,unmet_inc,cost_inc,pay_inc``
- summary:    ``policy,T,replication,seed,U_T,C_T,P_T,C_T_pos,P_T_pos,proxy_reg``
  (proxy_reg is nan for policies without a sampling distribution)

Rate fits
---------
``fit_scaling`` regresses regret against horizon in the coordinates of the
chosen model: ``power_law`` fits log(value) on log(T); ``loglog`` fits
value on log(log(T)). Cumulative cost and payment regret are signed and go
negative for persistently under-priced trajectories, so rate fits use the
overshoot-only accumulations (sums of positive increments) exposed on each
run record and in the summary CSV; those are the quantities whose growth
the theory controls.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import kernels
from .market import (
    CONTEXT_QUADRATIC,
    LINEAR,
    QUADRATIC,
    FunctionClass,
    GeneratorSpec,
    InstanceSpec,
    MarketInstance,
    _normalise,
    full_column,
    integral,
    number,
    positive,
    read_json_dict,
    supplier_mix,
)
from .policy_contextual import default_gamma, default_grid_size, grid_size, make_contextual_state
from .policy_demand import DemandGrid, make_demand_state
from .policy_demand import default_gamma as demand_default_gamma


def _price(value, name: str) -> float:
    """A posted price: a :func:`~eqprice.market.number` in [0, 1]."""
    try:
        p = number(value, name)
    except ValueError:
        p = math.nan
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"policy_params[{name!r}] must be a price in [0, 1], got {value!r}")
    return p


PER_PERIOD_HEADER = "t,demand,price,production,unmet_inc,cost_inc,pay_inc"
#: Summary CSV metric columns, in order; each is a :meth:`RunRecord.metric` name.
SUMMARY_METRICS = ("U_T", "C_T", "P_T", "C_T_pos", "P_T_pos", "proxy_reg")
SUMMARY_HEADER = "policy,T,replication,seed," + ",".join(SUMMARY_METRICS)
#: Rows per formatting pass of :func:`write_run_csv`.
CSV_BLOCK_ROWS = 1024


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_TOP = 2**53


def repeated_sum(s: float, x: float, n: int) -> float:
    """``for _ in range(n): s = s + x``, bit for bit, in time that grows
    with the number of binades the sum crosses, not with ``n``.

    In the binade of s, s = m * 2**q with 2**52 <= |m| < 2**53, and while
    the exact sum stays in that binade and sign, each round-half-even
    addition moves m by an integer. That integer can depend on the parity
    of m only when x / 2**q is a half-integer, and then every addition
    leaves m even. So once two additions have stayed in the binade, the
    second one's step c is the step of every later one, and j more
    additions give m + j*c as long as |m + j*c| stays in
    [2**52 + 1, 2**53 - 1], where no exact sum reaches the binade's edge.
    Crossings, and sums among the subnormals, which have no binade of this
    form, are stepped one addition at a time. A step that leaves s
    unchanged or gives inf or nan ends the loop: no later addition changes
    it.
    """
    s, x = float(s), float(x)
    steady = False  # whether s came from an addition that stayed in its binade
    while n > 0:
        t = s + x
        n -= 1
        if not math.isfinite(t) or (t == s and math.copysign(1.0, t) == math.copysign(1.0, s)):
            return t
        (fs, es), (ft, et) = math.frexp(s), math.frexp(t)
        same = es == et >= -1021 and fs * ft > 0  # one normal binade, one sign
        if same and steady:
            m = abs(int(math.ldexp(ft, 53)))
            c = m - abs(int(math.ldexp(fs, 53)))  # the step of |m|
            j = (_TOP - 1 - m) // c if c > 0 else (m - _TOP // 2 - 1) // -c
            j = min(n, max(j, 0))
            t = math.copysign(math.ldexp(m + j * c, et - 53), t)
            n -= j
        steady = same
        s = t
    return s


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an instance, one policy, horizons x replications.

    ``policy_params`` may carry the keys listed in :data:`POLICIES`:
    p (constant_price, which needs it), gamma_demand and freeze_width
    (demand_grid), n_prices / gamma_explore / eta (contextual_igw). Missing
    entries fall back to the theory-default tunings. Each value is read by
    its key's reader when the config is built, and an unknown key or a value
    out of range is rejected there, as is a supplier mix the policy does not
    run on or an instance its row's ``prepare`` refuses: a varying demand for
    fixed_interval, a contextual_igw instance without a valid function class.
    Horizons, replications and seed must be integral, horizons strictly
    ascending and at least 1, every replication's Philox key in range
    (:func:`seed_key`), and an instance that lists its demands or contexts
    must list one per period of every horizon.
    """

    instance: InstanceSpec
    policy: str
    horizons: tuple[int, ...]
    replications: int = 1
    seed: int = 0
    policy_params: dict = field(default_factory=dict)
    out: str | os.PathLike | None = None

    def __post_init__(self):
        if np.ndim(self.horizons) != 1 or len(self.horizons) == 0:
            raise ValueError(f"horizons must be a non-empty list, got {self.horizons!r}")
        _normalise(self)
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {list(POLICIES)}")
        if any(a >= b for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError(f"horizons must be strictly ascending, got {self.horizons!r}")
        if self.horizons[0] < 1:
            raise ValueError(f"horizons must be at least 1, got {self.horizons!r}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        # the first and the last replication's Philox keys
        seed_key(self.seed, 0)
        seed_key(self.seed, self.replications - 1)
        for name in ("demands", "contexts"):
            listed = getattr(self.instance, name)
            for T in self.horizons if isinstance(listed, tuple) else ():
                if len(listed) != T:
                    raise ValueError(f"instance {name} lists {len(listed)} periods, horizon {T}")
        readers, mixes, prepare, _ = POLICIES[self.policy]
        unknown = sorted(set(self.policy_params) - set(readers))
        if unknown:
            raise ValueError(
                f"unknown policy_params {unknown} for {self.policy}; accepted: {list(readers)}"
            )
        params = dict(self.policy_params)
        if self.policy == "constant_price":
            params.setdefault("p", None)  # no default price: a missing p is rejected
        object.__setattr__(
            self, "policy_params", {k: readers[k](v, k) for k, v in params.items()}
        )
        mix = supplier_mix(self.instance.suppliers)
        if mix not in mixes:
            raise ValueError(f"{self.policy} does not run on {mix} suppliers")
        prepare(self.instance)

    @classmethod
    def from_json_dict(cls, doc: dict, base_dir: str | Path = ".") -> "ExperimentConfig":
        """A config document; an ``instance`` path is relative to ``base_dir``."""
        if isinstance(doc.get("instance"), str):
            doc = {**doc, "instance": json.loads((Path(base_dir) / doc["instance"]).read_text())}
        return read_json_dict(cls, doc)


class _Column:
    """A column of :class:`RunRecord`: stored as the head it was given,
    read as :func:`~eqprice.market.full_column` of that head over
    ``horizon`` periods. A read stores nothing, so the record keeps its
    heads; a head of the full horizon reads as itself. An optional column
    defaults to None, which reads as None."""

    def __init__(self, optional=False):
        self.optional = optional

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, rec, owner=None):
        if rec is None:
            if self.optional:
                return None  # the field's default
            raise AttributeError(self.name)  # no class-level value: a required field
        head = vars(rec)[self.name]
        return None if head is None else full_column(head, rec.horizon)

    def __set__(self, rec, value):
        vars(rec)[self.name] = value


@dataclass(eq=False)
class RunRecord:
    """Seeded trajectory of one (horizon, replication) execution.

    Every column, ``demand``, ``price``, ``production``, ``unmet_inc``,
    ``cost_inc``, ``pay_inc`` and ``proxy_inc`` when given, is a head of
    one length k with 1 <= k <= ``horizon``, as
    :meth:`~eqprice.market.MarketInstance.regret_columns` returns them: the
    record stands for ``horizon`` periods by repeating its last row. The
    record keeps the heads as given; each read returns the full column of
    ``horizon`` periods (:class:`_Column`), and a head of stride 0, such as
    a frozen run's demand, reads as a read-only view of stride 0. The repr
    leaves the columns out, and ``==`` is identity.

    Cumulative fields are the left-to-right sums of the full columns, bit
    for bit; they are derived in the constructor and cannot be passed to it.
    Each is ``np.cumsum`` over the head plus the repeated last value, added
    in closed form by :func:`repeated_sum`, so a run that freezes costs its
    head, not its horizon.
    ``cost_pos`` / ``pay_pos`` accumulate only positive increments (the
    overshoot periods) and are what the rate fits consume. ``proxy_inc``
    holds the exact expected absolute production-demand mismatch under the
    sampling distribution, present only for the sampling policy. The
    constructor raises ``ValueError``, naming the column, unless
    ``horizon >= 1`` and every column has the shape above.
    """

    policy: str
    horizon: int
    replication: int
    seed: int
    demand: np.ndarray = _Column()
    price: np.ndarray = _Column()
    production: np.ndarray = _Column()
    unmet_inc: np.ndarray = _Column()
    cost_inc: np.ndarray = _Column()
    pay_inc: np.ndarray = _Column()
    proxy_inc: np.ndarray | None = _Column(optional=True)
    unmet: float = field(init=False)
    cost_regret: float = field(init=False)
    payment_regret: float = field(init=False)
    cost_pos: float = field(init=False)
    pay_pos: float = field(init=False)
    proxy_reg: float = field(init=False)

    _COLUMNS = (
        "demand", "price", "production", "unmet_inc", "cost_inc", "pay_inc", "proxy_inc"
    )

    def __post_init__(self):
        T = self.horizon
        if T < 1:
            raise ValueError("horizon must be >= 1")
        heads = {name: vars(self)[name] for name in self._COLUMNS}
        if heads["proxy_inc"] is None:
            del heads["proxy_inc"]
        k_shape = np.shape(heads["production"])
        if not (len(k_shape) == 1 and 1 <= k_shape[0] <= T):
            raise ValueError(f"column production has shape {k_shape}, expected (k,), 1 <= k <= {T}")
        for name, col in heads.items():
            if np.shape(col) != k_shape:
                raise ValueError(
                    f"column {name} has shape {np.shape(col)}, production {k_shape}: "
                    "the columns share one length"
                )
        # Each total is the left-to-right sum of its full column, bit for bit:
        # np.cumsum over the periods before a head's last value, then
        # repeated_sum over the periods from it on, which all hold it (at
        # least one period goes to np.cumsum, which starts from the first
        # value instead of adding it to 0.0). A column holding both
        # infinities totals NaN, and one whose sum leaves the float range
        # totals inf: both without a warning.
        buf = np.empty(k_shape)

        def total(col, positive=False):
            if positive:
                col = np.maximum(col, 0.0, out=buf)
            n = max(len(col) - 1, 1)
            s = np.cumsum(col[:n], out=buf[:n])[-1]
            return float(repeated_sum(s, col[-1], T - n))

        with np.errstate(invalid="ignore", over="ignore"):
            self.unmet = total(heads["unmet_inc"])
            self.cost_regret = total(heads["cost_inc"])
            self.payment_regret = total(heads["pay_inc"])
            self.cost_pos = total(heads["cost_inc"], positive=True)
            self.pay_pos = total(heads["pay_inc"], positive=True)
            self.proxy_reg = total(heads["proxy_inc"]) if "proxy_inc" in heads else math.nan

    def __repr__(self):  # without the columns: reading one expands its head
        shown = [f.name for f in fields(self) if f.name not in self._COLUMNS]
        return f"RunRecord({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

    def metric(self, name: str) -> float:
        """Metric lookup for fits: U_T, C_T, P_T, C_T_pos, P_T_pos, proxy_reg."""
        totals = (
            self.unmet, self.cost_regret, self.payment_regret, self.cost_pos, self.pay_pos,
            self.proxy_reg,
        )
        return dict(zip(SUMMARY_METRICS, totals))[name]


def seed_key(seed, replication: int) -> int:
    """The Philox key seed + replication of one replication; ``seed`` must be
    an integer with 0 <= seed + replication < 2**128, else it is refused by
    name."""
    key = integral(seed, "seed") + replication
    if not 0 <= key < 2**128:
        raise ValueError(
            f"seed + replication must lie in [0, 2**128), got {seed!r} + {replication}"
        )
    return key


def replication_stream(seed: int, replication: int) -> np.random.Generator:
    """Philox stream for one replication, keyed by :func:`seed_key`."""
    return np.random.Generator(np.random.Philox(key=seed_key(seed, replication)))


# ---------------------------------------------------------------------------
# Policy execution
# ---------------------------------------------------------------------------


def _constant_demand(spec: InstanceSpec) -> None:
    """Refuse a demand that varies over the periods: ``fixed_interval`` tracks one."""
    d = spec.demands
    lo, hi = d.bounds() if isinstance(d, GeneratorSpec) else (min(d), max(d))
    if lo != hi:
        raise ValueError(f"fixed_interval expects a constant demand, got demands in [{lo}, {hi}]")


def _run_fixed(inst: MarketInstance, params: dict, prepared, rng) -> tuple:
    fam, p1, p2 = kernels.encode_suppliers(inst.suppliers)
    return kernels.fixed_trajectory(fam, p1, p2, float(inst.demands[0]), inst.horizon).price, None


def _run_demand(inst: MarketInstance, params: dict, prepared, rng) -> tuple:
    T = inst.horizon
    gamma = params.get("gamma_demand", demand_default_gamma(T))
    # a missing freeze_width is None, make_demand_state's default
    state = make_demand_state(DemandGrid(*inst.demand_bounds, gamma), T, params.get("freeze_width"))
    fam, p1, p2 = kernels.encode_suppliers(inst.suppliers)
    return kernels.demand_trajectory(
        fam, p1, p2, inst.demands, state.s_lo, state.s_hi, state.eps,
        state.grid.d_lo, state.grid.gamma, state.grid.n_cells, state.freeze_width,
    ).price, None


def _contextual_class(inst_spec: InstanceSpec) -> FunctionClass:
    if inst_spec.function_class is None:
        raise ValueError("contextual_igw requires a function_class on the instance")
    if inst_spec.class_bound is None:
        raise ValueError("contextual_igw requires class_bound (output bound B)")
    return FunctionClass(members=inst_spec.function_class, bound=inst_spec.class_bound)


def _run_contextual(inst: MarketInstance, params: dict, cls: FunctionClass, rng) -> tuple:
    T = inst.horizon
    n_members = len(cls)
    K = params.get("n_prices", default_grid_size(T, n_members))
    gamma = params["gamma_explore"] if "gamma_explore" in params else default_gamma(T, K, n_members)
    state = make_contextual_state(cls, K, gamma, params.get("eta"))

    u_true = inst.coefficients
    if u_true.max() > cls.bound:
        # The kernel does not clip observations to [0, B] as the oracle does.
        raise ValueError(
            f"true production at p=1 reaches {u_true.max():.6g}, above the "
            f"class_bound {cls.bound}"
        )
    member_u = cls.member_coefficients(inst.contexts)
    uniforms = rng.uniform(0.0, 1.0, T)

    out = kernels.contextual_trajectory(
        member_u, state.oracle.log_weights, state.oracle.eta, u_true, inst.demands,
        uniforms, state.prices, state.gamma_explore,
    )
    return out.price, out.proxy


#: One row per policy, the one place the harness knows about it: the reader of
#: each ``policy_params`` key it reads, called as ``reader(value, key)`` when the
#: config is built (any other key is rejected); the supplier mixes
#: (:func:`~eqprice.market.supplier_mix`) it runs on; ``prepare(spec)``, which
#: refuses an instance the policy cannot run when the config is built and
#: returns what the runner needs; and the runner ``(inst, params, prepared, rng)
#: -> (price head, proxy increments or None)``. Runners look each kernel up on
#: the ``kernels`` module when they run and pass its arguments by position: the
#: benchmark's tracer wraps those attributes and reads arguments by index.
POLICIES = {
    "fixed_interval": ({}, (QUADRATIC, LINEAR), _constant_demand, _run_fixed),
    "demand_grid": (
        {"gamma_demand": positive, "freeze_width": positive}, (QUADRATIC,),
        lambda spec: None, _run_demand,
    ),
    "contextual_igw": (
        {"n_prices": grid_size, "gamma_explore": positive, "eta": positive},
        (CONTEXT_QUADRATIC,), _contextual_class, _run_contextual,
    ),
    "constant_price": (
        {"p": _price}, (QUADRATIC, LINEAR, CONTEXT_QUADRATIC), lambda spec: None,
        lambda inst, params, prepared, rng: (np.full(1, params["p"]), None),
    ),
}


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """Execute every (horizon, replication) pair of a configuration.

    Deterministic given (config, seed); when ``config.out`` is set, writes
    one per-period CSV per run plus a summary CSV into that directory.
    """
    records: list[RunRecord] = []
    *_, prepare, run = POLICIES[config.policy]
    prepared = prepare(config.instance)
    for T in config.horizons:
        spec_T = config.instance.with_horizon(T)
        for rep in range(config.replications):
            rng = replication_stream(config.seed, rep)
            inst = spec_T.materialize(rng)
            prices, proxy = run(inst, config.policy_params, prepared, rng)
            records.append(
                RunRecord(
                    policy=config.policy,
                    horizon=T,
                    replication=rep,
                    seed=seed_key(config.seed, rep),
                    proxy_inc=proxy,
                    **inst.regret_columns(prices),
                )
            )
    if config.out is not None:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for rec in records:
            write_run_csv(rec, out_dir / run_csv_name(rec))
        write_summary_csv(records, out_dir / "summary.csv")
    return records


# ---------------------------------------------------------------------------
# Scaling fits
# ---------------------------------------------------------------------------

POWER_LAW = "power_law"
LOGLOG = "loglog"


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of regret against horizon in model coordinates."""

    model: str
    slope: float
    intercept: float
    r_squared: float


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of the least-squares line of ``y`` on ``x``,
    in closed form from the centred sums; ``x`` must hold two distinct
    values, and r^2 is 1 when ``y`` equals its mean exactly."""
    x_mean, y_mean = x.mean(), y.mean()
    dx, dy = x - x_mean, y - y_mean
    slope = float(dx @ dy) / float(dx @ dx)
    resid = dy - slope * dx
    ss_tot = float(dy @ dy)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return slope, float(y_mean - slope * x_mean), r2


def fit_scaling(horizons, values, model: str) -> ScalingFit:
    """Fit ``power_law`` (log value vs log T) or ``loglog`` (value vs
    log log T) over at least three horizons, two of them distinct, where
    the model's logarithms are defined."""
    horizons = np.asarray(horizons, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if len(horizons) < 3:
        raise ValueError("scaling fits need at least 3 horizons")
    if len(horizons) != len(values):
        raise ValueError("horizons and values must have equal length")
    if not (np.all(np.isfinite(horizons)) and np.all(np.isfinite(values))):
        raise ValueError("scaling fits need finite horizons and values")
    if np.all(horizons == horizons[0]):
        raise ValueError("scaling fits need at least 2 distinct horizons")
    if np.all(values == values[0]):
        raise ValueError("degenerate fit: regret values have zero variance")
    if model not in (POWER_LAW, LOGLOG):
        raise ValueError(f"unknown scaling model {model!r}")
    floor = 0.0 if model == POWER_LAW else 1.0  # where log T, log log T are defined
    if np.any(horizons <= floor):
        raise ValueError(f"{model} fit requires horizons > {floor:g}")
    if model == LOGLOG:
        x, y = np.log(np.log(horizons)), values
    else:
        if np.any(values <= 0):
            raise ValueError("power_law fit requires positive regret values")
        x, y = np.log(horizons), np.log(values)
    slope, intercept, r2 = _fit_line(x, y)
    return ScalingFit(model=model, slope=slope, intercept=intercept, r_squared=r2)


def _means_by_horizon(pairs) -> tuple[list[int], list[float]]:
    """Mean value per horizon of (horizon, value) pairs, ordered by
    horizon: the one replication mean of :func:`mean_metric_by_horizon`
    and ``eqprice fit``."""
    horizons = sorted({T for T, _ in pairs})
    return horizons, [float(np.mean([v for T, v in pairs if T == h])) for h in horizons]


def mean_metric_by_horizon(records: list[RunRecord], name: str) -> tuple[list[int], list[float]]:
    """Replication means of one metric, ordered by horizon."""
    return _means_by_horizon([(r.horizon, r.metric(name)) for r in records])


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


# ``_csv_block`` prints each value v with |v| in [1e-4, 1e17) from N, the
# 17-digit integer nearest |v| * 10**k, where k = 16 - X and X is the decimal
# exponent; k lies in [0, 20], so 10**k is an exact double. The digit string D
# of a value is seven '0's and then the 17 digits of N: digit i of N is
# D[7 + i], and the decimal point falls before D[8 + X]. A field slot holds
# 44 characters:
#   0       sign '-'
#   1..21   D[3:24], the integer part
#   22      '.'
#   23..42  D[4:24], the fraction
#   43      ',' or '\n'
_FIELD = 44
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves


@functools.cache
def _csv_tables() -> tuple[np.ndarray, ...]:
    """Tables of :func:`_csv_block`, built on first use, not on import:

    - 10**k for k in [0, 20] and its Veltkamp halves;
    - '%04d' of every 4-digit group, as one uint32 of ASCII bytes;
    - the trailing zero digits of every 4-digit group (4 for 0000);
    - the slots printed for decade X when D[end - 1] is the last non-zero
      digit, row (X + 4) * 25 + end (the sign is marked per value).
    """
    pow10 = np.array([float(10**k) for k in range(21)])
    pow10_hi = pow10 * _SPLIT - (pow10 * _SPLIT - pow10)
    group = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    group_digits = (group + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    group_zeros = np.cumprod(group[:, ::-1] == 0, axis=1).sum(axis=1).astype(np.int8)
    X = np.arange(-4, 17)[:, None, None]
    end = np.arange(25)[None, :, None]
    slot = np.arange(_FIELD)
    printed = (
        ((slot >= 1) & (slot <= 21) & (slot + 2 >= 7 + np.minimum(X, 0)) & (slot + 2 < 8 + X))
        | ((slot == 22) & (end > 8 + X))
        | ((slot >= 23) & (slot <= 42) & (slot - 19 >= 8 + X) & (slot - 19 < end))
        | (slot == _FIELD - 1)
    ).reshape(-1, _FIELD)
    tables = (pow10, pow10_hi, pow10 - pow10_hi, group_digits, group_zeros, printed)
    for t in tables:
        t.flags.writeable = False  # shared by every call
    return tables


def _csv_block(block: np.ndarray) -> bytes:
    """CSV bytes of a (rows, columns) float64 block: fields joined by ','
    and rows ended by '\n', every field exactly ``_fmt`` of its value.

    Zeros and values with |v| in [1e-4, 1e17) are formatted with numpy.
    Dekker's error-free product gives |v| * 10**k = hi + lo exactly; hi is an
    even integer, so hi + rint(lo) is the round-half-even 17-digit N that
    ``%.17g`` prints in fixed notation. Each value is laid out in a field
    slot (see above) and one mask compacts the block. Other values (tiny,
    huge, nan, inf) go through ``_fmt``.
    """
    pow10, pow10_hi, pow10_lo, group_digits, group_zeros, printed = _csv_tables()
    rows, ncols = block.shape
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0  # decade 0: no log10 of 0 or nan, no int cast of inf
    X = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)

    def scaled(a, X):
        k = 16 - X
        hi = a * pow10[k]
        ah = a * _SPLIT
        ah -= ah - a
        al = a - ah
        ph, pl = pow10_hi[k], pow10_lo[k]
        lo = ah * ph
        lo -= hi
        lo += ah * pl
        lo += al * ph
        lo += al * pl
        return hi, lo

    hi, lo = scaled(a, X)
    # log10 can miss the decade next to a power of ten: the exact hi + lo
    # must lie in [1e16, 1e17).
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(below | above)
    if fix.size:
        X[fix] += above[fix].astype(np.intp) - below[fix]
        hi[fix], lo[fix] = scaled(a[fix], X[fix])
    N = hi.astype(np.int64)
    N += np.rint(lo).astype(np.int64)
    carry = N == 10**17  # rounding reached the next decade
    N[carry] = 10**16
    X[carry] += 1
    N[zero] = 0

    # D is six words of four digits: '0000', then the 4-digit groups of N,
    # filled from the right while counting N's trailing zero digits.
    words = np.empty((v.size, 6), np.uint32)
    words[:, 0] = group_digits[0]
    zeros = np.zeros(v.size, np.int8)
    trailing = np.ones(v.size, bool)
    for j in range(5, 0, -1):
        q = N // 10_000  # np.divmod is about 4x slower here
        g = N - q * 10_000
        N = q
        words[:, j] = group_digits[g]
        zeros += trailing * group_zeros[g]
        trailing &= g == 0
    digits = words.view(np.uint8)

    keep = np.take(printed, (X + 4) * 25 + 24 - zeros, axis=0, mode="clip")
    keep[:, 0] = np.signbit(v)  # signbit(v, out=keep[:, 0]) is wrong in numpy 2.4
    chars = np.empty((v.size, _FIELD), np.uint8)
    chars[:, 0] = ord("-")
    chars[:, 1:22] = digits[:, 3:24]
    chars[:, 22] = ord(".")
    chars[:, 23:43] = digits[:, 4:24]
    seps = chars.reshape(rows, ncols, _FIELD)[:, :, -1]
    seps[:, :-1] = ord(",")
    seps[:, -1] = ord("\n")
    # Other values are formatted one by one and placed by flat position
    # (assigning a (fields, slots) mask instead raised the peak RSS).
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        texts = [_fmt(x).encode() for x in v[slow].tolist()]
        lengths = np.array([len(t) for t in texts])
        at = np.repeat(slow * _FIELD - np.cumsum(lengths) + lengths, lengths)
        at += np.arange(at.size)
        chars.ravel()[at] = np.frombuffer(b"".join(texts), np.uint8)
        keep[slow, :-1] = False
        keep.ravel()[at] = True
    return chars[keep].tobytes()


def run_csv_name(record: RunRecord) -> str:
    """The per-period CSV's file name in an output directory."""
    return f"run_T{record.horizon}_rep{record.replication}.csv"


def write_run_csv(record: RunRecord, path: str | Path) -> None:
    """Per-period CSV with the fixed 7-column schema; t is 1-based and every
    field is the bytes of ``_fmt`` of its value (see :func:`_csv_block`).
    Each block is built from the record's heads, so no full column is."""
    heads = [vars(record)[name] for name in PER_PERIOD_HEADER.split(",")[1:]]
    with open(path, "wb") as f:
        f.write(PER_PERIOD_HEADER.encode() + b"\n")
        for start in range(0, record.horizon, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, record.horizon)
            f.write(_csv_block(np.column_stack(
                [np.arange(start + 1, stop + 1, dtype=np.float64)]
                + [full_column(h[min(start, len(h) - 1) : stop], stop - start) for h in heads]
            )))


def write_summary_csv(records: list[RunRecord], path: str | Path) -> None:
    lines = [SUMMARY_HEADER]
    for r in records:
        fields = [r.policy, str(r.horizon), str(r.replication), str(r.seed)]
        fields += [_fmt(r.metric(name)) for name in SUMMARY_METRICS]
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")


def read_summary_csv(path: str | Path) -> list[dict]:
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != SUMMARY_HEADER:
        raise ValueError(f"unexpected summary header in {path}")
    rows = []
    for line in text[1:]:
        policy, T, rep, seed, *values = line.split(",")
        row = {"policy": policy, "T": int(T), "replication": int(rep), "seed": int(seed)}
        row.update(zip(SUMMARY_METRICS, map(float, values), strict=True))
        rows.append(row)
    return rows


def load_config(path: str | Path) -> ExperimentConfig:
    doc = json.loads(Path(path).read_text())
    return ExperimentConfig.from_json_dict(doc, base_dir=Path(path).parent)
