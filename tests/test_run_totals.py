"""Run totals: ``repeated_sum`` and the regret heads of ``RunRecord``.

Every total must be the left-to-right ``np.cumsum`` total of its full
column, bit for bit, while a run whose price freezes passes the record the
heads of its columns and is summed over them only.
"""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqprice import harness, market
from eqprice.harness import ExperimentConfig, RunRecord, repeated_sum, run_experiment
from eqprice.market import (
    CostSpec, GeneratorSpec, InstanceSpec, MarketInstance, aggregate_production, full_column
)

#: The criterion-1 market: three quadratic suppliers and a demand of 1.
CRITERION_1 = InstanceSpec(
    suppliers=(CostSpec.quadratic(0.2), CostSpec.quadratic(0.45), CostSpec.quadratic(0.9)),
    demands=GeneratorSpec(kind="constant", value=1.0),
    horizon=1000,
)
#: Periods before the fixed tracker's price freezes on it at T = 1e6.
CRITERION_1_HEAD = 21_182


def loop_sum(s, x, n):
    for _ in range(n):
        s = s + x
    return s


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64) or (
        math.isnan(a) and math.isnan(b)
    )


@st.composite
def sum_cases(draw):
    """(s, x, n) with x often a whole or half multiple of s's spacing (ties,
    also from just inside a binade's edge toward it), a fraction of -s (zero
    crossings) or subnormal."""
    s = draw(st.floats(allow_nan=True, allow_infinity=True))
    kind = draw(st.sampled_from(["any", "tie", "edge", "toward_zero", "subnormal"]))
    if kind == "edge":
        q = draw(st.integers(-60, 60))
        step = draw(st.integers(1, 40)) + draw(st.sampled_from([0.0, 0.5]))
        if draw(st.booleans()):  # up to the top of the binade
            s, x = (2**53 - draw(st.integers(1, 200))) * 2.0**q, step * 2.0**q
        else:  # down to the bottom
            s, x = (2**52 + draw(st.integers(0, 200))) * 2.0**q, -step * 2.0**q
        if draw(st.booleans()):
            s, x = -s, -x
    elif kind == "tie" and math.isfinite(s) and s != 0:
        spacing = math.ulp(s) * 2.0 ** draw(st.integers(-1, 3))
        x = draw(st.integers(-64, 64)) * spacing + draw(st.sampled_from([0.0, 0.5])) * spacing
    elif kind == "toward_zero" and math.isfinite(s):
        x = -s / draw(st.integers(1, 3000))
    elif kind == "subnormal":
        x = draw(st.integers(-2**20, 2**20)) * 2.0**-1074
        s = draw(st.integers(-2**40, 2**40)) * 2.0**-1074
    else:
        x = draw(st.floats(allow_nan=True, allow_infinity=True))
    return s, x, draw(st.integers(0, 3000))


@settings(max_examples=600, deadline=None)
@given(sum_cases())
@example((0.0, -0.0, 5))
@example((-0.0, 0.0, 5))
@example((-0.0, -0.0, 5))
@example((1.0, 2.0**-53, 10))  # ties to even: 1.0 never moves
@example((1.0 + 2.0**-52, 2.0**-53, 10))  # ties to even: one step, then still
@example((1.5, 3 * 2.0**-53, 3000))  # ties with an odd step
@example((1.7e308, 1e305, 3000))  # overflow to inf
@example((math.inf, -math.inf, 3))
@example((1.0, math.nan, 3))
@example((2.0**-1022, -(2.0**-1074), 3000))  # normal into subnormal
@example((-(2.0**-1030), 2.0**-1040, 3000))  # subnormal through zero
@example((1.0, -1e-3, 3000))  # through zero, across binades both ways
def test_repeated_sum_matches_the_loop(case):
    s, x, n = case
    assert same_bits(repeated_sum(s, x, n), loop_sum(s, x, n)), case


def test_repeated_sum_matches_cumsum_at_long_runs():
    rng = np.random.Generator(np.random.Philox(key=19))
    for _ in range(30):
        n = int(rng.integers(100_000, 1_000_001))
        s = float(rng.normal() * 10.0 ** rng.integers(-6, 6))
        x = float(rng.normal() * 10.0 ** rng.integers(-9, 3))
        if rng.random() < 0.3:
            x = -s / float(rng.integers(1_000, n))  # crosses zero
        col = np.full(n + 1, x)
        col[0] = s
        want = float(np.cumsum(col)[-1])
        assert repeated_sum(s, x, n).hex() == want.hex(), (s.hex(), x.hex(), n)


def cumsum_totals(cols, T):
    """The six metrics as one np.cumsum pass per column computes them."""
    buf = np.empty(T)

    def total(col):
        return float(np.cumsum(col, out=buf)[-1])

    with np.errstate(invalid="ignore", over="ignore"):
        return {
            "U_T": total(cols["unmet_inc"]),
            "C_T": total(cols["cost_inc"]),
            "P_T": total(cols["pay_inc"]),
            "C_T_pos": total(np.maximum(cols["cost_inc"], 0.0, out=buf)),
            "P_T_pos": total(np.maximum(cols["pay_inc"], 0.0, out=buf)),
            "proxy_reg": total(cols["proxy_inc"]),
        }


def record_of(col):
    T = len(col)
    cols = {name: col for name in ("unmet_inc", "cost_inc", "pay_inc", "proxy_inc")}
    rec = RunRecord("constant_price", T, 0, 0, np.ones(T), np.ones(T), np.ones(T), **cols)
    return rec, cumsum_totals(cols, T)


def _tail(head, value, n):
    return np.concatenate([np.asarray(head, dtype=np.float64), np.full(n, value)])


RNG = np.random.Generator(np.random.Philox(key=23))
COLUMNS = {
    "constant-tail": _tail(RNG.normal(size=500), 0.1, 20_000),
    "negative-tail": _tail(RNG.normal(size=500), -3.7e-5, 20_000),
    "first-equals-last": np.array([0.25, 1.0, -2.0, 3.0, 0.25]),
    "first-equals-last-long": np.append(_tail([0.3], 7.0, 5_000), 0.3),
    "all-constant": np.full(10_000, 0.1),
    "all-negative-zero": np.full(100, -0.0),
    "T=1": np.array([0.7]),
    "T=1-negative-zero": np.array([-0.0]),
    "negative-zero-tail": _tail([0.0, 0.0], -0.0, 50),
    "negative-zero-tail-after-negative": _tail([-1.0, 1.0], -0.0, 50),
    # equal as floats, not as bits: -0.0 + 0.0 is 0.0, and the -0.0 tail keeps it
    "negative-zero-tail-after-zero": _tail([-0.0, 0.0], -0.0, 50),
    "nan-tail": _tail([1.0, 2.0], math.nan, 50),
    "inf-tail": _tail([1.0, 2.0], math.inf, 50),
    "minus-inf-tail": _tail([1.0, 2.0], -math.inf, 50),
    "inf-then-minus-inf-tail": _tail([math.inf], -math.inf, 50),
    "overflowing-tail": _tail([1e308], 1e306, 5_000),
    "subnormal-tail": _tail([2.0**-1060], 2.0**-1074, 100_000),
    "no-tail": RNG.normal(size=5_000),
    "int": np.arange(-50, 3_000),
    "int-constant-tail": np.concatenate([np.arange(10), np.full(1_000, 3)]),
}


@pytest.mark.parametrize("name", list(COLUMNS))
def test_record_totals_match_cumsum(name):
    rec, want = record_of(COLUMNS[name])
    for metric, value in want.items():
        assert rec.metric(metric).hex() == value.hex(), metric


def test_record_totals_of_a_strided_column_match_cumsum():
    col = _tail(RNG.normal(size=100), 0.3, 3_000)[::2]
    rec, want = record_of(col)
    assert {m: rec.metric(m).hex() for m in want} == {m: v.hex() for m, v in want.items()}


@pytest.mark.parametrize(
    "policy, params",
    [("fixed_interval", {}), ("constant_price", {"p": 0.3}), ("constant_price", {"p": 0.9})],
)
def test_criterion_1_totals_match_cumsum(policy, params):
    T = 10**6
    cfg = ExperimentConfig(
        instance=CRITERION_1, policy=policy, horizons=(T,), policy_params=params
    )
    rec = run_experiment(cfg)[0]
    cols = {n: getattr(rec, n) for n in ("unmet_inc", "cost_inc", "pay_inc")}
    want = cumsum_totals({**cols, "proxy_inc": np.zeros(T)}, T)
    del want["proxy_reg"]
    assert math.isnan(rec.proxy_reg)
    for metric, value in want.items():
        assert rec.metric(metric).hex() == value.hex(), metric


def test_frozen_record_sums_only_its_head(monkeypatch):
    # The fixed tracker freezes on the criterion-1 market at T = 1e6 after
    # 21,182 periods. Its price head ends with the first frozen period, the
    # regret pass returns heads of every column of that length, the record
    # takes them as they are, and neither the record's totals nor the run
    # pass over the horizon.
    T = 10**6
    inst = CRITERION_1.with_horizon(T).materialize(harness.replication_stream(0, 0))
    prices, _ = harness._run_fixed(inst, {}, None, None)
    assert prices.shape == (CRITERION_1_HEAD + 1,)
    assert prices[-2] != prices[-1]
    cols = inst.regret_columns(prices)
    assert list(cols) == list(RunRecord._COLUMNS[:-1])
    assert all(h.shape == (CRITERION_1_HEAD + 1,) for h in cols.values())
    sizes = []
    cumsum = np.cumsum

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", spy)
    rec = RunRecord("fixed_interval", T, 0, 0, **cols)
    run_experiment(ExperimentConfig(instance=CRITERION_1, policy="fixed_interval", horizons=(T,)))
    monkeypatch.undo()
    assert sizes and max(sizes) <= CRITERION_1_HEAD, max(sizes)
    for name, head in cols.items():
        assert vars(rec)[name] is head  # stored as given, until read


def test_frozen_regret_pass_prices_only_its_head(monkeypatch):
    # The regret pass of the frozen criterion-1 run prices the head and the
    # first period of the frozen tail, and nothing more.
    T = 10**6
    sizes = []
    production = MarketInstance._production

    def spy(self, prices):
        sizes.append(np.size(prices))
        return production(self, prices)

    monkeypatch.setattr(MarketInstance, "_production", spy)
    cfg = ExperimentConfig(instance=CRITERION_1, policy="fixed_interval", horizons=(T,))
    run_experiment(cfg)
    assert sizes and max(sizes) <= CRITERION_1_HEAD + 1, max(sizes)


def test_frozen_fixed_interval_run_allocates_only_its_columns():
    # A frozen criterion-1 run allocates no T-sized array: the kernel returns
    # its price head, its constant demand is one value, and its columns are
    # heads until read. The regret pass holds head-sized arrays only (it
    # measures eight at once), and the record one (its scratch buffer).
    T = 10**6
    head = 8 * (CRITERION_1_HEAD + 1)
    cfg = ExperimentConfig(instance=CRITERION_1, policy="fixed_interval", horizons=(T,))
    run_experiment(dataclasses.replace(cfg, horizons=(1000,)))  # first-use caches
    tracemalloc.start()
    try:
        rec = run_experiment(cfg)[0]
        peak = tracemalloc.get_traced_memory()[1]
        inst = CRITERION_1.with_horizon(T).materialize(harness.replication_stream(0, 0))
        prices, _ = harness._run_fixed(inst, {}, None, None)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cols = inst.regret_columns(prices)
        regret_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        RunRecord("fixed_interval", T, 0, 0, **cols)
        record_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rec.demand.strides == (0,) and not rec.demand.flags.writeable
    assert peak <= 2 * 2**20, peak
    assert regret_peak <= 9 * 8 * CRITERION_1_HEAD, regret_peak
    assert record_peak <= head + 2**14, record_peak
    assert sum(_kept(rec).values()) <= 6 * head
    # A constant demand listed period by period: the record keeps no view of
    # the instance's T-long demand array, only arrays of at most one head.
    n = 10**5
    listed = InstanceSpec(suppliers=CRITERION_1.suppliers, demands=(1.0,) * n, horizon=n)
    rec = run_experiment(dataclasses.replace(cfg, instance=listed, horizons=(n,)))[0]
    assert all(len(vars(rec)[name]) == CRITERION_1_HEAD + 1 for name in RunRecord._COLUMNS[:-1])
    assert max(_kept(rec).values()) <= head


def _kept(*records) -> dict:
    """The memory the records keep: the bytes behind each array they store,
    by the id of the array that owns them."""
    owners = {}
    for rec in records:
        for a in vars(rec).values():
            while isinstance(a, np.ndarray) and a.base is not None:
                a = a.base
            if isinstance(a, np.ndarray):
                owners[id(a)] = a.nbytes
    return owners


def test_exported_frozen_runs_keep_only_their_heads(tmp_path):
    # Writing a per-period CSV builds each block of rows from the records'
    # heads: the export expands no column to the horizon (five of them are
    # 38 MiB at T = 1e6), and the records keep their heads only.
    T = 10**6
    cfg = ExperimentConfig(
        instance=CRITERION_1, policy="fixed_interval", horizons=(T,), replications=2,
        out=tmp_path,
    )
    records = run_experiment(cfg)
    written = sorted(tmp_path.iterdir())
    assert [p.name for p in written] == [
        "run_T1000000_rep0.csv", "run_T1000000_rep1.csv", "summary.csv"
    ]
    for p in written:
        p.unlink()  # 200 MB of CSV
    kept = _kept(*records)
    assert sum(kept.values()) <= 2 * 6 * 8 * (CRITERION_1_HEAD + 1), kept
    # one export traced, at a shorter horizon: tracing slows it fivefold
    cfg = dataclasses.replace(cfg, horizons=(10**5,), replications=1, out=None)
    rec = run_experiment(cfg)[0]
    tracemalloc.start()
    try:
        harness.write_run_csv(rec, tmp_path / "traced.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, peak


def test_only_market_and_harness_know_the_head_format():
    # market makes the heads and a RunRecord column reads them: every other
    # module reads a record's columns
    package = Path(market.__file__).parent
    users = {p.name for p in package.glob("*.py") if "full_column" in p.read_text()}
    assert users == {"market.py", "harness.py"}


def test_records_compare_by_identity_and_keep_their_heads():
    # == on two records of equal 3-row heads at T = 5 neither raises nor
    # reads a column: a record equals only itself
    cols = {name: np.ones(3) for name in RunRecord._COLUMNS[:-1]}
    a, b = (RunRecord("constant_price", 5, 0, 0, **cols) for _ in range(2))
    assert (a == b) is False and (a != b) is True and a == a
    for rec in (a, b):
        assert all(vars(rec)[name] is col for name, col in cols.items())


@st.composite
def price_only_runs(draw):
    """(instance, policy, params) of a policy on a quadratic or linear market
    with a constant demand: fixed_interval, or constant_price at any price."""
    if draw(st.booleans()):
        suppliers = tuple(
            CostSpec.quadratic(draw(st.floats(0.05, 3.0)), draw(st.sampled_from([0.0, 0.1, 0.4])))
            for _ in range(draw(st.integers(1, 3)))
        )
    else:
        c, cap = draw(st.floats(0.05, 0.95)), draw(st.floats(0.5, 3.0))
        suppliers = (CostSpec.linear(c=c, cap=cap),)
    d = draw(st.floats(0.05, 1.0)) * aggregate_production(suppliers, 1.0).total
    T = draw(st.integers(1, 3000))
    spec = InstanceSpec(
        suppliers=suppliers, demands=GeneratorSpec(kind="constant", value=d), horizon=T
    )
    if draw(st.booleans()):
        return spec, "fixed_interval", {}
    return spec, "constant_price", {"p": draw(st.floats(0.0, 1.0))}


@settings(max_examples=60, deadline=None)
@given(price_only_runs())
@example((CRITERION_1.with_horizon(10**6), "fixed_interval", {}))
def test_record_of_heads_equals_record_of_full_columns(run):
    # A record built from the regret heads reads, column by column, and
    # totals the bits of one built from the full columns.
    spec, policy, params = run
    T = spec.horizon
    inst = spec.materialize(harness.replication_stream(0, 0))
    prices, _ = harness.POLICIES[policy][-1](inst, params, None, None)
    cols = inst.regret_columns(prices)
    full = {name: full_column(col, T) for name, col in cols.items()}
    heads = RunRecord(policy, T, 0, 0, **cols)
    whole = RunRecord(policy, T, 0, 0, **full)
    for name in RunRecord._COLUMNS[:-1]:
        col = getattr(heads, name)
        assert vars(heads)[name] is cols[name]  # a read leaves the head in place
        assert col.shape == (T,) and col.dtype == np.float64
        assert col.tobytes() == getattr(whole, name).tobytes(), name
    for name in harness.SUMMARY_METRICS:
        assert same_bits(heads.metric(name), whole.metric(name)), name


def _record(T, k, lengths=()):
    """A record of constant_price whose columns are heads of ``k`` periods,
    except those ``lengths`` names, as (column, length) pairs."""
    cols = {name: np.ones(k) for name in RunRecord._COLUMNS[:-1]}
    cols.update((name, np.ones(n)) for name, n in lengths)
    return RunRecord("constant_price", T, 0, 0, **cols)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"T": 10, "k": 5, "lengths": [("cost_inc", 4)]}, "cost_inc"),
        ({"T": 10, "k": 5, "lengths": [("unmet_inc", 4)]}, "unmet_inc"),
        ({"T": 10, "k": 0}, "production"),
        ({"T": 10, "k": 11}, "production"),
        ({"T": 5, "k": 3, "lengths": [("price", 5)]}, "price"),
        ({"T": 5, "k": 3, "lengths": [("price", 2)]}, "price"),
        ({"T": 5, "k": 3, "lengths": [("demand", 5)]}, "demand"),
        ({"T": 5, "k": 3, "lengths": [("demand", 1)]}, "demand"),
        ({"T": 5, "k": 3, "lengths": [("proxy_inc", 5)]}, "proxy_inc"),
        ({"T": 5, "k": 3, "lengths": [("proxy_inc", 2)]}, "proxy_inc"),
    ],
    ids=[
        "unequal-heads", "unequal-first-heads", "k=0", "k>T", "price-of-the-horizon",
        "short-price", "demand-of-the-horizon", "one-period-demand",
        "proxy-of-the-horizon", "short-proxy",
    ],
)
def test_record_refuses_heads_that_cannot_stand_for_the_horizon(kwargs, named):
    with pytest.raises(ValueError, match=rf"^column {named} "):
        _record(**kwargs)


def test_record_accepts_a_head_where_price_and_demand_hold():
    # a record of 3-row heads stands for 5 periods: its last row repeats
    price, demand, proxy = [0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [0.5, 0.25, 0.125]
    rec = RunRecord(
        "constant_price", 5, 0, 0, demand, price, *[np.ones(3)] * 4, proxy_inc=proxy
    )
    assert rec.price.tobytes() == np.array([0.1, 0.2, 0.3, 0.3, 0.3]).tobytes()
    assert rec.demand.tobytes() == np.array([1.0, 2.0, 3.0, 3.0, 3.0]).tobytes()
    assert rec.proxy_inc.tobytes() == np.array([0.5, 0.25, 0.125, 0.125, 0.125]).tobytes()
    assert rec.production.tobytes() == np.ones(5).tobytes()
    assert rec.unmet == 5.0
    assert rec.proxy_reg == 1.125
    rec = _record(5, 3)  # no proxy_inc: it reads as None
    assert rec.proxy_inc is None and math.isnan(rec.proxy_reg)


def test_repr_of_a_frozen_record_expands_no_column():
    # the repr shows the run and its totals, and reads no column: reading
    # one would expand its head to the horizon
    T = 10**6
    rec = run_experiment(
        ExperimentConfig(instance=CRITERION_1, policy="fixed_interval", horizons=(T,))
    )[0]
    stored = dict(vars(rec))
    tracemalloc.start()
    try:
        text = repr(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * CRITERION_1_HEAD, peak
    assert all(vars(rec)[name] is col for name, col in stored.items())
    assert all(len(vars(rec)[name]) == CRITERION_1_HEAD + 1 for name in RunRecord._COLUMNS[:-1])
    assert text.startswith("RunRecord(policy='fixed_interval', horizon=1000000, replication=0,")
    for name in ("unmet", "cost_regret", "payment_regret", "cost_pos", "pay_pos", "proxy_reg"):
        assert f"{name}={getattr(rec, name)!r}" in text
    for name in RunRecord._COLUMNS:
        assert f"{name}=" not in text
