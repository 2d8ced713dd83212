"""Run totals: ``repeated_sum`` and the head/tail split of ``RunRecord``.

Every total must be the left-to-right ``np.cumsum`` total of its column, bit
for bit, while a column that ends in a long run of equal values is summed
over its head only.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqprice import harness
from eqprice.harness import ExperimentConfig, RunRecord, repeated_sum, run_experiment
from eqprice.market import CostSpec, GeneratorSpec, InstanceSpec, MarketInstance

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
    # 21,182 periods; the record's totals must not pass over the horizon.
    T = 10**6
    inst = CRITERION_1.with_horizon(T).materialize(harness.replication_stream(0, 0))
    prices = harness._fixed_prices(inst)
    assert np.all(prices[CRITERION_1_HEAD:] == prices[-1])
    assert prices[CRITERION_1_HEAD - 1] != prices[-1]
    cols = inst.regret_columns(prices)
    sizes = []
    cumsum = np.cumsum

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", spy)
    RunRecord("fixed_interval", T, 0, 0, inst.demands, **cols)
    monkeypatch.undo()
    assert sizes and max(sizes) <= CRITERION_1_HEAD, max(sizes)


def test_frozen_regret_pass_prices_only_its_head(monkeypatch):
    # The regret pass of the frozen criterion-1 run prices the head and the
    # first period of the frozen tail, and fills the rest.
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
    # A frozen criterion-1 run returns a price column and four regret
    # columns of T float64 each, and its constant demand is one value. Next
    # to its four columns the regret pass holds at most four head-sized
    # arrays at once (it measures three), and the record two (its scratch
    # buffer and a mask).
    T = 10**6
    cfg = ExperimentConfig(instance=CRITERION_1, policy="fixed_interval", horizons=(T,))
    run_experiment(dataclasses.replace(cfg, horizons=(1000,)))  # first-use caches
    tracemalloc.start()
    try:
        rec = run_experiment(cfg)[0]
        peak = tracemalloc.get_traced_memory()[1]
        inst = CRITERION_1.with_horizon(T).materialize(harness.replication_stream(0, 0))
        prices = harness._fixed_prices(inst)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cols = inst.regret_columns(prices)
        regret_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        RunRecord("fixed_interval", T, 0, 0, inst.demands, **cols)
        record_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rec.demand.strides == (0,)
    assert peak <= 5 * 8 * T + 4 * 2**20, peak
    assert regret_peak <= 4 * 8 * T + 4 * 8 * CRITERION_1_HEAD, regret_peak
    assert record_peak <= 2 * 8 * CRITERION_1_HEAD, record_peak
