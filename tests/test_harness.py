import dataclasses
import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqprice import harness, kernels, market
from eqprice.harness import (
    CSV_BLOCK_ROWS,
    PER_PERIOD_HEADER,
    ExperimentConfig,
    RunRecord,
    fit_scaling,
    load_config,
    mean_metric_by_horizon,
    read_summary_csv,
    replication_stream,
    run_experiment,
    write_run_csv,
    write_summary_csv,
)
from eqprice.market import (
    CostSpec,
    GeneratorSpec,
    InstanceSpec,
    aggregate_production,
    equilibrium_price,
)

QUAD_FIXED = InstanceSpec(
    suppliers=(CostSpec.quadratic(0.3),),
    demands=GeneratorSpec(kind="constant", value=1.0),
    horizon=1000,
)


def contextual_spec(n_members=4, seed=90, bound=9.0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    phi_a = (0.75, 0.75, 0.5)
    phi_b = (0.75, 0.75, 0.5)
    truth = tuple(a + b for a, b in zip(phi_a, phi_b))
    members = [{"family": "context_quadratic", "phi": list(truth), "feature_map_id": "identity"}]
    for _ in range(n_members - 1):
        members.append(
            {
                "family": "context_quadratic",
                "phi": list(np.array(truth) * rng.uniform(0.6, 1.4, 3)),
                "feature_map_id": "identity",
            }
        )
    return InstanceSpec(
        suppliers=(
            CostSpec.context_quadratic(phi_a),
            CostSpec.context_quadratic(phi_b),
        ),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        contexts=GeneratorSpec(kind="uniform_cube", lo=0.5, hi=1.5, dim=3),
        horizon=500,
        function_class=tuple(members),
        class_bound=bound,
    )


def test_constant_price_at_equilibrium_zero_regret():
    p_star = equilibrium_price([CostSpec.quadratic(0.3)], 1.0)
    cfg = ExperimentConfig(
        instance=QUAD_FIXED,
        policy="constant_price",
        horizons=(200,),
        policy_params={"p": p_star},
    )
    rec = run_experiment(cfg)[0]
    assert np.all(np.abs(rec.unmet_inc) <= 1e-9)
    assert np.all(np.abs(rec.cost_inc) <= 1e-9)
    assert np.all(np.abs(rec.pay_inc) <= 1e-9)


@pytest.mark.parametrize(
    "params", [{}, {"p": None}, {"p": "0.5"}, {"p": True}, {"p": 1.5}, {"p": math.nan}]
)
def test_constant_price_p_must_be_a_number_in_unit_interval(params):
    # rejected when the config is built
    with pytest.raises(ValueError, match=r"policy_params\['p'\] must be a price in \[0, 1\]"):
        ExperimentConfig(
            instance=QUAD_FIXED, policy="constant_price", horizons=(20,), policy_params=params
        )


@pytest.mark.parametrize("horizons", [100, "100", [[100, 200]], []])
def test_horizons_must_be_a_list(horizons):
    with pytest.raises(ValueError, match="horizons must be a non-empty list"):
        ExperimentConfig(instance=QUAD_FIXED, policy="fixed_interval", horizons=horizons)


QUAD_INTERCEPTS = (CostSpec.quadratic(0.3, a=0.05), CostSpec.quadratic(0.8))


def record_step(suppliers, d, theta, p):
    """One period's (unmet, cost, payment) increments at posted price ``p``,
    from the scalar API one supplier at a time: the clearing price, both
    allocations, and each supplier's cost."""
    p_star = equilibrium_price(suppliers, d, theta)
    alloc = aggregate_production(suppliers, p, theta)
    alloc_eq = aggregate_production(suppliers, p_star, theta)
    cost_inc = 0.0
    for s, x, x_eq in zip(suppliers, alloc.per_supplier, alloc_eq.per_supplier):
        cost_inc += s.cost(x, theta) - s.cost(x_eq, theta)
    return max(0.0, d - alloc.total), cost_inc, p * alloc.total - p_star * alloc_eq.total


@pytest.mark.parametrize(
    "policy, instance, params",
    [
        (
            "fixed_interval",
            InstanceSpec(
                suppliers=QUAD_INTERCEPTS,
                demands=GeneratorSpec(kind="constant", value=1.7),
                horizon=4000,
            ),
            {},
        ),
        (
            "demand_grid",
            InstanceSpec(
                suppliers=(CostSpec.quadratic(0.5), CostSpec.quadratic(1.0, a=0.1)),
                demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
                horizon=2500,
            ),
            {},
        ),
        (
            "constant_price",
            InstanceSpec(
                suppliers=QUAD_INTERCEPTS,
                demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
                horizon=500,
            ),
            {"p": 0.6},
        ),
        ("constant_price", contextual_spec().with_horizon(300), {"p": 0.4}),
        ("contextual_igw", contextual_spec().with_horizon(300), {}),
    ],
)
def test_regret_columns_match_record_step(policy, instance, params):
    cfg = ExperimentConfig(
        instance=instance, policy=policy, horizons=(instance.horizon,), seed=31,
        policy_params=params,
    )
    rec = run_experiment(cfg)[0]
    inst = instance.materialize(replication_stream(31, 0))
    inc = []
    for t in range(instance.horizon):
        theta = None if inst.contexts is None else inst.contexts[t]
        p = float(rec.price[t])
        inc.append(record_step(inst.suppliers, float(inst.demands[t]), theta, p))
        assert rec.production[t] == pytest.approx(
            aggregate_production(inst.suppliers, p, theta).total, abs=1e-12
        )
    inc = np.array(inc)
    # both sides use the exact clearing price and differ only in summation
    # order
    assert np.allclose(rec.unmet_inc, inc[:, 0], rtol=0.0, atol=1e-12)
    assert np.allclose(rec.cost_inc, inc[:, 1], rtol=0.0, atol=1e-12)
    assert np.allclose(rec.pay_inc, inc[:, 2], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "policy, params",
    [("fixed_interval", {}), ("constant_price", {"p": 0.2}), ("constant_price", {"p": 0.7})],
)
def test_regret_columns_single_linear_supplier(policy, params):
    # p* = c = 0.4 and the clearing allocation produces exactly the demand
    supplier = CostSpec.linear(c=0.4, cap=2.0)
    d, T = 1.0, 3000
    instance = InstanceSpec(
        suppliers=(supplier,), demands=GeneratorSpec(kind="constant", value=d), horizon=T
    )
    cfg = ExperimentConfig(
        instance=instance, policy=policy, horizons=(T,), policy_params=params
    )
    rec = run_experiment(cfg)[0]
    for t in range(T):
        p = float(rec.price[t])
        x = aggregate_production((supplier,), p).total
        assert rec.production[t] == x
        assert rec.unmet_inc[t] == max(0.0, d - x)
        assert rec.cost_inc[t] == pytest.approx(supplier.cost(x) - supplier.cost(d), abs=1e-12)
        assert rec.pay_inc[t] == pytest.approx(p * x - 0.4 * d, abs=1e-12)


#: The policies each supported supplier mix is refused by: the README's
#: "suppliers | policies" table, read the other way.
REFUSED_BY = {
    "quadratic": ("contextual_igw",),
    "linear": ("demand_grid", "contextual_igw"),
    "context_quadratic": ("fixed_interval", "demand_grid"),
}


@pytest.mark.parametrize(
    "suppliers",
    [
        (CostSpec.quadratic(0.5), CostSpec.linear(c=0.4, cap=2.0)),
        (CostSpec.linear(c=0.4, cap=2.0), CostSpec.linear(c=0.6, cap=2.0)),
        (CostSpec.quadratic(0.5), CostSpec.quadratic(1.0)),
        (CostSpec.linear(c=0.4, cap=2.0),),
        (CostSpec.context_quadratic((1.0,)), CostSpec.context_quadratic((0.5,))),
    ],
)
def test_unsupported_supplier_mix_rejected_before_policy_runs(suppliers, monkeypatch):
    def never(*args):
        raise AssertionError("kernel ran on an unsupported supplier mix")

    for name in ("fixed_trajectory", "demand_trajectory", "contextual_trajectory"):
        monkeypatch.setattr(kernels, name, never)
    member = CostSpec.context_quadratic((1.0,))
    instance = InstanceSpec(
        suppliers=suppliers,
        demands=GeneratorSpec(kind="constant", value=1.0),
        contexts=GeneratorSpec(kind="uniform_cube", lo=1.0, hi=1.5, dim=1),
        horizon=100,
        function_class=(member,),
        class_bound=9.0,
    )
    families = {s.family for s in suppliers}
    if len(families) > 1 or (len(suppliers) > 1 and families == {"linear"}):
        # no policy runs on these: market.supplier_mix refuses them
        refused = [(policy, "support") for policy in harness.POLICIES]
    else:
        (family,) = families
        refused = [(policy, f"{policy} .*{family}") for policy in REFUSED_BY[family]]
    for policy, message in refused:
        params = {"p": 0.5} if policy == "constant_price" else {}
        # the config refuses the mix when it is built, so no run can start
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(
                instance=instance, policy=policy, horizons=(100,), policy_params=params
            )


def test_contextual_coefficients_computed_once_per_run(monkeypatch):
    # one pass per distinct feature map over the whole context path: the
    # suppliers' when the instance is materialised, the class members' when
    # the policy starts; the policy and the regret pass reuse both paths
    calls = []
    original = market.apply_feature_map

    def counting(map_id, contexts):
        calls.append((map_id, np.shape(contexts)))
        return original(map_id, contexts)

    monkeypatch.setattr(market, "apply_feature_map", counting)
    spec = contextual_spec()
    tanh_member = CostSpec.context_quadratic((1.0, 0.5, 0.5, 0.5), "tanh_affine")
    spec = dataclasses.replace(spec, function_class=spec.function_class + (tanh_member,))
    cfg = ExperimentConfig(instance=spec, policy="contextual_igw", horizons=(100,))
    run_experiment(cfg)
    # two identity suppliers; identity and tanh_affine members
    assert sorted(calls) == [
        ("identity", (100, 3)), ("identity", (100, 3)), ("tanh_affine", (100, 3))
    ]


def test_fixed_interval_converges_to_clearing_price():
    cfg = ExperimentConfig(
        instance=QUAD_FIXED, policy="fixed_interval", horizons=(100_000,)
    )
    rec = run_experiment(cfg)[0]
    assert abs(rec.price[-1] - 0.3) <= 1e-5 + 1e-10


def test_byte_identical_reruns(tmp_path):
    cfg = ExperimentConfig(
        instance=contextual_spec(),
        policy="contextual_igw",
        horizons=(300,),
        replications=2,
        seed=424,
        out=str(tmp_path / "a"),
    )
    run_experiment(cfg)
    cfg2 = ExperimentConfig(
        instance=contextual_spec(),
        policy="contextual_igw",
        horizons=(300,),
        replications=2,
        seed=424,
        out=str(tmp_path / "b"),
    )
    run_experiment(cfg2)
    for name in ("summary.csv", "run_T300_rep0.csv", "run_T300_rep1.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_replications_use_distinct_streams():
    cfg = ExperimentConfig(
        instance=InstanceSpec(
            suppliers=(CostSpec.quadratic(0.5), CostSpec.quadratic(1.0)),
            demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
            horizon=200,
        ),
        policy="demand_grid",
        horizons=(200,),
        replications=3,
        seed=7,
    )
    records = run_experiment(cfg)
    assert [r.seed for r in records] == [7, 8, 9]
    assert not np.array_equal(records[0].demand, records[1].demand)
    s1 = replication_stream(7, 0).uniform(0.0, 1.0, 8)
    s2 = replication_stream(7, 1).uniform(0.0, 1.0, 8)
    assert not np.array_equal(s1, s2)


@pytest.mark.parametrize("seed, replication", [(-1, 0), (-3, 2), (2**128 - 1, 1), (1.5, 0)])
def test_replication_stream_refuses_a_bad_seed_by_name(seed, replication):
    # numpy refused -1 with "key must be positive", naming no field
    with pytest.raises(ValueError, match="seed"):
        replication_stream(seed, replication)


def test_fixed_interval_rejects_varying_demand():
    # the config was accepted, and the run refused the demand
    for demands in (
        GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        GeneratorSpec(kind="uniform", lo=0.5, hi=1.0),
        (1.0,) * 99 + (0.9,),
    ):
        with pytest.raises(ValueError, match="fixed_interval expects a constant demand"):
            ExperimentConfig(
                instance=InstanceSpec(
                    suppliers=(CostSpec.quadratic(0.5),), demands=demands, horizon=100
                ),
                policy="fixed_interval",
                horizons=(100,),
            )


@pytest.mark.parametrize(
    "demands", [GeneratorSpec(kind="uniform", lo=0.75, hi=0.75), (0.75,) * 100],
    ids=["uniform-lo-equals-hi", "explicit-equal"],
)
def test_fixed_interval_runs_a_constant_demand_in_any_form(demands):
    spec = InstanceSpec(suppliers=(CostSpec.quadratic(0.5),), demands=demands, horizon=100)
    constant = dataclasses.replace(spec, demands=GeneratorSpec(kind="constant", value=0.75))
    cfg = ExperimentConfig(instance=spec, policy="fixed_interval", horizons=(100,))
    (rec,) = run_experiment(cfg)
    (want,) = run_experiment(dataclasses.replace(cfg, instance=constant))
    assert np.array_equal(rec.demand, want.demand)
    assert rec.price.tobytes() == want.price.tobytes()


def test_contextual_requires_class_and_contexts():
    spec = contextual_spec()
    no_class = InstanceSpec(
        suppliers=spec.suppliers,
        demands=spec.demands,
        contexts=spec.contexts,
        horizon=spec.horizon,
    )
    with pytest.raises(ValueError, match="requires a function_class"):
        ExperimentConfig(instance=no_class, policy="contextual_igw", horizons=(100,))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(instance=QUAD_FIXED, policy="nope", horizons=(10,))
    with pytest.raises(ValueError):
        ExperimentConfig(instance=QUAD_FIXED, policy="fixed_interval", horizons=(100, 10))
    with pytest.raises(ValueError):
        ExperimentConfig(
            instance=QUAD_FIXED, policy="fixed_interval", horizons=(10,), replications=0
        )


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"seed": -1, "replications": 2}, "seed"),  # the first key is -1
        ({"seed": 2**128 - 2, "replications": 3}, "seed"),  # the last key is 2**128
        ({"horizons": (0,)}, "horizons"),
    ],
    ids=["negative-seed", "last-key-2**128", "horizon-0"],
)
def test_seed_and_horizons_refused_when_built(fields, key):
    # each used to build and fail only in run_experiment, the seed with
    # numpy's message, which names no field
    cfg = {"instance": QUAD_FIXED, "policy": "fixed_interval", "horizons": (10,), **fields}
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**cfg)
    # the last admissible key builds
    ExperimentConfig(**{**cfg, "seed": 2**128 - 3, "replications": 3, "horizons": (1,)})


@pytest.mark.parametrize("horizons", [(50, 50), (10, 50, 50), (100, 10)])
def test_horizons_must_be_strictly_ascending(horizons, tmp_path):
    # (50, 50) used to run twice, writing run_T50_rep0.csv twice and two
    # identical summary rows
    with pytest.raises(ValueError, match=r"^horizons must be strictly ascending"):
        ExperimentConfig(
            instance=QUAD_FIXED, policy="fixed_interval", horizons=horizons, out=tmp_path
        )


@pytest.mark.parametrize(
    "name, spec",
    [
        ("demands", dataclasses.replace(QUAD_FIXED, demands=(1.0, 1.0))),
        ("contexts", InstanceSpec(
            suppliers=(CostSpec.context_quadratic((1.0,)),),
            demands=GeneratorSpec(kind="constant", value=0.5),
            horizon=2,
            contexts=((1.0,), (1.0,)),
        )),
    ],
)
def test_listed_sequence_must_cover_every_horizon(name, spec):
    # refused when the config is built, so no run of a shorter horizon starts
    with pytest.raises(ValueError, match=f"^instance {name} lists 2 periods, horizon 3$"):
        ExperimentConfig(
            instance=spec, policy="constant_price", horizons=(2, 3), policy_params={"p": 0.9}
        )
    config = ExperimentConfig(
        instance=spec, policy="constant_price", horizons=(2,), policy_params={"p": 0.9}
    )
    assert len(run_experiment(config)) == 1


def test_policy_params_unknown_key_rejected():
    for params, key in [
        ({"n_prise": 5}, "n_prise"),
        ({"oracle_mode": "hedge"}, "oracle_mode"),
    ]:
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(
                instance=contextual_spec(), policy="contextual_igw", horizons=(100,),
                policy_params=params,
            )


@pytest.mark.parametrize(
    "params, message",
    [
        ({"n_prices": 1}, "n_prices"),
        ({"n_prices": 0}, "n_prices"),
        # delta is a constant of the default gamma_explore, not a setting:
        # it is an unknown key, alone or beside gamma_explore
        ({"delta": 5}, "delta"),
        ({"gamma_explore": 10.0, "delta": 5}, "delta"),
        ({"eta": 0.0}, "eta"),
        ({"eta": math.inf}, "eta"),
        ({"gamma_explore": math.inf}, "gamma_explore"),
        ({"gamma_explore": 10.0, "delta": 0.1}, "delta"),
        ({"n_prices": 2.5}, "n_prices"),
        ({"n_prices": -3, "gamma_explore": 10.0}, "n_prices"),
        ({"gamma_explore": 0.0}, "gamma_explore"),
        # the default gamma_explore reads n_prices, so it is checked first
        ({"n_prices": -3}, "n_prices"),
        ({"n_prices": "4"}, "n_prices"),
        # numeric strings were converted with float() and ran
        ({"gamma_explore": "10"}, "gamma_explore"),
        ({"eta": "0.5"}, "eta"),
    ],
)
def test_contextual_params_out_of_range_rejected(params, message):
    # rejected when the config is built
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(
            instance=contextual_spec(), policy="contextual_igw", horizons=(100,),
            policy_params=params,
        )


def test_demand_grid_params_must_be_positive():
    inst = InstanceSpec(
        suppliers=(CostSpec.quadratic(0.5),),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        horizon=100,
    )
    with pytest.raises(ValueError, match="gamma_demand"):
        ExperimentConfig(
            instance=inst, policy="demand_grid", horizons=(100,),
            policy_params={"gamma_demand": 0.0},
        )


@pytest.mark.parametrize("key", ["gamma_demand", "freeze_width"])
def test_demand_grid_params_must_be_finite(key):
    # gamma_demand = inf made every cell bound d_lo + 0 * inf NaN, so no
    # cell ever shrank; freeze_width = inf froze every cell at price 0
    inst = InstanceSpec(
        suppliers=(CostSpec.quadratic(0.5),),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        horizon=100,
    )
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(
            instance=inst, policy="demand_grid", horizons=(100,),
            policy_params={key: math.inf},
        )


@pytest.mark.parametrize("key, value", [("gamma_demand", "0.1"), ("freeze_width", "0.05")])
def test_demand_grid_params_must_be_numbers(key, value):
    # a numeric string was converted with float() and the sweep ran
    inst = InstanceSpec(
        suppliers=(CostSpec.quadratic(0.5),),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        horizon=100,
    )
    with pytest.raises(ValueError, match=f"{key} must be a number, got '{value}'"):
        ExperimentConfig(
            instance=inst, policy="demand_grid", horizons=(100,), policy_params={key: value}
        )


DEMAND_SPEC = InstanceSpec(
    suppliers=(CostSpec.quadratic(0.5),),
    demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
    horizon=100,
)


@pytest.mark.parametrize(
    "policy, params, key",
    [
        ("contextual_igw", {"eta": -1.0}, "eta"),
        ("contextual_igw", {"n_prices": 1}, "n_prices"),
        ("contextual_igw", {"n_prices": 1.5}, "n_prices"),
        ("contextual_igw", {"n_prices": 5.0}, "n_prices"),
        ("contextual_igw", {"gamma_explore": 0.0}, "gamma_explore"),
        ("contextual_igw", {"eta": None}, "eta"),
        ("constant_price", {"p": 2.0}, "p"),
        ("constant_price", {"p": np.float64(-0.5)}, "p"),
        ("demand_grid", {"gamma_demand": -0.1}, "gamma_demand"),
        ("demand_grid", {"freeze_width": "0.1"}, "freeze_width"),
        ("demand_grid", {"freeze_width": None}, "freeze_width"),
    ],
)
def test_policy_params_are_read_when_the_config_is_built(policy, params, key):
    instance = {"contextual_igw": contextual_spec(), "demand_grid": DEMAND_SPEC}.get(
        policy, QUAD_FIXED
    )
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(instance=instance, policy=policy, horizons=(100,), policy_params=params)


@pytest.mark.parametrize("p", [np.float32(0.5), np.int64(1), np.float64(0.25), 0])
def test_constant_price_accepts_numpy_scalar_prices(p):
    cfg = ExperimentConfig(
        instance=QUAD_FIXED, policy="constant_price", horizons=(50,), policy_params={"p": p}
    )
    assert type(cfg.policy_params["p"]) is float
    rec = run_experiment(cfg)[0]
    assert np.all(rec.price == float(p))


@pytest.mark.parametrize(
    "policy, params",
    [
        ("contextual_igw", {"n_prices": np.int64(5), "gamma_explore": np.float32(10.0)}),
        ("contextual_igw", {"eta": np.float64(0.5)}),
        ("demand_grid", {"gamma_demand": np.float32(0.25), "freeze_width": np.int64(1)}),
    ],
)
def test_numpy_scalar_policy_params_run_as_their_python_values(policy, params):
    instance = contextual_spec() if policy == "contextual_igw" else DEMAND_SPEC
    as_python = {k: v.item() for k, v in params.items()}
    runs = [
        run_experiment(ExperimentConfig(
            instance=instance, policy=policy, horizons=(100,), policy_params=p
        ))[0]
        for p in (params, as_python)
    ]
    assert np.array_equal(runs[0].price, runs[1].price)


def test_contextual_rejects_production_above_class_bound():
    # true production at p = 1 reaches sum(phi) * 1.5 = 6 > B = 2, where the
    # reference oracle would clip observations and the kernel would not
    cfg = ExperimentConfig(
        instance=contextual_spec(bound=2.0), policy="contextual_igw", horizons=(100,)
    )
    with pytest.raises(ValueError, match="class_bound"):
        run_experiment(cfg)


def test_fit_scaling_power_law_exact():
    Ts = [10**3, 10**4, 10**5, 10**6]
    fit = fit_scaling(Ts, [5.0 * math.sqrt(t) for t in Ts], "power_law")
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-9)


def test_fit_scaling_loglog_exact():
    Ts = [10**3, 10**4, 10**5]
    fit = fit_scaling(Ts, [3.0 * math.log(math.log(t)) for t in Ts], "loglog")
    assert fit.slope == pytest.approx(3.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_errors():
    with pytest.raises(ValueError):
        fit_scaling([10, 100], [1.0, 2.0], "power_law")  # too few horizons
    with pytest.raises(ValueError):
        fit_scaling([10, 100, 1000], [2.0, 2.0, 2.0], "power_law")  # zero variance
    with pytest.raises(ValueError):
        fit_scaling([10, 100, 1000], [1.0, -2.0, 3.0], "power_law")  # nonpositive
    with pytest.raises(ValueError):
        fit_scaling([10, 100, 1000], [1.0, 2.0, 3.0], "parabola")
    # the model's logarithms must be defined, and the horizons must differ:
    # these used to reach LAPACK (LinAlgError) or fit slope 0.1297 with r^2 0
    domain = [
        ([1, 10, 100], "loglog", "horizons > 1"),
        ([0.5, 10, 100], "loglog", "horizons > 1"),
        ([0, 10, 100], "power_law", "horizons > 0"),
        ([-10, 10, 100], "power_law", "horizons > 0"),
        ([10, 10, 10], "power_law", "distinct"),
        ([10, 10, 10], "loglog", "distinct"),
    ]
    for horizons, model, message in domain:
        with pytest.raises(ValueError, match=message):
            fit_scaling(horizons, [1.0, 2.0, 3.0], model)
    non_finite = [
        ([10, 100, 1000], [1.0, math.nan, 3.0]),
        ([10, 100, 1000], [math.nan] * 3),
        ([10, 100, 1000], [1.0, 2.0, math.inf]),
        ([10, math.nan, 1000], [1.0, 2.0, 3.0]),
        ([10, 100, math.inf], [1.0, 2.0, 3.0]),
    ]
    for horizons, values in non_finite:
        for model in ("power_law", "loglog"):
            with pytest.raises(ValueError, match="finite"):
                fit_scaling(horizons, values, model)


# no magnitudes below 1e-6, whose squares would underflow toward 0
_fit_floats = st.floats(-1e3, 1e3).filter(lambda v: v == 0 or abs(v) >= 1e-6)


@settings(max_examples=300, deadline=None)
@example([(1.0, 2.0), (2.0, 2.0), (4.0, 2.0)])
@example([(0.0, 1.0579192434033312e-66)] * 2 + [(1.0, 1.0579192434033312e-66)])
@given(
    st.lists(st.tuples(_fit_floats, _fit_floats), min_size=2, max_size=60).filter(
        lambda pts: np.ptp([x for x, _ in pts]) >= 1e-3
    )
)
def test_fit_line_matches_polyfit(points):
    x, y = (np.array(v) for v in zip(*points))
    slope, intercept, r2 = harness._fit_line(x, y)
    want_slope, want_intercept = np.polyfit(x, y, 1)
    # absolute floors at the data's scale, for fits whose slope or
    # intercept is near 0
    y_scale = max(1.0, float(np.abs(y).max()))
    assert slope == pytest.approx(want_slope, rel=1e-9, abs=1e-9 * y_scale / np.ptp(x))
    assert intercept == pytest.approx(
        want_intercept, rel=1e-9, abs=1e-9 * y_scale * (1.0 + np.abs(x).max() / np.ptp(x))
    )
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if np.ptp(y) > 1e-6 * np.abs(y).max():
        resid = y - (want_slope * x + want_intercept)
        assert r2 == pytest.approx(1.0 - float(np.sum(resid**2)) / ss_tot, rel=1e-9, abs=1e-9)
    elif ss_tot == 0:
        # y's spread is all rounding otherwise, and so is r^2 (the polyfit
        # residuals give 0.33 for three equal tiny values whose mean rounds)
        assert r2 == 1.0


def test_run_csv_schema(tmp_path):
    cfg = ExperimentConfig(
        instance=QUAD_FIXED, policy="fixed_interval", horizons=(50,)
    )
    rec = run_experiment(cfg)[0]
    path = tmp_path / "run.csv"
    write_run_csv(rec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,demand,price,production,unmet_inc,cost_inc,pay_inc"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[2]) == 0.0  # first posted price


def test_run_csv_bytes_match_per_value_format(tmp_path):
    # two full blocks plus a partial one, special values at block edges
    T = 2 * CSV_BLOCK_ROWS + 3
    rng = np.random.Generator(np.random.Philox(key=414))
    cols = [rng.uniform(-1e3, 1e3, T) for _ in range(6)]
    specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 3.0, -7.0, 0.0, 2.0**53]
    for j, col in enumerate(cols):
        for i, t in enumerate((0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, T - 1)):
            col[t] = specials[(i + j) % len(specials)]
        col[100 : 100 + len(specials)] = specials
    rec = RunRecord("constant_price", T, 0, 0, *cols)
    path = tmp_path / "run.csv"
    write_run_csv(rec, path)
    expected = PER_PERIOD_HEADER + "\n" + "".join(
        ",".join([str(t + 1)] + [format(float(c[t]), ".17g") for c in cols]) + "\n"
        for t in range(T)
    )
    assert path.read_bytes() == expected.encode()


def _csv_bytes(path, cols):
    """write_run_csv of a record holding six arbitrary columns."""
    write_run_csv(RunRecord("constant_price", len(cols[0]), 0, 0, *cols), path)
    return path.read_bytes()


def _per_value_rows(cols):
    return (PER_PERIOD_HEADER + "\n" + "".join(
        ",".join([str(t + 1)] + [format(float(c[t]), ".17g") for c in cols]) + "\n"
        for t in range(len(cols[0]))
    )).encode()


def _steps(x, n):
    """The float n representable steps away from x."""
    for _ in range(abs(n)):
        x = float(np.nextafter(x, math.copysign(math.inf, n)))
    return x


# Doubles next to powers of ten, where log10 can name the wrong decade:
# 10**-6 is stored below 1e-6 and prints 9.9999999999999995e-07.
_POWER_EDGES = st.builds(
    lambda k, n, sign: sign * _steps(float(Decimal(10) ** k), n),
    st.integers(-6, 18), st.integers(-3, 3), st.sampled_from([1.0, -1.0]),
)
_ANY_BITS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))
)
_CSV_FLOATS = st.one_of(
    st.floats(width=64),
    st.floats(min_value=1e-4, max_value=1e17),
    st.floats(min_value=-1e17, max_value=-1e-4),
    _POWER_EDGES,
    _ANY_BITS,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(_CSV_FLOATS, min_size=6 * n, max_size=6 * n)))
def test_run_csv_bytes_match_per_value_format_property(tmp_path_factory, values):
    cols = list(np.array(values).reshape(6, -1))
    path = tmp_path_factory.mktemp("csv") / "run.csv"
    assert _csv_bytes(path, cols) == _per_value_rows(cols)


def _csv_edge_values():
    edges = []
    for k in range(-5, 18):
        p = float(Decimal(10) ** k)
        edges += [_steps(p, n) for n in (-2, -1, 0, 1, 2)]
    # the ends of the numpy path, both sides
    edges += [_steps(1e-4, -1), 1e-4, _steps(1e-4, 1), _steps(1e17, -1), 1e17, _steps(1e17, 1)]
    # 17-digit rounding carries into the next decade: stored just below the
    # power, they print as it (no double in [1e-4, 1e17) does this)
    edges += [1e-14, 1e-79, 1e98, 1e220]
    # ties at the 17th digit round half to even
    edges += [1e15 + 0.25, 1e15 + 0.75, 2.0**53, 2.0**53 + 2]
    edges += [0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    return np.array(edges + [-x for x in edges])


@pytest.mark.parametrize("T", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_run_csv_edge_values_and_block_edges(tmp_path, T):
    edges = _csv_edge_values()
    cols = [np.resize(np.roll(edges, 7 * j), T) for j in range(6)]
    assert _csv_bytes(tmp_path / "run.csv", cols) == _per_value_rows(cols)
    # blocks whose every value field takes the per-value path: tiny, huge,
    # nan and inf, of both signs
    slow = np.abs(edges[~((np.abs(edges) >= 1e-4) & (np.abs(edges) < 1e17)) & (edges != 0)])
    slow = np.concatenate([slow, -slow, [3.5e-7, -9.99e-5, -math.nan]])
    cols = [np.resize(np.roll(slow, 3 * j), T) for j in range(6)]
    assert _csv_bytes(tmp_path / "slow.csv", cols) == _per_value_rows(cols)


def test_summary_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(
        instance=QUAD_FIXED,
        policy="fixed_interval",
        horizons=(50, 100, 200),
        replications=2,
        seed=5,
    )
    records = run_experiment(cfg)
    path = tmp_path / "summary.csv"
    write_summary_csv(records, path)
    rows = read_summary_csv(path)
    assert len(rows) == 6
    assert rows[0]["policy"] == "fixed_interval"
    assert rows[0]["U_T"] == records[0].unmet
    assert rows[0]["C_T_pos"] == records[0].cost_pos
    assert rows[0]["P_T_pos"] == records[0].pay_pos
    assert math.isnan(rows[0]["proxy_reg"])
    horizons, means = mean_metric_by_horizon(records, "U_T")
    assert horizons == [50, 100, 200]


def test_record_cumulative_fields_match_columns():
    cfg = ExperimentConfig(
        instance=contextual_spec(), policy="contextual_igw", horizons=(250,), seed=3
    )
    rec = run_experiment(cfg)[0]
    assert rec.unmet == float(np.cumsum(rec.unmet_inc)[-1])
    assert rec.cost_regret == float(np.cumsum(rec.cost_inc)[-1])
    assert rec.payment_regret == float(np.cumsum(rec.pay_inc)[-1])
    assert rec.proxy_reg == float(np.cumsum(rec.proxy_inc)[-1])
    assert rec.cost_pos >= rec.cost_regret


def test_config_json_and_instance_path(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(QUAD_FIXED.to_json_dict()))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "instance": "inst.json",
                "policy": "fixed_interval",
                "horizons": [100],
                "replications": 1,
                "seed": 11,
            }
        )
    )
    cfg = load_config(cfg_path)
    assert cfg.instance == QUAD_FIXED
    assert cfg.seed == 11
    records = run_experiment(cfg)
    assert len(records) == 1


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_json(heading):
    """The first JSON block after ``heading`` in the README, parsed."""
    section = README.read_text().split(heading, 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("policy, params", [("contextual_igw", {}), ("constant_price", {"p": 0.5})])
def test_readme_instance_runs(policy, params):
    spec = InstanceSpec.from_json_dict(readme_json("### Instance file"))
    cfg = ExperimentConfig(
        instance=spec, policy=policy, horizons=(spec.horizon,), policy_params=params
    )
    rec = run_experiment(cfg)[0]
    assert rec.horizon == spec.horizon
    assert np.all(rec.unmet_inc >= 0.0)


def test_readme_config_runs_with_readme_instance(tmp_path):
    (tmp_path / "instance.json").write_text(json.dumps(readme_json("### Instance file")))
    doc = readme_json("### Config file")
    doc["out"] = str(tmp_path / doc["out"])
    (tmp_path / "config.json").write_text(json.dumps(doc))
    cfg = load_config(tmp_path / "config.json")
    # the first horizon of one replication keeps the test short
    records = run_experiment(dataclasses.replace(cfg, horizons=cfg.horizons[:1], replications=1))
    assert len(records) == 1
    assert (tmp_path / "results" / "summary.csv").exists()


@pytest.mark.parametrize(
    "member, message",
    [
        ({"family": "context_quadratic", "phi": [1.5, math.nan, 1.0]}, "finite"),
        ({"family": "quadratic", "mu": 0.5}, "context_quadratic"),
    ],
)
def test_contextual_rejects_bad_class_member(member, message):
    # rejected when the spec is built, whichever policy it is meant for
    spec = contextual_spec()
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(spec, function_class=spec.function_class + (member,))
    doc = spec.to_json_dict()
    doc["function_class"].append(member)
    with pytest.raises(ValueError, match=message):
        InstanceSpec.from_json_dict(doc)


@pytest.mark.parametrize("bound", [math.inf, math.nan, 0.0])
def test_contextual_rejects_bad_class_bound(bound):
    # class_bound = inf used to surface as "eta must be finite", from 2/B^2;
    # a non-finite bound is now refused when the instance is built, and a
    # zero one when the config builds the function class
    if not math.isfinite(bound):
        with pytest.raises(ValueError, match="class_bound must be finite"):
            contextual_spec(bound=bound)
        return
    with pytest.raises(ValueError, match="output bound B"):
        ExperimentConfig(
            instance=contextual_spec(bound=bound), policy="contextual_igw", horizons=(100,)
        )


def test_contextual_class_parsed_once_per_run(monkeypatch):
    calls = []
    real = harness.FunctionClass

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # the config checks the class when it is built; the run builds it once more
    cfg = ExperimentConfig(
        instance=contextual_spec(), policy="contextual_igw", horizons=(50, 100),
        replications=2,
    )
    monkeypatch.setattr(harness, "FunctionClass", counting)
    assert len(run_experiment(cfg)) == 4
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name", ["unmet", "cost_regret", "payment_regret", "cost_pos", "pay_pos", "proxy_reg"]
)
def test_record_totals_are_derived_not_passed(name):
    cols = [np.ones(3) for _ in range(6)]
    with pytest.raises(TypeError):
        RunRecord("constant_price", 3, 0, 0, *cols, **{name: 5.0})
    assert RunRecord("constant_price", 3, 0, 0, *cols).metric("U_T") == 3.0


@pytest.mark.parametrize(
    "horizon, lengths, proxy",
    [
        (5, (3, 4, 5, 2, 5, 5), None),
        (5, (4, 5, 5, 5, 5, 5), None),
        (5, (5, 5, 5, 5, 5, 6), None),
        (5, (5,) * 6, 4),
        (0, (0,) * 6, None),
        (5, ((5, 1),) * 6, None),
    ],
    ids=[
        "mixed-lengths", "short-demand", "one-long", "short-proxy", "empty", "two-dimensional"
    ],
)
def test_record_rejects_bad_shapes(horizon, lengths, proxy):
    cols = [np.ones(n) for n in lengths]
    proxy_inc = None if proxy is None else np.ones(proxy)
    with pytest.raises(ValueError, match="horizon|column"):
        RunRecord("constant_price", horizon, 0, 0, *cols, proxy_inc=proxy_inc)


def test_record_totals_are_left_to_right_sums():
    rng = np.random.Generator(np.random.Philox(key=17))
    T = 10_000
    cols = [rng.normal(size=T) * 10.0 ** rng.integers(-8, 8, T) for _ in range(7)]
    rec = RunRecord("constant_price", T, 0, 0, *cols[:6], proxy_inc=cols[6])
    pos = {"C_T_pos": np.maximum(cols[4], 0.0), "P_T_pos": np.maximum(cols[5], 0.0)}
    want = {"U_T": cols[3], "C_T": cols[4], "P_T": cols[5], "proxy_reg": cols[6], **pos}
    for name, col in want.items():
        assert rec.metric(name).hex() == float(np.cumsum(col)[-1]).hex(), name


def test_record_totals_of_opposite_infinities_are_nan():
    # +inf before -inf: the running sum meets inf + -inf, which must not warn
    col = np.array([1.0, math.inf, -math.inf, 2.0])
    rec = RunRecord("constant_price", 4, 0, 0, *[col] * 6, proxy_inc=col)
    for name in ("U_T", "C_T", "P_T", "proxy_reg"):
        assert math.isnan(rec.metric(name))
    assert rec.metric("C_T_pos") == rec.metric("P_T_pos") == math.inf


def test_record_totals_past_the_float_range_are_inf():
    col = np.array([1.7e308, 1.7e308, -1.0])
    rec = RunRecord("constant_price", 3, 0, 0, *[col] * 6)
    assert rec.metric("C_T") == math.inf


@pytest.mark.parametrize(
    "policy, params",
    [("fixed_interval", {}), ("demand_grid", {}), ("constant_price", {"p": 0.4})],
)
def test_constant_demand_view_runs_as_its_explicit_list(policy, params):
    # a constant generator's demand is one read-only value of stride 0; a run
    # on it must give the bytes of the same demands listed period by period
    T = 5000
    suppliers = (CostSpec.quadratic(0.2), CostSpec.quadratic(0.45, a=0.05))
    view, listed = (
        ExperimentConfig(
            instance=InstanceSpec(suppliers=suppliers, demands=demands, horizon=T),
            policy=policy, horizons=(T,), replications=2, seed=4, policy_params=params,
        )
        for demands in (GeneratorSpec(kind="constant", value=1.3), [1.3] * T)
    )
    for a, b in zip(run_experiment(view), run_experiment(listed), strict=True):
        assert a.demand.strides == (0,) and not a.demand.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.demand[0] = 2.0
        for name in RunRecord._COLUMNS[:-1]:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        for name in harness.SUMMARY_METRICS:
            assert a.metric(name).hex() == b.metric(name).hex(), name

