"""Each refusal of the constructors and readers below, by its message: a
value out of range is rejected where it is given, not used."""

import math

import numpy as np
import pytest

from eqprice import harness, kernels
from eqprice.harness import fit_scaling, read_summary_csv
from eqprice.market import CostSpec, FunctionClass, InstanceSpec, MarketInstance

QUAD = CostSpec.quadratic(1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CostSpec.quadratic(0.0), "requires curvature mu > 0"),
        (lambda: CostSpec.quadratic(-1.0), "requires curvature mu > 0"),
        (lambda: CostSpec.quadratic(1.0, a=-0.1), "intercept a must be >= 0"),
        (lambda: CostSpec.linear(c=0.0, cap=1.0), "requires unit cost c > 0"),
        (lambda: CostSpec.linear(c=0.4, cap=0.0), "requires a production cap > 0"),
        (lambda: CostSpec.context_quadratic(()), "requires a parameter vector phi"),
    ],
    ids=["mu=0", "mu<0", "a<0", "c=0", "cap=0", "empty-phi"],
)
def test_cost_spec_refuses_out_of_range_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "spec, message",
    [
        (QUAD, "coefficient is defined for the context_quadratic family"),
        (CostSpec.context_quadratic((-1.0,)), r"<phi, sigma\(theta\)> > 0, got -1.0"),
        (CostSpec.context_quadratic((0.0,)), r"<phi, sigma\(theta\)> > 0, got 0.0"),
    ],
    ids=["quadratic", "negative", "zero"],
)
def test_coefficient_refuses_other_families_and_non_positive_values(spec, message):
    with pytest.raises(ValueError, match=message):
        spec.coefficient([1.0])


@pytest.mark.parametrize("members", [(), []], ids=["tuple", "list"])
def test_function_class_refuses_no_members(members):
    with pytest.raises(ValueError, match="function class must be non-empty"):
        FunctionClass(members=members, bound=1.0)


def _market(horizon=3, demands=(1.0, 1.0, 1.0), contexts=None, bounds=(1.0, 1.0)):
    return MarketInstance(
        suppliers=(QUAD,), demands=np.array(demands), contexts=contexts, horizon=horizon,
        demand_bounds=bounds,
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _market(horizon=0, demands=()), "horizon must be >= 1"),
        (lambda: _market(demands=(1.0, math.inf, 1.0)), "demands must be finite"),
        (lambda: _market(demands=(1.0, math.nan, 1.0)), "demands must be finite"),
        (lambda: _market(contexts=np.ones(3)), r"context sequence must be \(horizon, dim\)"),
        (lambda: _market(contexts=np.ones((2, 1))), r"context sequence must be \(horizon, dim\)"),
        (
            lambda: InstanceSpec(
                suppliers=(QUAD,), demands=(0.5, 2.0), horizon=2, demand_bounds=(1.0, 1.5)
            ).materialize(np.random.default_rng(0)),
            "demands fall outside the declared bounds",
        ),
    ],
    ids=["horizon=0", "inf-demand", "nan-demand", "flat-contexts", "short-contexts",
         "demand-outside-bounds"],
)
def test_market_instance_refuses_bad_paths(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "values", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]], ids=["fewer-values", "more-values"]
)
def test_fit_scaling_refuses_unequal_lengths(values):
    with pytest.raises(ValueError, match="horizons and values must have equal length"):
        fit_scaling([10, 100, 1000], values, "power_law")


@pytest.mark.parametrize(
    "text",
    ["", "policy,T\n", harness.SUMMARY_HEADER.replace("U_T", "U") + "\n"],
    ids=["empty", "short-header", "renamed-column"],
)
def test_read_summary_csv_refuses_a_wrong_header(tmp_path, text):
    path = tmp_path / "summary.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="unexpected summary header"):
        read_summary_csv(path)


@pytest.mark.parametrize(
    "suppliers",
    [(CostSpec.context_quadratic((1.0,)),), (QUAD, CostSpec.context_quadratic((1.0,)))],
    ids=["contextual", "quadratic-then-contextual"],
)
def test_encode_suppliers_refuses_a_contextual_supplier(suppliers):
    with pytest.raises(ValueError, match="encode quadratic and linear suppliers"):
        kernels.encode_suppliers(suppliers)
