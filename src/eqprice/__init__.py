"""Online learning of market-clearing prices.

A market operator repeatedly posts a price to price-taking suppliers with
private convex costs and tries to clear an (possibly time-varying) demand.
This package provides the market model and clearing-price oracle, three
online pricing policies (feasible-interval tracking for fixed demand, a
demand-grid variant for varying demand, and inverse-gap-weighted sampling
driven by an online regression oracle for context-dependent costs), regret
accounting, hardness demonstrations, and a CLI harness with seeded runs and
scaling-exponent fits.
"""

from .harness import (
    ExperimentConfig,
    RunRecord,
    ScalingFit,
    fit_scaling,
    run_experiment,
)
from .hardness import (
    expected_total_regret,
    linear_cost_demo,
    verify_lower_bound,
)
from .market import (
    Allocation,
    CostSpec,
    FunctionClass,
    GeneratorSpec,
    InstanceSpec,
    MarketInstance,
    aggregate_production,
    best_response,
    equilibrium_price,
)
from .oracle import (
    OracleState,
    make_oracle_state,
    oracle_excess_loss,
    oracle_predict,
    oracle_update,
)
from .policy_contextual import (
    ContextualPolicyState,
    IgwDistribution,
    contextual_observe,
    contextual_step,
    igw_distribution,
    make_contextual_state,
    sample_price,
)
from .policy_demand import (
    DemandGrid,
    DemandPolicyState,
    demand_step,
    interval_index,
    make_demand_state,
)
from .policy_fixed import (
    FixedPolicyState,
    fixed_next_price,
    fixed_observe,
    make_fixed_state,
)

__version__ = "0.1.0"
