"""Acceptance gate: every scaling-rate and exact-constant claim the package
makes, executed at its stated tolerance. One [PASS]/[FAIL] line prints per
criterion (run with ``pytest -s`` to see them inline).

Cost and payment regret are signed and drift negative for under-pricing
policies, so rate fits run on the overshoot-only accumulations (sums of
positive increments), the quantities whose growth the interval-tracking
analyses control; unmet demand is nonnegative by construction.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eqprice.harness import (
    ExperimentConfig,
    fit_scaling,
    mean_metric_by_horizon,
    run_experiment,
)
from eqprice.hardness import expected_total_regret, verify_lower_bound
from eqprice.market import (
    CostSpec,
    FunctionClass,
    GeneratorSpec,
    InstanceSpec,
    aggregate_production,
    best_response,
    equilibrium_price,
)
from eqprice.oracle import (
    make_oracle_state,
    oracle_excess_loss,
    oracle_update,
)
from eqprice.policy_contextual import igw_distribution

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's instances)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
#: Criterion 7's tolerance on the clearing-price KKT conditions.
KKT_TOL = 1e-12


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -------------------------------------------------------------------------
# 1. Interval tracking under fixed demand: log log T growth
# -------------------------------------------------------------------------


def test_criterion_1_fixed_demand_rate():
    instance = workloads.criterion_1_instance()
    horizons = (10**3, 10**4, 10**5, 10**6)
    p_star = equilibrium_price(list(instance.suppliers), 1.0)

    start = time.perf_counter()
    cfg = ExperimentConfig(
        instance=instance,
        policy="fixed_interval",
        horizons=horizons,
        replications=5,
        seed=101,
    )
    records = run_experiment(cfg)
    elapsed_total = time.perf_counter() - start

    # timed single largest run
    start = time.perf_counter()
    run_experiment(
        ExperimentConfig(
            instance=instance, policy="fixed_interval", horizons=(10**6,), seed=101
        )
    )
    largest_run_seconds = time.perf_counter() - start

    ok = largest_run_seconds <= 60.0
    detail = [f"largest run {largest_run_seconds:.2f}s (limit 60s)"]

    for rec in records:
        tol = 1.0 / rec.horizon + 1e-8
        if abs(rec.price[-1] - p_star) > tol:
            ok = False
            detail.append(
                f"T={rec.horizon}: |p_T - p*|={abs(rec.price[-1] - p_star):.3g} > {tol:.3g}"
            )
    detail.append("price convergence |p_T - p*| <= 1/T + 1e-8 on all 20 runs")

    for metric in ("U_T", "C_T_pos", "P_T_pos"):
        Ts, means = mean_metric_by_horizon(records, metric)
        power = fit_scaling(Ts, means, "power_law")
        loglog = fit_scaling(Ts, means, "loglog")
        ratio = means[-1] / means[0]
        detail.append(
            f"{metric}: powerlaw slope {power.slope:.4f}, loglog slope "
            f"{loglog.slope:.3f} (r2 {loglog.r_squared:.2f}), T6/T3 ratio {ratio:.2f}"
        )
        if not power.slope < 0.1:
            ok = False
        if not ratio <= 3.0:
            ok = False

    _report("criterion 1 (fixed-demand loglog rate)", ok, "; ".join(detail))


# -------------------------------------------------------------------------
# 2. Demand-grid tracking: sqrt(T) log log T growth
# -------------------------------------------------------------------------


def test_criterion_2_varying_demand_rate():
    instance = workloads.criterion_2_instance()
    horizons = (10**3, 10**4, 10**5)
    cfg = ExperimentConfig(
        instance=instance,
        policy="demand_grid",
        horizons=horizons,
        replications=5,
        seed=202,
    )
    records = run_experiment(cfg)

    ok = True
    detail = []
    for metric in ("U_T", "C_T_pos", "P_T_pos"):
        Ts, means = mean_metric_by_horizon(records, metric)
        fit = fit_scaling(Ts, means, "power_law")
        ratios = [
            m / (math.sqrt(t) * math.log(math.log(t))) for t, m in zip(Ts, means)
        ]
        steps_ok = all(r2 <= 1.2 * r1 for r1, r2 in zip(ratios, ratios[1:]))
        detail.append(
            f"{metric}: slope {fit.slope:.3f}, normalized ratios "
            + "/".join(f"{r:.3f}" for r in ratios)
        )
        if not 0.35 <= fit.slope <= 0.65:
            ok = False
        if not steps_ok:
            ok = False
    _report("criterion 2 (varying-demand sqrt rate)", ok, "; ".join(detail))


# -------------------------------------------------------------------------
# 3. i.i.d.-cost impossibility constants
# -------------------------------------------------------------------------


def test_criterion_3_iid_lower_bound():
    report = verify_lower_bound(n_periods=10**5, seed=11)
    ok = report.minimum == 7.0 / 64.0 and report.argmin == 0.125
    detail = [
        f"minimum {report.minimum:.15f} at p={report.argmin} "
        f"(target 7/64 = {7 / 64} at 0.125)"
    ]
    for row in report.rows:
        rel = abs(row.empirical - row.analytic) / max(abs(row.analytic), 1e-12)
        detail.append(f"p={row.price}: mc rel err {rel:.4f}")
        if row.analytic == 0.0:
            ok = ok and abs(row.empirical) <= 1e-12
        elif rel > 0.02:
            ok = False
    _report("criterion 3 (7/64 lower bound)", ok, "; ".join(detail))


# -------------------------------------------------------------------------
# 4. Linear costs force linear total regret
# -------------------------------------------------------------------------


def test_criterion_4_linear_cost_linearity():
    instance = InstanceSpec(
        suppliers=(CostSpec.linear(c=0.4, cap=2.0),),
        demands=GeneratorSpec(kind="constant", value=1.0),
        horizon=1000,
    )
    horizons = (10**3, 10**4, 10**5)
    cfg = ExperimentConfig(
        instance=instance, policy="fixed_interval", horizons=horizons, seed=303
    )
    records = run_experiment(cfg)
    totals = [r.unmet + r.cost_regret + r.payment_regret for r in records]
    fit = fit_scaling(horizons, totals, "power_law")
    ok = fit.slope >= 0.95 and fit.r_squared >= 0.99
    _report(
        "criterion 4 (linear-cost linear regret)",
        ok,
        f"U+C+P slope {fit.slope:.4f} (>=0.95), r2 {fit.r_squared:.5f} (>=0.99), "
        f"totals {['%.1f' % v for v in totals]}",
    )


# -------------------------------------------------------------------------
# 5. Contextual sampling: T^(2/3) proxy-regret rate and metric domination
# -------------------------------------------------------------------------


def test_criterion_5_instance_is_hashable_and_round_trips():
    # the class members are CostSpecs once the spec is built, not JSON dicts
    spec = workloads.criterion_5_instance()
    assert all(isinstance(m, CostSpec) for m in spec.function_class)
    assert hash(spec) == hash(workloads.criterion_5_instance())
    assert InstanceSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec
    assert spec.to_json_dict()["function_class"][0] == {
        "family": "context_quadratic", "phi": [1.5, 1.5, 1.0], "feature_map_id": "identity"
    }


def test_criterion_5_contextual_rate():
    # member coefficients stay within 1.5 * 1.4 * (1.5 + 1.5 + 1.0) = 8.4 < 9,
    # the instance's class_bound
    instance = workloads.criterion_5_instance()
    horizons = (10**3, 10**4, 10**5)
    ln_f = math.log(8)
    means = {}
    ok = True
    detail = []
    all_records = []
    for T in horizons:
        cfg = ExperimentConfig(
            instance=instance,
            policy="contextual_igw",
            horizons=(T,),
            replications=5,
            seed=20250801,
        )
        recs = run_experiment(cfg)
        all_records.extend(recs)
        means[T] = float(np.mean([r.proxy_reg for r in recs]))
        expected_k = math.ceil((T / ln_f) ** (1.0 / 3.0))
        detail.append(f"T={T}: K={expected_k}, mean Reg {means[T]:.1f}")

    rates = [means[T] / T for T in horizons]
    if not (rates[0] > rates[1] > rates[2]):
        ok = False
    detail.append("Reg/T " + " > ".join(f"{r:.4f}" for r in rates))

    c_cal = means[horizons[0]] / (horizons[0] ** (2.0 / 3.0) * ln_f ** (1.0 / 3.0))
    for T in horizons[1:]:
        limit = 2.0 * c_cal * T ** (2.0 / 3.0) * ln_f ** (1.0 / 3.0)
        if means[T] > limit:
            ok = False
        detail.append(f"T={T}: Reg {means[T]:.1f} <= 2C bound {limit:.1f}")

    # proxy domination on every run: U <= Reg, P <= L1 L2 Reg = 2 Reg,
    # C <= L1 L3 Reg = Reg (zero-intercept contextual quadratics)
    violations = sum(
        1
        for r in all_records
        if not (
            r.unmet <= r.proxy_reg
            and r.payment_regret <= 2.0 * r.proxy_reg
            and r.cost_regret <= r.proxy_reg
        )
    )
    if violations:
        ok = False
    detail.append(f"domination violations {violations}/15 runs")
    _report("criterion 5 (contextual T^(2/3) rate)", ok, "; ".join(detail))


# -------------------------------------------------------------------------
# 6. Finite-class forecaster: excess squared loss <= (1/eta) ln|F|
# -------------------------------------------------------------------------


def test_criterion_6_oracle_guarantee():
    n_members, T, n_seeds = 8, 10**4, 10
    violations = 0
    worst_ratio = 0.0
    for mode in ("truth", "switch"):
        for s in range(n_seeds):
            rng = np.random.Generator(np.random.Philox(key=1000 + s))
            rows = rng.uniform(0.2, 0.8, (n_members, 3))
            rows = rows / rows.sum(axis=1, keepdims=True) * rng.uniform(
                1.5, 3.0, (n_members, 1)
            )
            cls = FunctionClass(
                members=tuple(CostSpec.context_quadratic(tuple(r)) for r in rows),
                bound=6.0,
            )
            # members 0 and 1 generate the stream, each as a one-member class
            # so a period evaluates one member, not all eight
            sources = [FunctionClass(members=(m,), bound=6.0) for m in cls.members[:2]]
            state = make_oracle_state(cls)
            bound = (1.0 / state.eta) * math.log(n_members)
            for t in range(T):
                theta = rng.uniform(0.5, 1.5, 3)
                p = float(rng.uniform(0.0, 1.0))
                idx = 0 if (mode == "truth" or t < T // 2) else 1
                x = p * sources[idx].member_coefficients(theta)[0]
                state = oracle_update(state, cls, p, theta, x)
                excess = oracle_excess_loss(state)
                worst_ratio = max(worst_ratio, excess / bound)
                if excess > bound:
                    violations += 1
                    break
    ok = violations == 0
    _report(
        "criterion 6 (oracle excess-loss bound)",
        ok,
        f"{violations} violations over {2 * n_seeds} streams x {T} prefixes; "
        f"worst excess/bound ratio {worst_ratio:.3f}",
    )


# -------------------------------------------------------------------------
# 7. Lipschitz lemmas and KKT consistency
# -------------------------------------------------------------------------


def test_criterion_7_lemma_suite():
    rng = np.random.Generator(np.random.Philox(key=707))
    ok = True
    detail = []

    # production Lipschitz: |x(p1) - x(p2)| <= (1/mu) |p1 - p2|
    n_pairs = 10_000
    theta = np.array([1.0, 0.7])
    cases = [
        (CostSpec.quadratic(0.2), 0.2),
        (CostSpec.quadratic(0.7, a=0.25), 0.7),
        (CostSpec.context_quadratic(phi=(0.9, 0.5)), 1.0 / (0.9 + 0.5 * 0.7)),
    ]
    lip_viol = 0
    p1 = rng.uniform(0.0, 1.0, n_pairs)
    p2 = rng.uniform(0.0, 1.0, n_pairs)
    for spec, mu in cases:
        for i in range(n_pairs):
            lhs = abs(
                best_response(spec, p1[i], theta) - best_response(spec, p2[i], theta)
            )
            if lhs > (1.0 / mu) * abs(p1[i] - p2[i]) + 1e-12:
                lip_viol += 1
    detail.append(f"production-Lipschitz violations {lip_viol}/{3 * n_pairs}")
    ok = ok and lip_viol == 0

    # price Lipschitz in demand: zero-intercept quadratics give exactly
    # |d1 - d2| / sum(1/mu), within the generic 2/mu_dual constant
    mus = np.array([0.4, 0.8, 1.6])
    inv_sum = float(np.sum(1.0 / mus))
    d1 = rng.uniform(0.1, 2.0, n_pairs)
    d2 = rng.uniform(0.1, 2.0, n_pairs)
    sup = [CostSpec.quadratic(mu) for mu in mus]
    ps1 = equilibrium_price(sup, d1)
    ps2 = equilibrium_price(sup, d2)
    gap = np.abs(ps1 - ps2)
    exact = np.abs(d1 - d2) / inv_sum
    price_viol = int(np.count_nonzero(np.abs(gap - exact) > 1e-8))
    price_viol += int(np.count_nonzero(gap > 2.0 / inv_sum * np.abs(d1 - d2) + 1e-8))
    detail.append(f"price-Lipschitz violations {price_viol}/{n_pairs}")
    ok = ok and price_viol == 0

    # KKT consistency on random quadratic instances
    kkt_viol = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        sup = [
            CostSpec.quadratic(rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.6))
            for _ in range(n)
        ]
        cap = aggregate_production(sup, 1.0).total
        if cap <= 0.05:
            continue
        d = rng.uniform(0.05, cap)
        p = equilibrium_price(sup, d)
        alloc = aggregate_production(sup, p)
        if abs(alloc.total - d) > KKT_TOL:
            kkt_viol += 1
        for s, x in zip(sup, alloc.per_supplier):
            marginal = s.mu * x + s.a  # d cost(x) / dx of a quadratic supplier
            if x > 0 and abs(marginal - p) > KKT_TOL:
                kkt_viol += 1
            if x == 0 and marginal < p - KKT_TOL:
                kkt_viol += 1
    detail.append(f"KKT violations {kkt_viol}/1000 instances")
    ok = ok and kkt_viol == 0

    _report("criterion 7 (Lipschitz and KKT suite)", ok, "; ".join(detail))


# -------------------------------------------------------------------------
# 8. Inverse-gap-weighting distribution properties
# -------------------------------------------------------------------------


def test_criterion_8_igw_distribution():
    rng = np.random.Generator(np.random.Philox(key=808))
    ok = True
    bad = 0
    n_vectors = 10_000
    for _ in range(n_vectors):
        K = int(rng.integers(2, 65))
        gamma = float(np.exp(rng.uniform(math.log(0.1), math.log(1e6))))
        gaps = rng.uniform(0.0, 3.0, K)
        gaps[int(rng.integers(0, K))] = 0.0
        gaps -= gaps.min()
        dist = igw_distribution(gaps, gamma)
        if abs(float(dist.probs.sum()) - 1.0) > 1e-9:
            bad += 1
            continue
        if not np.all(dist.probs > 0.0):
            bad += 1
            continue
        greedy = int(np.argmin(gaps))
        if dist.probs[greedy] < dist.probs.max() - 1e-15:
            bad += 1
    ok = ok and bad == 0

    closed = igw_distribution(np.array([0.0, 0.5]), 1.0)
    lam_err = abs(closed.lam - GOLDEN)
    prob_err = max(
        abs(closed.probs[0] - 1.0 / GOLDEN), abs(closed.probs[1] - (1.0 - 1.0 / GOLDEN))
    )
    if lam_err > 1e-9 or prob_err > 1e-9:
        ok = False
    _report(
        "criterion 8 (IGW distribution properties)",
        ok,
        f"{bad}/{n_vectors} property violations; K=2 closed form lam err "
        f"{lam_err:.2e}, prob err {prob_err:.2e}",
    )
