"""Benchmark workloads: their configs, one sweep, and the reference check.

A workload is built from public names only (``ExperimentConfig``,
``run_experiment``, ``linear_cost_demo``). The harness and hardness entry
points are looked up as module attributes on every sweep, so the tracer in
``tracer.py`` can wrap them without touching the package.

Seeds
-----
``--seed n`` selects the replication seed ``BASE_SEEDS[workload] + n % 32``.
The base seeds are those of the acceptance tests (criteria 1, 2 and 5), so
``--seed 0`` reproduces them. Reference outputs for all 32 slots of every
workload are committed in ``reference.json`` (see ``make_reference.py``), so
every seed is checked against stored values, not only against itself.

Reference check
---------------
Price and production paths must match the reference exactly, by SHA-256
digest. The price digest also fixes the sampling policy's arms, because an
arm is the grid index of the posted price. Cumulative metrics may differ by
at most ``scalar_tolerance(T) = 2 * TOL_EQ * T``, which admits the planned
replacement of the bisection clearing-price solver by an exact
solve. Derivation (all instances here have zero intercepts, so every
supplier is active and the aggregate supply S(p) = p * s has slope s):

- the solver stops at p_hat with |S(p_hat) - d| <= TOL_EQ, so
  |p_hat - p*| <= TOL_EQ / s;
- payment at clearing is p * S(p): its error is at most
  p_hat * TOL_EQ + d * TOL_EQ / s <= TOL_EQ * (1 + d_max / s), which is
  1.12 * TOL_EQ on the criterion-1 market (d = 1, s = 8.33) and
  1.5 * TOL_EQ on the criterion-2 market (d <= 1.5, s = 3);
- cost at clearing has derivative p * s in p, so its error is at most
  p_hat * s * TOL_EQ / s <= TOL_EQ;
- unmet demand and the price path do not depend on p* at all, and the
  positive-part sums (C_T_pos, P_T_pos) are 1-Lipschitz in the increments.

So each per-period increment moves by at most 1.5 * TOL_EQ and each
T-period sum by at most 1.5 * TOL_EQ * T; the factor 2 leaves room for
summation-order rounding, which is below 1e-9 at T = 1e6. The contextual
instance has a closed-form clearing price, and the linear-cost demo has
none to solve; the same tolerance covers a changed summation order there.
``TOL_EQ`` is restated here because the exact solver will delete it from
the package.

The per-period and summary CSVs of ``demand_export`` are also read back and
must reproduce the run's own records exactly (17 significant digits
round-trip a float64), whatever the arithmetic. The per-period file is read
in blocks of ``CSV_BLOCK_ROWS`` rows, so the check holds far less memory
than the writer does and ``peak_rss_mb`` reflects the writer.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eqprice import hardness, harness
from eqprice.harness import ExperimentConfig, RunRecord
from eqprice.market import CostSpec, GeneratorSpec, InstanceSpec

WORKLOADS = ("fixed_long", "demand_export", "contextual")
BASE_SEEDS = {"fixed_long": 101, "demand_export": 202, "contextual": 20250801}
SEED_SLOTS = 32

#: Stopping tolerance of the bisection clearing-price solver at the commit
#: that defined this benchmark (``eqprice.market.TOL_EQ``).
TOL_EQ = 1e-10
SCALARS = ("U_T", "C_T", "P_T", "C_T_pos", "P_T_pos", "proxy_reg")
CSV_COLUMNS = ("demand", "price", "production", "unmet_inc", "cost_inc", "pay_inc")
CSV_BLOCK_ROWS = 10_000


def scalar_tolerance(horizon: int) -> float:
    """Largest admissible drift of a T-period sum (derivation above)."""
    return 2.0 * TOL_EQ * horizon


@dataclass
class Workload:
    name: str
    seed: int
    configs: list[ExperimentConfig]
    demo_horizon: int | None = None

    @property
    def periods(self) -> int:
        """Simulated periods per sweep."""
        n = sum(sum(c.horizons) * c.replications for c in self.configs)
        return n + (self.demo_horizon or 0)

    @property
    def runs_per_sweep(self) -> int:
        n = sum(len(c.horizons) * c.replications for c in self.configs)
        return n + (1 if self.demo_horizon else 0)


def config_seed(name: str, seed: int) -> int:
    return BASE_SEEDS[name] + seed % SEED_SLOTS


def criterion_1_instance() -> InstanceSpec:
    return InstanceSpec(
        suppliers=(CostSpec.quadratic(0.2), CostSpec.quadratic(0.45), CostSpec.quadratic(0.9)),
        demands=GeneratorSpec(kind="constant", value=1.0),
        horizon=1000,
    )


def criterion_2_instance() -> InstanceSpec:
    return InstanceSpec(
        suppliers=(CostSpec.quadratic(0.5), CostSpec.quadratic(1.0)),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        horizon=1000,
    )


def criterion_5_instance(seed: int = 313, n_members: int = 8) -> InstanceSpec:
    """The acceptance suite's contextual instance: two identical contextual
    suppliers, a well-specified class of 8 members, contexts in [0.5, 1.5]^3."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    phi_each = (0.75, 0.75, 0.5)
    truth = tuple(2 * v for v in phi_each)
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
        suppliers=(CostSpec.context_quadratic(phi_each), CostSpec.context_quadratic(phi_each)),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        contexts=GeneratorSpec(kind="uniform_cube", lo=0.5, hi=1.5, dim=3),
        horizon=1000,
        function_class=tuple(members),
        class_bound=9.0,
    )


def build(name: str, seed: int, horizon_div: int = 1, out_dir: str | Path | None = None) -> Workload:
    """Configs of one workload. ``horizon_div`` shrinks every horizon (the
    self-test uses it); ``out_dir`` receives the CSVs of ``demand_export``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    s = config_seed(name, seed)

    def horizon(T: int) -> int:
        return max(2, T // horizon_div)

    if name == "fixed_long":
        cfg = ExperimentConfig(
            instance=criterion_1_instance(), policy="fixed_interval",
            horizons=(horizon(10**6),), seed=s,
        )
        return Workload(name, s, [cfg], demo_horizon=horizon(10**5))
    if name == "demand_export":
        if out_dir is None:
            raise ValueError("demand_export writes CSVs and needs an output directory")
        inst = criterion_2_instance()
        T = horizon(10**5)
        configs = [
            ExperimentConfig(
                instance=inst, policy="demand_grid", horizons=(T,), seed=s,
                out=str(Path(out_dir) / "demand_grid"),
            ),
            ExperimentConfig(
                instance=inst, policy="constant_price", horizons=(T,), seed=s,
                policy_params={"p": 0.5}, out=str(Path(out_dir) / "constant_price"),
            ),
        ]
        return Workload(name, s, configs)
    inst = criterion_5_instance()
    T = horizon(10**4)
    cfg = ExperimentConfig(instance=inst, policy="contextual_igw", horizons=(T,), seed=s)
    return Workload(name, s, [cfg])


def sweep(wl: Workload) -> list:
    """One pass over the workload: every config, then the linear-cost demo."""
    runs: list = []
    for cfg in wl.configs:
        runs.extend(harness.run_experiment(cfg))
    if wl.demo_horizon:
        runs.append(hardness.linear_cost_demo(horizon=wl.demo_horizon, seed=wl.seed))
    return runs


# ---------------------------------------------------------------------------
# Outputs and their check
# ---------------------------------------------------------------------------


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()[:32]


def summarize(wl: Workload, run) -> dict:
    """What the reference stores about one run."""
    if isinstance(run, hardness.LinearDemoReport):
        return {
            "kind": "linear_cost_demo",
            "T": run.horizon,
            "U_T": run.unmet,
            "C_T": run.cost_regret,
            "P_T": run.payment_regret,
            "bound_violations": run.bound_violations,
        }
    out = {
        "kind": run.policy,
        "T": run.horizon,
        "seed": run.seed,
        "price": digest(run.price),
        "production": digest(run.production),
    }
    for name in SCALARS:
        out[name] = run.metric(name)
    return out


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def compare(got: dict, ref: dict) -> list[str]:
    """Mismatches between one run's summary and its reference entry."""
    errors = []
    tol = scalar_tolerance(ref["T"])
    for key, want in ref.items():
        have = got.get(key)
        if key in SCALARS:
            if have is None or not _close(have, want, tol):
                errors.append(f"{ref['kind']} {key}: {have!r} vs reference {want!r} (tol {tol:.3g})")
        elif have != want:
            errors.append(f"{ref['kind']} {key}: {have!r} vs reference {want!r}")
    return errors


def check_csv(rec: RunRecord, out_dir: Path) -> list[str]:
    """Read back the CSVs a run wrote; they must reproduce its record."""
    path = out_dir / f"run_T{rec.horizon}_rep{rec.replication}.csv"
    expected = {"t": np.arange(1, rec.horizon + 1, dtype=np.float64)}
    expected.update((col, getattr(rec, col)) for col in CSV_COLUMNS)
    differs: set[str] = set()
    seen = 0
    with path.open() as f:
        header = f.readline().rstrip("\n").split(",")
        while block := list(itertools.islice(f, CSV_BLOCK_ROWS)):
            table = np.array(",".join(block).replace("\n", "").split(","), dtype=np.float64)
            table = table.reshape(len(block), len(header))
            end = seen + len(block)
            if end <= rec.horizon:
                for col, want in expected.items():
                    if not np.array_equal(table[:, header.index(col)], want[seen:end]):
                        differs.add(col)
            seen = end
    if seen != rec.horizon:
        return [f"{path.name}: {seen} rows for T={rec.horizon}"]
    errors = [f"{path.name}: column {col} differs from the record" for col in expected if col in differs]
    rows = [
        r for r in harness.read_summary_csv(out_dir / "summary.csv")
        if r["T"] == rec.horizon and r["replication"] == rec.replication
    ]
    if len(rows) != 1:
        return errors + [f"{rec.policy} summary.csv: {len(rows)} rows for one run"]
    for key in ("U_T", "C_T", "P_T", "proxy_reg"):
        if not _close(rows[0][key], rec.metric(key), 0.0):
            errors.append(f"{rec.policy} summary.csv {key}: {rows[0][key]!r} vs record {rec.metric(key)!r}")
    return errors


def reference_key(name: str, horizon_div: int) -> str:
    return name if horizon_div == 1 else f"{name}/div{horizon_div}"


def check_sweep(wl: Workload, runs: list, reference: list[dict]) -> list[list[str]]:
    """Mismatches per run of one sweep, in reference order (empty = passed)."""
    if len(runs) != len(reference):
        return [[f"sweep returned {len(runs)} runs, reference has {len(reference)}"]] * wl.runs_per_sweep
    per_run = [compare(summarize(wl, run), ref) for run, ref in zip(runs, reference)]
    out_dirs = {c.policy: Path(c.out) for c in wl.configs if c.out is not None}
    for errors, run in zip(per_run, runs):
        if isinstance(run, RunRecord) and run.policy in out_dirs:
            errors += check_csv(run, out_dirs[run.policy])
    return per_run
