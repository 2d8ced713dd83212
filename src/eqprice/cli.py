"""Command-line interface.

Subcommands:

- ``run``: execute the first (horizon, replication) of a config and write
  its per-period CSV: to ``--out``, or into it as ``run_T{T}_rep{r}.csv``
  when it names a directory or ends in a path separator; without ``--out``,
  into the config's ``out`` directory, else to ``run.csv``.
- ``sweep``: execute all horizons x replications and write the summary CSV
  (plus per-run CSVs when an output directory is given).
- ``hardness``: emit the i.i.d.-cost lower-bound report as CSV rows, or the
  linear-cost demonstration of ``fixed_interval`` as a JSON line.
- ``fit``: fit a scaling model to a metric column of a summary CSV.

Flags override config fields (``--seed``, ``--policy``, ``--out``) of
``run`` and ``sweep``. On failure a single JSON error line goes to stderr
and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .harness import (
    SUMMARY_METRICS,
    ExperimentConfig,
    _means_by_horizon,
    fit_scaling,
    load_config,
    read_summary_csv,
    run_csv_name,
    run_experiment,
    write_run_csv,
)
from .hardness import linear_cost_demo, verify_lower_bound


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {k: v for k in ("seed", "policy", "out") if (v := getattr(args, k)) is not None}
    return dataclasses.replace(config, **updates) if updates else config


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    single = dataclasses.replace(
        config, horizons=(config.horizons[0],), replications=1, out=None
    )
    records = run_experiment(single)
    rec = records[0]
    out = str(config.out or "run.csv")
    # the config's own out is the directory a sweep writes into
    into_dir = args.out is None and config.out is not None
    if into_dir or out.endswith(tuple(filter(None, (os.sep, os.altsep)))) or Path(out).is_dir():
        Path(out).mkdir(parents=True, exist_ok=True)
        out = Path(out) / run_csv_name(rec)
    write_run_csv(rec, out)
    print(
        f"policy={rec.policy} T={rec.horizon} seed={rec.seed} "
        f"U_T={rec.unmet:.6g} C_T={rec.cost_regret:.6g} P_T={rec.payment_regret:.6g} "
        f"-> {out}"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.out is None:
        config = dataclasses.replace(config, out="results")
    records = run_experiment(config)
    print(f"wrote {len(records)} runs to {config.out}/summary.csv")
    return 0


def _cmd_hardness(args) -> int:
    if args.kind == "iid":
        report = verify_lower_bound(n_periods=args.periods, seed=args.seed or 0)
        lines = report.to_csv_rows()
        if args.out:
            Path(args.out).write_text("\n".join(lines) + "\n")
            print(f"min {report.minimum:.9f} at p={report.argmin} -> {args.out}")
        else:
            print("\n".join(lines))
        return 0
    report = linear_cost_demo(horizon=args.periods, seed=args.seed or 0)
    doc = dataclasses.asdict(report)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"linear demo slope={report.slope:.4f} r2={report.r_squared:.4f} -> {args.out}")
    else:
        print(json.dumps(doc))
    return 0


def _cmd_fit(args) -> int:
    rows = read_summary_csv(args.summary)
    horizons, values = _means_by_horizon([(r["T"], r[args.metric]) for r in rows])
    fit = fit_scaling(horizons, values, args.model)
    doc = dataclasses.asdict(fit)
    doc["metric"] = args.metric
    doc["horizons"] = horizons
    doc["means"] = values
    line = json.dumps(doc)
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqprice",
        description="Online equilibrium-pricing simulations and scaling benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help in (
        ("run", _cmd_run, "single run, per-period CSV"),
        ("sweep", _cmd_sweep, "all horizons x replications, summary CSV"),
    ):
        p_config = sub.add_parser(name, help=help)
        p_config.add_argument("--config", required=True)
        p_config.add_argument("--seed", type=int)
        p_config.add_argument("--policy")
        p_config.add_argument("--out")
        p_config.set_defaults(fn=fn)

    p_hard = sub.add_parser("hardness", help="impossibility reports")
    p_hard.add_argument("--kind", choices=("iid", "linear"), default="iid")
    p_hard.add_argument("--periods", type=int, default=100_000)
    p_hard.add_argument(
        "--seed", type=int,
        help="seed of the iid report's Monte Carlo draws (default 0); the linear demo is "
        "deterministic, so there the seed is checked and changes nothing",
    )
    p_hard.add_argument("--out")
    p_hard.set_defaults(fn=_cmd_hardness)

    p_fit = sub.add_parser("fit", help="scaling-exponent fit over a summary CSV")
    p_fit.add_argument("--summary", required=True)
    p_fit.add_argument("--metric", default="U_T", choices=SUMMARY_METRICS)
    p_fit.add_argument("--model", default="power_law", choices=("power_law", "loglog"))
    p_fit.add_argument("--out")
    p_fit.set_defaults(fn=_cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # fail with one machine-readable line
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
