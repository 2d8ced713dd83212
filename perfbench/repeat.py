#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise the spread of each metric.

Usage (from the repository root):

    python3 perfbench/repeat.py --first-seed 10

For every workload of BENCHMARK.json this makes ten untraced runs on seeds
``--first-seed`` onwards (workloads interleaved, so slow drift of the
machine spreads over all of them), then one traced run. Each end-to-end
metric is reported as median, quartiles (``statistics.quantiles`` with n=4)
and spread = (q3 - q1) / median, next to its bound. The traced run gives the
per-layer metrics and each layer's share of the traced sweep. The summary,
with the environment of the first run, is written as JSON to
``perfbench/out/repeat.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_PREFIXES = ("market.", "features.", "kernels.", "harness.", "hardness.")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = 10
OUT = HERE / "out" / "repeat.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()

    results = {w: [] for w in WORKLOADS}
    env = None
    for i in range(RUNS):
        for w in WORKLOADS:
            result, env = run_once(w, args.first_seed + i, args.seconds, 0)
            results[w].append(result)
            print(f"{w} seed {args.first_seed + i}: "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"run_seconds": args.seconds, "runs": RUNS, "first_seed": args.first_seed,
               "env": env, "workloads": {}}
    for w in WORKLOADS:
        entry = {
            "attempted": sum(r["attempted"] for r in results[w]),
            "failed": sum(r["failed"] for r in results[w]),
            "end_to_end": {},
        }
        for m in SPEC["end_to_end"]:
            stats = spread([r["metrics"][m["name"]]["value"] for r in results[w]])
            entry["end_to_end"][m["name"]] = dict(stats, unit=m["unit"], bound=m["bound"])
            print(f"{w:<14} {m['name']:<14} median {stats['median']:<12.6g} {m['unit']:<4} "
                  f"spread {stats['spread']:.4f} (bound {m['bound']}, steady below {m['bound'] / 3:.4f})")
        print(f"{w:<14} failed_run_frac {entry['failed'] / entry['attempted']:.6g}")
        traced = run_once(w, args.first_seed, args.seconds, 1)[0]
        entry["failed"] += traced["failed"]
        entry["attempted"] += traced["attempted"]
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        entry["per_layer"] = layers
        entry["shares_of_traced_sweep"] = {
            k: v / layers["trace.sweep_s"] for k, v in layers.items()
            if k.startswith(LAYER_PREFIXES) and traced["metrics"][k]["unit"] == "s"
        }
        top = sorted(entry["shares_of_traced_sweep"].items(), key=lambda kv: -kv[1])[:4]
        print(f"{w:<14} trace overhead {layers['trace.overhead_s']:.4g} s; top self-time shares "
              + ", ".join(f"{k} {100 * v:.1f}%" for k, v in top if k != "harness.run_experiment_s"))
        summary["workloads"][w] = entry

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
