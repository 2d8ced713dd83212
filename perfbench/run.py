#!/usr/bin/env python3
"""eqprice sweep benchmark: one workload per process, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload fixed_long --seed 0 --seconds 35 --trace 0

Workloads (see NOTES.md for why each was chosen and what it stresses):
``fixed_long``, ``demand_export``, ``contextual``.

With ``--trace 0`` the benchmark times set-up in fresh interpreters, then
repeats the workload's sweep for ``--seconds`` and reports the end-to-end
metrics: ``sweep_s`` (median sweep), ``periods_per_s``, ``setup_s`` and
``peak_rss_mb``. With ``--trace 1`` it alternates untraced and traced
sweeps and reports the per-layer metrics of ``tracer.py`` plus the tracing
overhead. Every sweep's outputs are checked against ``reference.json``; a
run that raises or mismatches counts as failed (``failed_run_frac`` =
failed / attempted).

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The full
result, with the environment record, is also written to ``perfbench/out/``.
The program is imported from ``src/`` of the checkout the script sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# One thread per process: the numerical libraries must not start pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
MIN_SWEEPS = 3
MIN_TRACE_SWEEPS = 4
NUMBA_NOTE = (
    "numba is not installed, so only the plain-Python kernel path runs; "
    "the README's 300-500x numba speed-ups cannot be reproduced without it"
)

SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
t0 = time.perf_counter()
import eqprice
import workloads
workloads.build({name!r}, {seed!r}, {div!r}, {out!r})
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon-div", type=int, default=1,
                        help="divide every horizon by this (self-test only)")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    return parser.parse_args(argv)


def setup_samples(args, out_dir: Path) -> list[float]:
    """Seconds to import eqprice and build the configs, each in a fresh
    interpreter. One discarded call first writes the bytecode caches."""
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=args.workload,
                              seed=args.seed, div=args.horizon_div, out=str(out_dir))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        if i:
            samples.append(float(done.stdout.split()[-1]))
    return samples


def environment(load_at_start) -> dict:
    import numpy
    import eqprice
    from eqprice.backend import NUMBA_AVAILABLE, active_backend

    return {
        "backend": active_backend(),
        "numba_available": NUMBA_AVAILABLE,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "machine": platform.machine(),
        "eqprice_file": str(Path(eqprice.__file__).relative_to(ROOT)),
        "note": "" if NUMBA_AVAILABLE else NUMBA_NOTE,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not (SRC / "eqprice" / "__init__.py").is_file():
        print(f"error: {SRC / 'eqprice'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ref_key = workloads.reference_key(args.workload, args.horizon_div)
    reference = json.loads(args.reference.read_text()).get(ref_key, {})
    seed_key = str(workloads.config_seed(args.workload, args.seed))
    if seed_key not in reference:
        print(f"error: no reference for {ref_key} seed {seed_key} in {args.reference}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    csv_dir = OUT / f"csv-{os.getpid()}"
    try:
        return measure(args, workloads, reference[seed_key], csv_dir, load_at_start)
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)


def measure(args, workloads, reference, csv_dir, load_at_start) -> int:
    setup = [] if args.trace else setup_samples(args, csv_dir)
    wl = workloads.build(args.workload, args.seed, args.horizon_div, csv_dir)
    env = environment(load_at_start)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    durations = {False: [], True: []}
    attempted = failed = 0
    failures: list[str] = []
    start = time.perf_counter()
    sweep = 0
    min_sweeps = MIN_TRACE_SWEEPS if args.trace else MIN_SWEEPS
    while True:
        traced = tracer is not None and sweep % 2 == 1
        if traced:
            tracer.install(sweep)
        t0 = time.perf_counter()
        try:
            runs = workloads.sweep(wl)
        except Exception:
            runs = None
            failures.append(traceback.format_exc())
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        durations[traced].append(dt)
        attempted += wl.runs_per_sweep
        if runs is None:
            failed += wl.runs_per_sweep
        else:
            try:
                errors = workloads.check_sweep(wl, runs, reference)
            except Exception:  # e.g. a CSV the sweep should have written is missing
                errors = [[traceback.format_exc()]] * wl.runs_per_sweep
            failed += sum(1 for e in errors if e)
            failures += [msg for e in errors for msg in e]
        del runs
        sweep += 1
        elapsed = time.perf_counter() - start
        # A very slow sweep may cut the minimum, but a traced run keeps one
        # untraced and one traced sweep.
        enough = sweep >= min_sweeps or (elapsed > 3 * args.seconds and sweep >= 1 + bool(tracer))
        if enough and elapsed + dt > args.seconds:
            break

    untraced = statistics.median(durations[False])
    if tracer is None:
        metrics = {
            "sweep_s": (untraced, "s"),
            "periods_per_s": (wl.periods / untraced, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced_s = statistics.median(durations[True])
        metrics = tracer.layer_metrics()
        metrics["trace.sweep_s"] = (traced_s, "s")
        metrics["trace.untraced_sweep_s"] = (untraced, "s")
        # Each traced sweep against the untraced one just before it, so that
        # slow drift of the machine cancels.
        pairs = [t - u for u, t in zip(durations[False], durations[True])]
        metrics["trace.overhead_s"] = (statistics.median(pairs), "s")

    for msg in failures[:10]:
        print(f"FAILED {msg.rstrip()}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} (config seed {wl.seed}) trace {args.trace}")
    print(f"env {json.dumps(env)}")
    n = len(durations[False])
    print(f"sweep_s is the median of {n} untraced sweeps of {wl.periods} periods"
          + (f"; trace.sweep_s of {len(durations[True])} traced sweeps" if tracer else ""))
    print(f"failed_run_frac {failed / attempted:.6g} ({failed} of {attempted} runs)")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        share = ""
        if tracer is not None and unit == "s" and not name.startswith("trace."):
            share = f"  {100.0 * value / metrics['trace.sweep_s'][0]:6.2f}% of traced sweep"
        print(f"{name:<{width}}  {value:.6g} {unit}{share}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(result, workload=args.workload, seed=args.seed, config_seed=wl.seed,
                env=env, sweep_durations_s=durations[False], traced_sweep_durations_s=durations[True],
                setup_samples_s=setup, failures=failures[:50])
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
