"""Spans and counts around the public entry points of each eqprice layer.

The tracer wraps, from outside the package, the name each caller actually
looks up: the harness imports ``equilibrium_price_batch``,
``apply_feature_map_batch`` and ``RunRecord`` into its own namespace, and
calls the kernels through the ``kernels`` module attribute, so those are the
attributes replaced. ``install`` patches them and ``uninstall`` restores the
originals, so traced and untraced sweeps can alternate in one process. A name
that a later version of the package no longer has is skipped; its layer then
reads zero.

A span is ``[name, start, end, parent, run_id]`` with ``parent`` the index of
the enclosing span (``None`` at top level) and ``run_id`` the sweep number.
Spans stay in memory until ``write``. A layer's self time is its spans'
duration minus the time their child spans cover. Counts are taken from the
wrapped call's arguments and results inside a ``trace.counting`` span, so
that their cost is not charged to the layer that called the wrapped name.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from eqprice import hardness, harness, kernels, market

#: Layers reported, in the order printed. Every one is a self time except
#: ``harness.run_experiment``, which is also reported inclusive.
LAYERS = (
    "market.materialize",
    "market.equilibrium_price_batch",
    "market.context_hashes",
    "features.apply_feature_map_batch",
    "kernels.fixed_trajectory",
    "kernels.demand_trajectory",
    "kernels.contextual_trajectory",
    "harness.run_experiment",
    "harness.RunRecord",
    "harness.write_run_csv",
    "harness.write_summary_csv",
    "hardness.linear_cost_demo",
)
KERNELS = ("kernels.fixed_trajectory", "kernels.demand_trajectory", "kernels.contextual_trajectory")
COUNTS = (
    "market.equilibrium_price_batch.calls",
    "market.equilibrium_price_batch.demands",
    "kernels.periods",
    "kernels.shrinks",
    "kernels.resets",
    "kernels.frozen_periods",
    "kernels.contextual.grid_evals",
    "harness.csv_bytes",
)


def frozen_periods(price: np.ndarray, cells: np.ndarray | None = None) -> int:
    """Periods posted after the policy last moved its price.

    With ``cells`` (the demand cell of every period), each cell keeps its
    own price, so a cell is frozen after the last visit whose price differs
    from that cell's previous visit.
    """
    if cells is None:
        moved = np.flatnonzero(price[1:] != price[:-1])
        return int(price.shape[0] - (moved[-1] + 2 if moved.size else 1))
    order = np.argsort(cells, kind="stable")
    bounds = np.flatnonzero(np.diff(cells[order])) + 1
    return sum(frozen_periods(price[idx]) for idx in np.split(order, bounds))


def _count_equilibrium(add, args, out):
    add("market.equilibrium_price_batch.calls", 1)
    add("market.equilibrium_price_batch.demands", np.asarray(args[2]).size)


def _count_fixed(add, args, out):
    price = out[0]
    add("kernels.periods", price.shape[0])
    add("kernels.shrinks", out[5])
    add("kernels.resets", out[6])
    add("kernels.frozen_periods", frozen_periods(price))


def _count_demand(add, args, out):
    price = out[0]
    demands, d_lo, gamma, n_cells = args[3], args[7], args[8], args[9]
    cells = np.clip(((demands - d_lo) / gamma).astype(np.int64), 0, n_cells - 1)
    add("kernels.periods", price.shape[0])
    add("kernels.shrinks", out[5])
    add("kernels.frozen_periods", frozen_periods(price, cells))


def _count_contextual(add, args, out):
    # The sampling policy draws a price every period: it never freezes.
    T, K = out[1].shape[0], args[6].shape[0]
    add("kernels.periods", T)
    add("kernels.contextual.grid_evals", T * K)


def _count_csv(add, args, out):
    add("harness.csv_bytes", os.path.getsize(args[1]))


#: (owner, attribute, layer, count hook) for every traced name.
PATCHES = (
    (market.InstanceSpec, "materialize", "market.materialize", None),
    (harness, "equilibrium_price_batch", "market.equilibrium_price_batch", _count_equilibrium),
    (market.MarketInstance, "context_hashes", "market.context_hashes", None),
    (harness, "apply_feature_map_batch", "features.apply_feature_map_batch", None),
    (market, "apply_feature_map_batch", "features.apply_feature_map_batch", None),
    (kernels, "fixed_trajectory", "kernels.fixed_trajectory", _count_fixed),
    (kernels, "demand_trajectory", "kernels.demand_trajectory", _count_demand),
    (kernels, "contextual_trajectory", "kernels.contextual_trajectory", _count_contextual),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "RunRecord", "harness.RunRecord", None),
    (harness, "write_run_csv", "harness.write_run_csv", _count_csv),
    (harness, "write_summary_csv", "harness.write_summary_csv", _count_csv),
    (hardness, "linear_cost_demo", "hardness.linear_cost_demo", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id: int | None = None
        self._parent: int | None = None
        self._saved: list[tuple] = []
        self._root: list | None = None

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._parent, self.run_id]
        self._parent = len(self.spans)
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._parent = rec[3]

    def _add(self, counter: str, value) -> None:
        self.counts[self.run_id][counter] += float(value)

    def _wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                rec = self._open("trace.counting")
                try:
                    hook(self._add, args, out)
                finally:
                    self._close(rec)
            return out

        return traced

    def install(self, run_id: int) -> None:
        """Patch every traced name and open the sweep's root span."""
        self.run_id = run_id
        for owner, attr, layer, hook in PATCHES:
            if attr in vars(owner):
                fn = vars(owner)[attr]
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, fn, hook))
        self._root = self._open("sweep")

    def uninstall(self) -> None:
        self._close(self._root)
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per sweep: self time of each span name, plus ``<name>:total``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, run_id) in enumerate(self.spans):
            out[run_id][name] += end - start - child[i]
            out[run_id][name + ":total"] += end - start
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Medians over the traced sweeps of every per-layer metric."""
        times = self.self_times()
        runs = sorted(times)

        def med(fn):
            return statistics.median(fn(r) for r in runs)

        metrics: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            metrics[f"{layer}_s"] = (med(lambda r: times[r][layer]), "s")
        metrics["harness.run_experiment_s"] = (med(lambda r: times[r]["harness.run_experiment:total"]), "s")
        metrics["harness.self_s"] = (med(lambda r: times[r]["harness.run_experiment"]), "s")
        for counter in COUNTS:
            metrics[counter] = (med(lambda r: self.counts[r][counter]), "count")
        periods = metrics["kernels.periods"][0]
        kernel_s = sum(metrics[f"{k}_s"][0] for k in KERNELS)
        metrics["kernels.ns_per_period"] = (kernel_s / periods * 1e9 if periods else 0.0, "ns")
        frozen = metrics.pop("kernels.frozen_periods")[0]
        metrics["kernels.frozen_period_frac"] = (frozen / periods if periods else 0.0, "frac")
        csv_s = metrics["harness.write_run_csv_s"][0] + metrics["harness.write_summary_csv_s"][0]
        csv_bytes = metrics["harness.csv_bytes"][0]
        metrics["harness.csv_mb_per_s"] = (csv_bytes / 1e6 / csv_s if csv_s else 0.0, "MB/s")
        metrics["trace.counting_s"] = (med(lambda r: times[r]["trace.counting"]), "s")
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"], "spans": self.spans}, fh)
