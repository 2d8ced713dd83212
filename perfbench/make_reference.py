#!/usr/bin/env python3
"""Regenerate the reference outputs that every benchmark sweep is checked against.

Usage (from the repository root):

    python3 perfbench/make_reference.py

Rewrites ``perfbench/reference.json``. It runs one sweep per workload and
seed slot and stores, per run, the path digests and cumulative metrics that
``workloads.compare`` checks. Only regenerate after a change that is meant
to alter trajectories, and say so where the change is recorded: a
regenerated reference accepts whatever the program now computes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def reference_entries(name: str, horizon_div: int, slots: int, scratch: Path) -> dict:
    entries = {}
    for slot in range(slots):
        wl = workloads.build(name, slot, horizon_div, scratch)
        entries[str(wl.seed)] = [workloads.summarize(wl, run) for run in workloads.sweep(wl)]
    return entries


def write_reference(path: Path, names, horizon_div: int = 1, slots: int = workloads.SEED_SLOTS) -> None:
    """Add or replace the entries of ``names`` at ``horizon_div`` in ``path``."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    scratch = path.parent / f".reference-scratch-{path.stem}"
    try:
        for name in names:
            doc[workloads.reference_key(name, horizon_div)] = reference_entries(name, horizon_div, slots, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main() -> None:
    write_reference(HERE / "reference.json", workloads.WORKLOADS)


if __name__ == "__main__":
    main()
