"""Self-test of the benchmark at tiny horizons.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import make_reference  # noqa: E402
import workloads  # noqa: E402

DIV = 1000
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    make_reference.write_reference(path, workloads.WORKLOADS, horizon_div=DIV, slots=1)
    return path


def run_bench(workload, trace, reference, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "0",
           "--seconds", "0.05", "--trace", str(trace), "--horizon-div", str(DIV),
           "--reference", str(reference)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_unit(workload, trace, reference):
    done = run_bench(workload, trace, reference)
    result = result_of(done)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_run_frac 0 " in done.stdout


@pytest.mark.parametrize(
    "workload, field, delta",
    [("fixed_long", "price", None), ("demand_export", "C_T", 1e-3), ("contextual", "proxy_reg", 1e-3)],
)
def test_corrupted_reference_fails(workload, field, delta, reference, tmp_path):
    doc = json.loads(reference.read_text())
    entry = doc[workloads.reference_key(workload, DIV)][str(workloads.config_seed(workload, 0))][0]
    entry[field] = "0" * 32 if delta is None else entry[field] + delta
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(doc))
    done = run_bench(workload, 0, bad)
    result = result_of(done)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert "failed_run_frac 0 " not in done.stdout


def test_tolerance_admits_solver_drift_only():
    ref = {"kind": "demand_grid", "T": 10**5, "U_T": 1.0, "C_T": 2.0, "price": "ab"}
    tol = workloads.scalar_tolerance(10**5)
    assert workloads.compare(dict(ref, C_T=2.0 + 0.9 * tol), ref) == []
    assert workloads.compare(dict(ref, C_T=2.0 + 1.1 * tol), ref) != []
    assert workloads.compare(dict(ref, price="ac"), ref) != []


def test_csv_check_reads_every_block(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CSV_BLOCK_ROWS", 7)
    wl = workloads.build("demand_export", 0, DIV, tmp_path)
    runs = workloads.sweep(wl)
    rec, out_dir = runs[0], Path(wl.configs[0].out)
    assert workloads.check_csv(rec, out_dir) == []
    path = out_dir / f"run_T{rec.horizon}_rep{rec.replication}.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = lines[60].split(",")
    row[2] = repr(float(row[2]) + 1e-6)
    lines[60] = ",".join(row)
    path.write_text("".join(lines))
    assert workloads.check_csv(rec, out_dir) == [f"{path.name}: column price differs from the record"]
    path.write_text("".join(lines[:-1]))
    assert workloads.check_csv(rec, out_dir) == [f"{path.name}: {rec.horizon - 1} rows for T={rec.horizon}"]


def test_bare_directory_fails_without_result(tmp_path, reference):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("fixed_long", 0, reference, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
