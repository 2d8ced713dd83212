"""Every policy's CSV bytes, pinned: the SHA-256 of each per-period file and
of the summary a two-replication run at T = 2,000 writes on the acceptance
instances (criteria 1, 2 and 5, with their seeds). A change that moves one
byte of any policy's output fails here. The contextual digests move only
with a change to that policy's arithmetic that says so (ROADMAP item 5)."""

import hashlib
import sys
from pathlib import Path

import pytest

from eqprice.harness import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the acceptance instances)

T = 2_000

#: policy -> (instance, policy_params, seed)
RUNS = {
    "fixed_interval": (workloads.criterion_1_instance, {}, 101),
    "demand_grid": (workloads.criterion_2_instance, {}, 202),
    "constant_price": (workloads.criterion_2_instance, {"p": 0.5}, 202),
    "contextual_igw": (workloads.criterion_5_instance, {}, 20250801),
}

#: policy -> {file name: SHA-256 of its bytes}
DIGESTS = {
    "fixed_interval": {
        "run_T2000_rep0.csv": "809d13dda42ca7ed25b10ea57b5abeff613bc42451e00822a7319118a6c565f6",
        "run_T2000_rep1.csv": "809d13dda42ca7ed25b10ea57b5abeff613bc42451e00822a7319118a6c565f6",
        "summary.csv": "538b9df4a86cf306f56249ce92d1d225ab18637a2bf1136d828d86f7963f1572",
    },
    "demand_grid": {
        "run_T2000_rep0.csv": "22991cee9bb6a3df95d22f70cda22156f8808df518d59eb6e69ee3bb8182c1e5",
        "run_T2000_rep1.csv": "705750986839f33169c1af214e3c8ea736446847133b4521e8846aa9b1eb2b54",
        "summary.csv": "ed782b1dcf3aabb85739bbb8f6a073134e04d859c1005edee1f2bec7a12b07a5",
    },
    "constant_price": {
        "run_T2000_rep0.csv": "70e222f2c4faa6716ec14f96ecc8c0f93e67573da2da210ed37b3911f0dcc72c",
        "run_T2000_rep1.csv": "d99f47d357f90230405c95ba5fe94a1eda40876390ee4d254c6f1647903a3764",
        "summary.csv": "39716d948cb8f3a41883f9cd7783530cb347ed423be385c8cd3590ee143c0e35",
    },
    "contextual_igw": {
        "run_T2000_rep0.csv": "6b70f9ca90ab8bee908959fdf5492c888161f22f6fdd6d3e04f407618e61fcc6",
        "run_T2000_rep1.csv": "67977031d6249f343930d77261e42e159362f46e96e22886d30f2ccab2858a6f",
        "summary.csv": "ed85a26856a61fbe43b9aa579c61743d0a3a88840d3b413072f156c00d5659bc",
    },
}


@pytest.mark.parametrize("policy", list(RUNS))
def test_policy_output_bytes_are_pinned(policy, tmp_path):
    instance, params, seed = RUNS[policy]
    run_experiment(ExperimentConfig(
        instance=instance(), policy=policy, horizons=(T,), replications=2, seed=seed,
        policy_params=params, out=str(tmp_path),
    ))
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
    }
    assert written == DIGESTS[policy]
