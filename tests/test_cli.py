import json
import os

import numpy as np
import pytest

from eqprice import cli
from eqprice.cli import main
from eqprice.harness import load_config, mean_metric_by_horizon, run_experiment
from eqprice.market import CostSpec, GeneratorSpec, InstanceSpec


@pytest.fixture
def config_path(tmp_path):
    inst = InstanceSpec(
        suppliers=(CostSpec.quadratic(0.5), CostSpec.quadratic(1.0)),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        horizon=100,
    )
    doc = {
        "instance": inst.to_json_dict(),
        "policy": "demand_grid",
        "horizons": [100, 200, 400],
        "replications": 2,
        "seed": 17,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_writes_per_period_csv(tmp_path, config_path, capsys):
    out = tmp_path / "one.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,demand,price,production,unmet_inc,cost_inc,pay_inc"
    assert len(lines) == 101
    assert "policy=demand_grid" in capsys.readouterr().out


@pytest.mark.parametrize("where", ["new", "nested-new", "existing"])
def test_run_out_directory_receives_the_run_csv(tmp_path, config_path, where):
    # "newdir/" was written as a file named newdir, and a sweep into it failed
    out_dir = tmp_path / ("a/b" if where == "nested-new" else "newdir")
    if where == "existing":
        out_dir.mkdir()
        arg = str(out_dir)
    else:
        arg = str(out_dir) + os.sep
    assert main(["run", "--config", str(config_path), "--out", arg]) == 0
    lines = (out_dir / "run_T100_rep0.csv").read_text().splitlines()
    assert lines[0] == "t,demand,price,production,unmet_inc,cost_inc,pay_inc"
    assert len(lines) == 101
    assert main(["sweep", "--config", str(config_path), "--out", arg]) == 0
    assert (out_dir / "summary.csv").is_file()
    assert (out_dir / "run_T100_rep0.csv").read_text().splitlines() == lines


def test_run_without_out_writes_into_the_config_out_directory(tmp_path, config_path):
    # the README config's "out": "results" was written as a file named
    # results, and a sweep of the same config then failed
    doc = json.loads(config_path.read_text())
    out_dir = tmp_path / "results"
    config_path.write_text(json.dumps({**doc, "out": str(out_dir)}))
    assert main(["run", "--config", str(config_path)]) == 0
    assert (out_dir / "run_T100_rep0.csv").is_file()
    assert main(["sweep", "--config", str(config_path)]) == 0
    assert (out_dir / "summary.csv").is_file()


def test_sweep_and_fit(tmp_path, config_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["sweep", "--config", str(config_path), "--out", str(out_dir)]) == 0
    summary = out_dir / "summary.csv"
    assert summary.exists()
    assert len(summary.read_text().splitlines()) == 1 + 3 * 2

    assert main(["fit", "--summary", str(summary), "--metric", "U_T"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["model"] == "power_law"
    assert doc["metric"] == "U_T"
    assert len(doc["horizons"]) == 3

    # the overshoot-only sums the rate fits use are in the summary too
    assert main(["fit", "--summary", str(summary), "--metric", "C_T_pos"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["metric"] == "C_T_pos"
    records = run_experiment(load_config(config_path))
    for T, mean in zip(doc["horizons"], doc["means"]):
        assert mean == pytest.approx(np.mean([r.cost_pos for r in records if r.horizon == T]))


def test_sweep_without_any_out_writes_into_results(tmp_path, config_path, monkeypatch, capsys):
    # neither the config nor the command names an out: the sweep writes
    # into results/ under the working directory
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out == "wrote 6 runs to results/summary.csv\n"
    written = sorted(p.name for p in (tmp_path / "results").iterdir())
    assert written == sorted(
        ["summary.csv"] + [f"run_T{T}_rep{r}.csv" for T in (100, 200, 400) for r in (0, 1)]
    )


def test_fit_out_writes_the_printed_line(tmp_path, config_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["sweep", "--config", str(config_path), "--out", str(out_dir)]) == 0
    out = tmp_path / "fit.json"
    assert main(["fit", "--summary", str(out_dir / "summary.csv"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    assert out.read_text() == printed + "\n"
    assert json.loads(printed)["metric"] == "U_T"


def test_seed_override_changes_output(tmp_path, config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["sweep", "--config", str(config_path), "--out", str(out_a)])
    main(["sweep", "--config", str(config_path), "--out", str(out_b), "--seed", "99"])
    assert (out_a / "summary.csv").read_text() != (out_b / "summary.csv").read_text()


def test_hardness_iid_csv(tmp_path, capsys):
    out = tmp_path / "iid.csv"
    assert main([
        "hardness", "--kind", "iid", "--periods", "2000", "--seed", "4",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,analytic,empirical,n_periods,seed"
    assert len(lines) == 5


def test_hardness_iid_without_out_prints_the_rows(tmp_path, capsys):
    args = ["hardness", "--kind", "iid", "--periods", "2000", "--seed", "4"]
    out = tmp_path / "iid.csv"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--periods", "0", "n_periods"),
        ("--periods", "-5", "n_periods"),
        ("--grid-step", "0", "grid_step"),
        ("--grid-step", "-0.1", "grid_step"),
        ("--grid-step", "nan", "grid_step"),
        ("--grid-step", "inf", "grid_step"),
        ("--grid-step", "3", "grid_step"),
    ],
)
def test_hardness_iid_rejects_invalid_parameters(flag, value, key, capsys):
    assert main(["hardness", "--kind", "iid", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err.strip())
    assert doc["error"].startswith("ValueError: ") and key in doc["error"], doc


def test_hardness_linear_json(capsys):
    assert main(["hardness", "--kind", "linear", "--periods", "3000"]) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["policy"] == "fixed_interval"
    assert doc["r_squared"] > 0.9


def test_hardness_linear_out_writes_the_json(tmp_path, capsys):
    args = ["hardness", "--kind", "linear", "--periods", "3000"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    out = tmp_path / "linear.json"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("linear demo slope=")
    assert out.read_text() == json.dumps(doc, indent=2) + "\n"


def test_error_is_machine_readable(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json")])
    assert code != 0
    err = capsys.readouterr().err.strip()
    doc = json.loads(err)
    assert "error" in doc


def _config_doc():
    return {
        "instance": {
            "suppliers": [{"family": "quadratic", "mu": 0.5, "a": 0.0}],
            "demands": {"kind": "uniform", "lo": 0.5, "hi": 1.5},
            "horizon": 100,
        },
        "policy": "demand_grid",
        "horizons": [100],
    }


@pytest.mark.parametrize(
    "where, key, value",
    [
        # each key was read as if absent, and the run went ahead without it
        (("instance", "suppliers", 0), "intercept", 0.3),
        (("instance", "suppliers", 0), "c", 0.3),
        (("instance", "demands"), "dim", 3),
        (("instance",), "demand_bound", [0.25, 2.0]),
        ((), "replication", 5),
        ((), "policy_param", {"gamma_demand": 0.1}),
    ],
)
def test_unknown_key_fails_the_run(tmp_path, capsys, where, key, value):
    doc = _config_doc()
    record = doc
    for step in where:
        record = record[step]
    record[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"'{key}'"):
        load_config(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run.csv")]) == 1
    assert f"'{key}'" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "key, value, doc",
    [
        ("horizons", 100, {"horizons": 100}),
        ("policy_params['p']", None, {"policy": "constant_price", "policy_params": {"p": None}}),
    ],
)
def test_mistyped_config_value_names_its_key(tmp_path, capsys, key, value, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_config_doc(), **doc}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run.csv")]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("ValueError") and key in error and repr(value) in error
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "key, value", [("horizons", [100.5]), ("replications", 1.5), ("seed", 0.5)]
)
def test_non_integral_config_counts_rejected(tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_config_doc(), key: value}))
    with pytest.raises(ValueError, match="must be an integer"):
        load_config(path)


def test_fixed_interval_on_a_varying_demand_fails_before_any_run(
    tmp_path, config_path, capsys, monkeypatch
):
    # the config was accepted, and the run raised once it reached the tracker
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    out = tmp_path / "run.csv"
    argv = ["run", "--config", str(config_path), "--policy", "fixed_interval", "--out", str(out)]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == (
        "ValueError: fixed_interval expects a constant demand, got demands in [0.5, 1.5]"
    )
    assert runs == [] and not out.exists()


def test_config_lacking_policy_fails_the_run(tmp_path, capsys):
    doc = _config_doc()
    del doc["policy"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run.csv")]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "ValueError: ExperimentConfig document lacks the required key 'policy'"
    assert not (tmp_path / "run.csv").exists()


def test_fit_rejects_nan_metric(tmp_path, config_path, capsys):
    # proxy_reg is nan for every non-sampling policy, so a fit over it has no
    # meaning and must fail with the one-line error, not print a nan slope
    out_dir = tmp_path / "results"
    assert main(["sweep", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    code = main(["fit", "--summary", str(out_dir / "summary.csv"), "--metric", "proxy_reg"])
    assert code != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err.strip())
    assert "finite" in doc["error"]


def test_hardness_policy_flag_is_refused(capsys):
    # the flag had one working value: linear demos run fixed_interval
    for kind in ("iid", "linear"):
        with pytest.raises(SystemExit) as exc:
            main(["hardness", "--kind", kind, "--policy", "fixed_interval"])
        assert exc.value.code != 0
    assert "--policy" in capsys.readouterr().err


def test_fit_means_equal_record_means_bit_for_bit(tmp_path, capsys):
    # from 8 replications on, sum/len and np.mean can round differently
    inst = InstanceSpec(
        suppliers=(CostSpec.quadratic(0.5), CostSpec.quadratic(1.0)),
        demands=GeneratorSpec(kind="uniform", lo=0.5, hi=1.5),
        horizon=100,
    )
    doc = {
        "instance": inst.to_json_dict(),
        "policy": "demand_grid",
        "horizons": [50, 100, 200],
        "replications": 12,
        "seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "results"
    assert main(["sweep", "--config", str(path), "--out", str(out_dir)]) == 0
    records = run_experiment(load_config(path))
    for metric in ("U_T", "C_T_pos", "P_T_pos"):
        capsys.readouterr()
        assert main(["fit", "--summary", str(out_dir / "summary.csv"), "--metric", metric]) == 0
        fit = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (fit["horizons"], fit["means"]) == mean_metric_by_horizon(records, metric)
