"""Tests for the command-line surface and the invariant registry."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chimera2d
from chimera2d import invariants
from chimera2d.model import ModelConfig
from chimera2d.cli import RunConfig, ConfigError, cmd_dispatch, read_series_csv, write_series_csv


# ----------------------------------------------------------------------
# configuration handling


def test_unknown_keys_rejected():
    for key in ("layars", "channels", "bench_sizes"):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({key: 2})


def test_nonpositive_values_rejected():
    with pytest.raises(ConfigError):
        RunConfig(horizon=0)
    with pytest.raises(ConfigError):
        RunConfig(lr=-1.0)


@pytest.mark.parametrize("field, value", [
    ("lr", "NaN"), ("lr", "Infinity"), ("season_hint", "NaN"), ("tol", "NaN"), ("noise_std", "NaN"),
])
def test_non_finite_values_exit_2_naming_the_field(tmp_path, capsys, field, value):
    # json reads NaN and Infinity, and NaN passes every <= 0 and < 0 check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{field}": {value}}}')
    assert cmd_dispatch(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {field} must be")


@pytest.mark.parametrize("command, field, value", [
    ("forecast", "horizon", 2.5), ("fit", "steps", 1.5), ("fit", "state_dim", 2.0),
    ("fit", "seed", -1), ("fit", "layers", True),
])
def test_bad_integer_field_exits_2_naming_it(tmp_path, capsys, command, field, value):
    out = str(tmp_path)
    good = {"variates": 2, "length": 16, "layers": 1, "state_dim": 2, "steps": 1, "horizon": 2,
            "data": str(tmp_path / "series.csv")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(good))
    assert cmd_dispatch(["generate", "--config", str(cfg), "--out", out]) == 0
    assert cmd_dispatch(["fit", "--config", str(cfg), "--out", out]) == 0
    cfg.write_text(json.dumps({**good, field: value}))
    extra = ["--checkpoint", str(tmp_path / "checkpoint.json")] if command == "forecast" else []
    capsys.readouterr()
    assert cmd_dispatch([command, "--config", str(cfg), "--out", out] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {field} must be") and err.rstrip().endswith(f"got {value!r}")


@pytest.mark.parametrize("field, value, message", [
    ("bidirectional", "false", "bidirectional must be true or false, got 'false'"),
    ("selective", "yes", "selective must be true or false, got 'yes'"),
    ("lr", True, "lr must be a number, got True"),
    ("lr", "big", "lr must be a number, got 'big'"),
    ("season_hint", "2", "season_hint must be a number, got '2'"),
    ("tol", None, "tol must be a number, got None"),
    ("noise_std", False, "noise_std must be a number, got False"),
    ("data", 5, "data must be a path string, got 5"),
    ("data", 0, "data must be a path string, got 0"),
    ("data", ["x.csv"], "data must be a path string, got ['x.csv']"),
    ("phi", "ab", "phi must be a list of numbers, got 'ab'"),
    ("phi", [0.5, "a"], "phi[1] must be a number, got 'a'"),
    ("eta", [float("nan")], "eta[0] must be finite, got nan"),
])
def test_field_of_the_wrong_type_exits_2_naming_it(tmp_path, capsys, field, value, message):
    out = str(tmp_path)
    good = {"variates": 2, "length": 16, "layers": 1, "state_dim": 2, "steps": 1, "data": str(tmp_path / "series.csv")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(good))
    assert cmd_dispatch(["generate", "--config", str(cfg), "--out", out]) == 0
    cfg.write_text(json.dumps({**good, field: value}))
    capsys.readouterr()
    assert cmd_dispatch(["fit", "--config", str(cfg), "--out", out]) == 2
    assert capsys.readouterr().err.rstrip() == f"error: config: {message}"


def test_config_json_file_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    cfg = RunConfig(steps=3, seed=9)
    path.write_text(json.dumps(cfg.to_dict()))
    assert RunConfig.load(str(path)) == cfg


def test_seed_override():
    assert RunConfig.load(None, seed_override=123).seed == 123


def test_run_config_takes_the_model_keys_and_defaults_from_model_config():
    keys = RunConfig().to_dict()
    model = ModelConfig()
    for field in dataclasses.fields(ModelConfig):
        if field.name != "channels":
            assert keys[field.name] == getattr(model, field.name), field.name
    assert "channels" not in keys
    assert RunConfig().model_config() == ModelConfig(channels=1)


# ----------------------------------------------------------------------
# CSV format


def test_csv_roundtrip(tmp_path):
    series = np.random.default_rng(0).standard_normal((3, 7))
    path = tmp_path / "series.csv"
    with open(path, "w") as fh:
        write_series_csv(fh, series)
    assert np.array_equal(read_series_csv(str(path)), series)


def test_bad_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(ConfigError):
        read_series_csv(str(path))


@pytest.mark.parametrize("cell, problem", [("abc", "non-numeric"), ("nan", "non-finite")])
def test_bad_csv_cell_exits_2_naming_file_and_line(tmp_path, capsys, cell, problem):
    data = tmp_path / "series.csv"
    data.write_text(f"t,var_0,var_1\n0,1.0,2.0\n1,3.0,{cell}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{problem} value in {data} line 3: 1,3.0,{cell}")):
        read_series_csv(str(data))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data), "steps": 1}))
    assert cmd_dispatch(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {problem} value in {data} line 3")


def test_header_only_csv_exits_2_naming_file(tmp_path, capsys):
    data = tmp_path / "header.csv"
    data.write_text("t,var_0,var_1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data), "steps": 1}))
    assert cmd_dispatch(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: config: no data rows in series file {data}"
    series = tmp_path / "series.csv"
    with open(series, "w", encoding="utf-8") as fh:
        write_series_csv(fh, np.ones((2, 4)))
    args = ["eval", "--pred", str(series), "--truth", str(series), "--insample", str(data), "--out", str(tmp_path)]
    assert cmd_dispatch(args) == 2
    assert capsys.readouterr().err.strip() == f"error: config: no data rows in series file {data}"


# ----------------------------------------------------------------------
# subcommands


def test_generate_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variates": 2, "length": 32, "seed": 5}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cmd_dispatch(["generate", "--config", str(cfg), "--out", str(a)]) == 0
    assert cmd_dispatch(["generate", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()


def test_fit_forecast_eval_pipeline(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "variates": 2, "length": 24, "phi": [0.5], "noise_std": 0.0, "seed": 1,
        "layers": 1, "state_dim": 2,
        "steps": 2, "lr": 1e-6, "horizon": 3,
        "data": str(tmp_path / "series.csv"),
    }))
    out = str(tmp_path)
    assert cmd_dispatch(["generate", "--config", str(cfg), "--out", out]) == 0
    assert cmd_dispatch(["fit", "--config", str(cfg), "--out", out]) == 0
    assert (tmp_path / "checkpoint.json").exists()
    assert len(json.loads((tmp_path / "loss_log.json").read_text())) == 2
    assert cmd_dispatch([
        "forecast", "--config", str(cfg), "--out", out,
        "--checkpoint", str(tmp_path / "checkpoint.json"),
    ]) == 0
    forecast = read_series_csv(str(tmp_path / "forecast.csv"))
    assert forecast.shape == (2, 3)  # V variates, H steps
    assert cmd_dispatch([
        "eval", "--pred", str(tmp_path / "forecast.csv"),
        "--truth", str(tmp_path / "forecast.csv"),
        "--insample", str(tmp_path / "series.csv"), "--out", out,
    ]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics) == {"MSE", "MAE", "SMAPE", "MASE", "OWA"}
    assert metrics["MSE"] == 0.0


def test_eval_scores_each_variate(tmp_path):
    rng = np.random.default_rng(2)
    levels = np.array([[0.0], [10.0]])
    series = {
        "insample": levels + rng.standard_normal((2, 12)),
        "truth": levels + rng.standard_normal((2, 4)),
    }
    series["pred"] = np.repeat(series["insample"][:, -1:], 4, axis=1)
    series["short"] = series["insample"][:1]
    for name, arr in series.items():
        with open(tmp_path / f"{name}.csv", "w", encoding="utf-8") as fh:
            write_series_csv(fh, arr)
    args = ["eval", "--pred", str(tmp_path / "pred.csv"), "--truth", str(tmp_path / "truth.csv"), "--out", str(tmp_path)]
    # the per-variate last value is each variate's own naive reference
    assert cmd_dispatch(args + ["--insample", str(tmp_path / "insample.csv")]) == 0
    assert abs(json.loads((tmp_path / "metrics.json").read_text())["OWA"] - 1.0) < 1e-12
    assert cmd_dispatch(args + ["--insample", str(tmp_path / "short.csv")]) == 2
    for season in ("0", "-1"):
        assert cmd_dispatch(args + ["--insample", str(tmp_path / "insample.csv"), "--season", season]) == 2


@pytest.mark.parametrize("insample, season, message", [
    (np.arange(3.0)[None], "5", "in-sample series too short for the seasonal naive scale"),
    (np.ones((1, 6)), "1", "MASE undefined: in-sample naive error is zero"),
], ids=["short_for_season", "flat"])
def test_eval_unscorable_insample_exits_2_naming_it(tmp_path, capsys, insample, season, message):
    for name, arr in (("series", np.arange(4.0)[None]), ("insample", insample)):
        with open(tmp_path / f"{name}.csv", "w", encoding="utf-8") as fh:
            write_series_csv(fh, arr)
    series, path = tmp_path / "series.csv", tmp_path / "insample.csv"
    assert cmd_dispatch(["eval", "--pred", str(series), "--truth", str(series), "--insample", str(path),
                         "--season", season, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: config: cannot score against in-sample {path}: {message}\n"


def test_eval_takes_only_out_of_the_common_flags(tmp_path, capsys):
    # eval reads no run configuration and draws nothing
    series = tmp_path / "series.csv"
    with open(series, "w", encoding="utf-8") as fh:
        write_series_csv(fh, np.arange(8.0).reshape(2, 4))
    args = ["eval", "--pred", str(series), "--truth", str(series), "--insample", str(series), "--out", str(tmp_path)]
    assert cmd_dispatch(args) == 0
    for flag in (["--config", "nope.json"], ["--seed", "3"]):
        capsys.readouterr()
        assert cmd_dispatch(args + flag) == 2
        assert capsys.readouterr().err.startswith(f"error: config: unrecognized arguments: {' '.join(flag)}")


@pytest.mark.parametrize("command, config, csv, message", [
    ("fit", "{not json", "", "config is not valid JSON"),
    ("fit", "[1]", "", "config must be a JSON object"),
    ("fit", "{}", "", "fit requires a 'data' path in the config"),
    ("forecast", "{}", "", "forecast requires a 'data' path in the config"),
    ("fit", None, None, "series file not found: {data}"),
    ("fit", None, "", "empty series file: {data}"),
    ("fit", None, "t\n0\n", "no variate columns in {data}"),
    ("fit", None, "t,var_0\n0,1.0,2.0\n", "ragged CSV row in {data}: 0,1.0,2.0"),
    ("fit", None, "t,var_0\n0,1.0\n", "training series needs at least 2 time steps"),
    ("eval", None, "t,var_0\n0,1.0\n1,2.0\n", "prediction shape (1, 2) != truth shape (1, 3)"),
])
def test_bad_input_exits_2_naming_it(tmp_path, capsys, command, config, csv, message):
    data, truth = tmp_path / "series.csv", tmp_path / "truth.csv"
    if csv is not None:
        data.write_text(csv)
    with open(truth, "w", encoding="utf-8") as fh:
        write_series_csv(fh, np.ones((1, 3)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data), "steps": 1}) if config is None else config)
    args = {
        "fit": ["fit", "--config", str(cfg)],
        "forecast": ["forecast", "--config", str(cfg), "--checkpoint", str(tmp_path / "ckpt.json")],
        "eval": ["eval", "--pred", str(data), "--truth", str(truth), "--insample", str(truth)],
    }[command]
    assert cmd_dispatch(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: config: {message.format(data=data)}")


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert cmd_dispatch(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert cmd_dispatch(["generate", "--config", str(tmp_path / "nope.json")]) == 2


# values of the (2,) parameter layer0.trend.f.a1 that are not arrays of numbers
NOT_NUMBERS = {
    "text_param": "abc", "numeric_text_param": ["-0.1", "-0.2"], "bool_param": [True, False],
    "ragged_param": [[1.0], [1.0, 2.0]], "object_param": {"a": 1.0}, "huge_param": [10**400, 1],
}


@pytest.mark.parametrize("case", [
    "missing", "not_json", "unknown_key", "missing_param", "misshapen_param", "non_bool_config",
    "nan_param", "infinite_param", "params_not_object", "config_not_object",
    *NOT_NUMBERS,
])
def test_bad_checkpoint_exits_2_naming_it(tmp_path, capsys, case):
    from chimera2d import ChimeraModel, ModelConfig

    data = tmp_path / "series.csv"
    with open(data, "w", encoding="utf-8") as fh:
        write_series_csv(fh, np.zeros((1, 6)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data)}))
    ckpt = tmp_path / "ckpt.json"
    if case == "not_json":
        ckpt.write_text("{not json")
    elif case == "unknown_key":
        blob = ChimeraModel.init_random(ModelConfig(layers=0, state_dim=1, channels=1)).to_checkpoint()
        blob["config"]["gate_dim"] = 1
        ckpt.write_text(json.dumps(blob))
    elif case == "missing_param":
        blob = ChimeraModel.init_random(ModelConfig(layers=0, state_dim=1, channels=1)).to_checkpoint()
        del blob["params"]["head.w"]
        ckpt.write_text(json.dumps(blob))
    elif case == "misshapen_param":
        blob = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=1)).to_checkpoint()
        blob["params"]["layer0.trend.f.a1"] = [-0.1]
        ckpt.write_text(json.dumps(blob))
    elif case == "non_bool_config":
        blob = ChimeraModel.init_random(ModelConfig(layers=0, state_dim=1, channels=1)).to_checkpoint()
        blob["config"]["bidirectional"] = "false"
        ckpt.write_text(json.dumps(blob))
    elif case in ("nan_param", "infinite_param"):
        # json writes and reads NaN and Infinity; decode never reads c1
        blob = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=1)).to_checkpoint()
        blob["params"]["layer0.trend.f.c1"][0] = np.nan
        if case == "infinite_param":
            blob["params"]["decoder.a1"][1] = np.inf
        ckpt.write_text(json.dumps(blob))
    elif case == "params_not_object":
        ckpt.write_text(json.dumps({"config": {}, "params": []}))
    elif case == "config_not_object":
        # iterating "ab" would read it as the config keys a and b
        ckpt.write_text(json.dumps({"config": "ab", "params": {}}))
    elif case in NOT_NUMBERS:
        blob = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=1)).to_checkpoint()
        blob["params"]["layer0.trend.f.a1"] = NOT_NUMBERS[case]
        ckpt.write_text(json.dumps(blob))
    args = ["forecast", "--config", str(cfg), "--out", str(tmp_path), "--checkpoint", str(ckpt)]
    assert cmd_dispatch(args) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: config:") and str(ckpt) in err
    named = {
        "unknown_key": "gate_dim", "missing_param": "head.w", "misshapen_param": "layer0.trend.f.a1",
        "non_bool_config": "bidirectional must be true or false, got 'false'",
        "nan_param": "layer0.trend.f.c1 has non-finite values",
        "infinite_param": "decoder.a1 has non-finite values; layer0.trend.f.c1 has non-finite values",
        "params_not_object": "TypeError: checkpoint params must be a JSON object",
        "config_not_object": "TypeError: checkpoint config must be a JSON object",
        **dict.fromkeys(NOT_NUMBERS, "invalid checkpoint parameters: layer0.trend.f.a1 is not an array of numbers"),
    }
    if case in named:
        assert named[case] in err


def test_selective_checkpoint_in_the_old_layout_is_refused_by_name(tmp_path, capsys):
    # before every SSM block shared one layout, a selective block kept its
    # projection biases under names of their own, next to the unread
    # dt1_raw and dt2_raw, and the decoder all twelve projection parameters
    from chimera2d import ChimeraModel, ModelConfig

    blob = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=1, selective=True)).to_checkpoint()
    params = blob["params"]
    renamed = {"b1": "b_B1", "b2": "b_B2", "c1": "b_C1", "c2": "b_C2"}
    for prefix in ("layer0.trend.f", "layer0.trend.b", "layer0.seasonal.f", "layer0.seasonal.b"):
        for new, old in renamed.items():
            params[f"{prefix}.{old}"] = params.pop(f"{prefix}.{new}")
        params[f"{prefix}.b_d1"], params[f"{prefix}.b_d2"] = params[f"{prefix}.dt1_raw"], params[f"{prefix}.dt2_raw"]
    for name in ("W_B1", "W_B2", "W_C1", "W_C2", "b_B1", "b_B2", "b_C1", "b_C2", "w_d1", "w_d2", "b_d1", "b_d2"):
        params[f"decoder.{name}"] = params[f"layer0.trend.f.{name}"]
    with pytest.raises(ValueError) as info:
        ChimeraModel.from_checkpoint(blob)
    for name in ("missing layer0.trend.f.b1", "missing layer0.seasonal.b.c2", "unexpected layer0.trend.f.b_B1",
                 "unexpected layer0.seasonal.b.b_d2", "unexpected decoder.W_B1", "unexpected decoder.b_d2"):
        assert name in str(info.value)
    data = tmp_path / "series.csv"
    with open(data, "w", encoding="utf-8") as fh:
        write_series_csv(fh, np.zeros((2, 6)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data)}))
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(blob))
    assert cmd_dispatch(["forecast", "--config", str(cfg), "--out", str(tmp_path), "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: config: cannot load checkpoint {ckpt}") and "missing layer0.trend.f.b1" in err


def test_forecast_rejects_checkpoint_with_several_channels(tmp_path, capsys):
    from chimera2d import ChimeraModel, ModelConfig

    data = tmp_path / "series.csv"
    with open(data, "w", encoding="utf-8") as fh:
        write_series_csv(fh, np.zeros((2, 6)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data)}))
    ckpt = tmp_path / "ckpt.json"
    ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=3)).save(ckpt)
    args = ["forecast", "--config", str(cfg), "--out", str(tmp_path), "--checkpoint", str(ckpt)]
    assert cmd_dispatch(args) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: config:") and str(ckpt) in err and "channels=3" in err


def test_unknown_subcommand_exits_2():
    for command in ("frobnicate", "bench-scan"):
        assert cmd_dispatch([command]) == 2


def test_runtime_failure_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # training diverges at an absurd learning rate -> runtime failure
    cfg.write_text(json.dumps({
        "variates": 1, "length": 32, "noise_std": 0.2, "seed": 2,
        "layers": 1, "state_dim": 2, "steps": 50, "lr": 100.0,
        "data": str(tmp_path / "series.csv"),
    }))
    out = str(tmp_path)
    assert cmd_dispatch(["generate", "--config", str(cfg), "--out", out]) == 0
    assert cmd_dispatch(["fit", "--config", str(cfg), "--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("error: runtime:")
    assert "\n" not in err


# ----------------------------------------------------------------------
# invariant registry


@pytest.mark.parametrize("name", list(invariants.REGISTRY))
def test_invariant(name):
    invariants.REGISTRY[name]()


def test_every_library_module_declares_invariants():
    modules = {
        "structured", "discretize", "recurrence", "scan", "conv",
        "selective", "model", "variants", "ar", "cli",
    }
    assert {name.split(".")[0] for name in invariants.REGISTRY} == modules


def _two_checks(monkeypatch, second):
    """Point the selftest at a fast two-entry registry."""
    checks = {"structured.expm_doubling": invariants.REGISTRY["structured.expm_doubling"],
              "discretize.step_resolution": second}
    monkeypatch.setattr(invariants, "REGISTRY", checks)
    return list(checks)


def test_selftest_exits_zero(capsys, monkeypatch):
    names = _two_checks(monkeypatch, invariants.REGISTRY["discretize.step_resolution"])
    assert cmd_dispatch(["selftest"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[-1])
    for name, result in zip(names, summary["results"]):
        # a passing check's line and detail carry the figure it measured
        figure = invariants.REGISTRY[name]()
        assert f"PASS {name}: {figure}\n" in out
        assert result == {"name": name, "passed": True, "detail": figure}


def test_selftest_takes_no_flags(capsys, monkeypatch):
    _two_checks(monkeypatch, invariants.REGISTRY["discretize.step_resolution"])
    for flag in (["--config", "nope.json"], ["--seed", "3"], ["--out", "no/such/dir"]):
        assert cmd_dispatch(["selftest"] + flag) == 2
        assert capsys.readouterr().err.startswith(f"error: config: unrecognized arguments: {' '.join(flag)}")


def test_closed_stdout_exits_1_with_no_error_line(capsys, monkeypatch):
    # ``chimera2d selftest | head -1`` once head has exited
    _two_checks(monkeypatch, invariants.REGISTRY["discretize.step_resolution"])
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w", buffering=1) as closed:  # each line's write raises BrokenPipeError
        monkeypatch.setattr(sys, "stdout", closed)
        assert cmd_dispatch(["selftest"]) == 1
    assert capsys.readouterr().err == ""


def test_selftest_ends_with_json_summary(capsys, monkeypatch):
    def broken():
        raise AssertionError("off by one")

    names = _two_checks(monkeypatch, broken)
    assert cmd_dispatch(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL discretize.step_resolution: off by one" in out
    summary = json.loads(out.splitlines()[-1])
    assert summary["passed"] == 1
    assert summary["failed"] == 1
    assert [r["name"] for r in summary["results"]] == names
    failed = [r for r in summary["results"] if not r["passed"]]
    assert failed == [{"name": "discretize.step_resolution", "passed": False, "detail": "off by one"}]


# ----------------------------------------------------------------------
# runtime dependencies


def test_library_and_cli_import_no_scipy():
    # numpy is the only runtime dependency (README, pyproject.toml); the
    # tests use scipy as a reference, so the check runs in a fresh interpreter
    src = str(Path(chimera2d.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, chimera2d, chimera2d.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
