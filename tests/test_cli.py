"""CLI surface: commands, file formats, exit codes."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from trcrp import engine
from trcrp.cli import main
from trcrp.model import state_from_payload
from trcrp.panel import load_csv


@pytest.fixture
def runner():
    return CliRunner()


def write_panel_csv(path, rng, num_series=2, rows=18, missing=()):
    lines = ["time," + ",".join(f"s{i}" for i in range(num_series))]
    base = np.sin(np.arange(rows) / 3.0)
    values = [base + rng.normal(scale=0.2, size=rows) for _ in range(num_series)]
    for n, r in missing:
        values[n][r] = None
    for r in range(rows):
        cells = ["" if values[n][r] is None or np.isnan(values[n][r]) else f"{values[n][r]:.6f}"
                 for n in range(num_series)]
        lines.append(f"r{r:03d}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


def run_fit(runner, tmp_path, rng, missing=(), extra=()):
    data = write_panel_csv(tmp_path / "data.csv", rng, missing=missing)
    out = tmp_path / "samples.json"
    args = [
        "fit", "--data", str(data), "--out", str(out), "--window", "1",
        "--chains", "2", "--burnin", "6", "--particles", "8", "--seed", "3",
        "--init-sweeps", "2", "--hyper-cadence", "3", *extra,
    ]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return data, out


def test_fit_writes_sampleset_and_provenance(runner, tmp_path, rng):
    _, out = run_fit(runner, tmp_path, rng, missing=[(0, 9)])
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 3
    assert len(doc["chains"]) == 2
    assert "config_hash" in doc
    sidecar = json.loads((tmp_path / "samples.json.provenance.json").read_text())
    assert sidecar["config_hash"] == doc["config_hash"]
    assert sidecar["wall_time_s"] > 0


def test_fit_byte_reproducible(runner, tmp_path, rng):
    data = write_panel_csv(tmp_path / "data.csv", rng)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        result = runner.invoke(main, [
            "fit", "--data", str(data), "--out", str(out), "--window", "1",
            "--chains", "2", "--burnin", "5", "--seed", "7",
        ], catch_exceptions=False)
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_fit_bad_data_exit_3(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,a\nr0,1.0\nr1,oops\n")
    result = runner.invoke(main, ["fit", "--data", str(bad), "--out", str(tmp_path / "o.json")])
    assert result.exit_code == 3


def test_fit_usage_error_exit_2(runner, tmp_path, rng):
    data = write_panel_csv(tmp_path / "data.csv", rng)
    result = runner.invoke(main, [
        "fit", "--data", str(data), "--out", str(tmp_path / "o.json"), "--chains", "0",
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--window", "-1"),
        ("--burnin", "-1"),
        ("--particles", "0"),
        ("--threads", "0"),
        ("--init-sweeps", "-1"),
        ("--hyper-cadence", "-1"),
    ],
)
def test_fit_out_of_range_option_exit_2(runner, tmp_path, rng, flag, value):
    data = write_panel_csv(tmp_path / "data.csv", rng)
    out = tmp_path / "o.json"
    result = runner.invoke(main, [
        "fit", "--data", str(data), "--out", str(out), "--window", "1", "--chains", "1",
        "--burnin", "0", "--particles", "2", flag, value,
    ])
    assert result.exit_code == 2, result.output
    assert f"{flag} must be" in result.output
    assert not out.exists()


def test_fit_non_finite_log_joint_dumps_state_exit_4(runner, tmp_path, rng, monkeypatch):
    monkeypatch.setattr(engine, "log_joint", lambda state: float("nan"))
    data = write_panel_csv(tmp_path / "data.csv", rng)
    out = tmp_path / "samples.json"
    result = runner.invoke(main, [
        "fit", "--data", str(data), "--out", str(out), "--window", "1", "--chains", "2",
        "--burnin", "2", "--particles", "4",
    ])
    assert result.exit_code == 4, result.output
    assert not out.exists()
    payload = json.loads((tmp_path / "samples.json.diagnostic.json").read_text())
    state_from_payload(payload, load_csv(data, 1)).check_consistency()


def test_non_finite_predictive_draws_exit_4(runner, tmp_path):
    # A constant series and one missing after the prefix both get an NIG
    # shape grid on [1e-6, 1e-4] (see build_grids), so their emission
    # predictives have about 1e-5 degrees of freedom and draw inf.
    data = tmp_path / "data.csv"
    rows = ["time,flat,gone"] + [f"r{r:02d},1.0,{'0.5' if r == 0 else ''}" for r in range(12)]
    data.write_text("\n".join(rows) + "\n")
    samples = tmp_path / "samples.json"
    result = runner.invoke(main, [
        "fit", "--data", str(data), "--out", str(samples), "--window", "1",
        "--chains", "2", "--burnin", "3", "--particles", "4",
    ])
    assert result.exit_code == 0, result.output
    for command, what in (("forecast", "forecast"), ("impute", "imputation")):
        out = tmp_path / f"{command}.csv"
        result = runner.invoke(main, [command, str(samples), "--draws", "10", "--out", str(out)])
        assert result.exit_code == 4, result.output
        assert f"{what} failed" in result.output
        assert not out.exists()


def test_forecast_outputs(runner, tmp_path, rng):
    _, samples = run_fit(runner, tmp_path, rng)
    out = tmp_path / "fc.csv"
    result = runner.invoke(main, [
        "forecast", str(samples), "--horizon", "4", "--draws", "10",
        "--seed", "5", "--out", str(out),
    ], catch_exceptions=False)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash:")
    assert lines[1] == "series,time,draw,value"
    assert len(lines) == 2 + 10 * 2 * 4
    summary = json.loads((tmp_path / "fc.csv.summary.json").read_text())
    assert len(summary["series"]["s0"]["mean"]) == 4


def test_forecast_zero_horizon_rejected(runner, tmp_path, rng):
    _, samples = run_fit(runner, tmp_path, rng)
    result = runner.invoke(main, [
        "forecast", str(samples), "--horizon", "0", "--out", str(tmp_path / "x.csv"),
    ])
    assert result.exit_code == 2


def test_forecast_reproducible(runner, tmp_path, rng):
    _, samples = run_fit(runner, tmp_path, rng)
    blobs = []
    for name in ("f1.csv", "f2.csv"):
        out = tmp_path / name
        result = runner.invoke(main, [
            "forecast", str(samples), "--horizon", "3", "--draws", "5",
            "--seed", "9", "--out", str(out),
        ], catch_exceptions=False)
        assert result.exit_code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_impute_missing_cells(runner, tmp_path, rng):
    _, samples = run_fit(runner, tmp_path, rng, missing=[(0, 9), (1, 12)])
    out = tmp_path / "imp.csv"
    result = runner.invoke(main, [
        "impute", str(samples), "--draws", "7", "--seed", "2", "--out", str(out),
    ], catch_exceptions=False)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "series,time,draw,value"
    assert len(lines) == 2 + 2 * 7
    summary = json.loads((tmp_path / "imp.csv.summary.json").read_text())
    assert len(summary["cells"]) == 2


def test_impute_fully_observed_writes_header_only(runner, tmp_path, rng):
    _, samples = run_fit(runner, tmp_path, rng)
    out = tmp_path / "imp.csv"
    result = runner.invoke(main, [
        "impute", str(samples), "--out", str(out),
    ], catch_exceptions=False)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "series,time,draw,value"


def test_depprob_matrix(runner, tmp_path, rng):
    _, samples = run_fit(runner, tmp_path, rng)
    out = tmp_path / "dp.csv"
    result = runner.invoke(main, ["depprob", str(samples), "--out", str(out)],
                           catch_exceptions=False)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "series,s0,s1"
    assert len(lines) == 4


def test_depprob_single_series(runner, tmp_path, rng):
    data = tmp_path / "one.csv"
    rows = ["time,a"] + [f"r{i},{np.sin(i / 3.0):.4f}" for i in range(12)]
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "samples.json"
    result = runner.invoke(main, [
        "fit", "--data", str(data), "--out", str(out), "--window", "1",
        "--chains", "1", "--burnin", "3",
    ], catch_exceptions=False)
    assert result.exit_code == 0
    dp = tmp_path / "dp.csv"
    result = runner.invoke(main, ["depprob", str(out), "--out", str(dp)],
                           catch_exceptions=False)
    assert result.exit_code == 0
    lines = dp.read_text().splitlines()
    assert lines[1] == "series,a"
    assert lines[2] == "a,1.0"


def test_depprob_schema_mismatch_exit_3(runner, tmp_path, rng):
    _, samples = run_fit(runner, tmp_path, rng)
    doc = json.loads(samples.read_text())
    doc["schema_version"] = 42
    samples.write_text(json.dumps(doc))
    result = runner.invoke(main, ["depprob", str(samples), "--out", str(tmp_path / "d.csv")])
    assert result.exit_code == 3


def _unknown_config_key(doc):
    doc["config"]["colour"] = "blue"


def _null_config(doc):
    doc["config"] = None


def _short_sequence(doc):
    doc["chains"][0]["groups"][0]["z"].pop()


def _member_out_of_range(doc):
    doc["chains"][0]["groups"][0]["members"][0] = len(doc["panel"]["series_names"])


def _empty_regimes(doc):
    group = doc["chains"][0]["groups"][0]
    group["z"] = [5] * len(group["z"])


def _negative_scale(doc):
    doc["chains"][0]["hypers"][0]["emission"][1] = -1.0


def _missing_lag_cell(doc):
    doc["chains"][0]["hypers"][0]["cohesion"].pop()


def _zero_concentration(doc):
    doc["chains"][0]["groups"][0]["alpha"] = 0.0


def _three_number_emission_cell(doc):
    doc["chains"][0]["hypers"][0]["emission"].pop()


def _unknown_rng_kind(doc):
    doc["chains"][0]["rng"]["kind"] = "NoSuchBitGenerator"


def _integer_sequence(doc):
    doc["chains"][0]["groups"][0]["z"] = 1


def _string_hyper_value(doc):
    doc["chains"][0]["hypers"][0]["cohesion"][0][2] = "2.0"


def _null_alpha0(doc):
    doc["chains"][0]["alpha0"] = None


@pytest.mark.parametrize(
    "corrupt",
    [
        _unknown_config_key,
        _null_config,
        _short_sequence,
        _member_out_of_range,
        _empty_regimes,
        _negative_scale,
        _missing_lag_cell,
        _zero_concentration,
        _three_number_emission_cell,
        _unknown_rng_kind,
        _integer_sequence,
        _string_hyper_value,
        _null_alpha0,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_malformed_sampleset_exit_3(runner, tmp_path, rng, corrupt):
    _, samples = run_fit(runner, tmp_path, rng)
    doc = json.loads(samples.read_text())
    corrupt(doc)
    samples.write_text(json.dumps(doc))
    result = runner.invoke(main, [
        "forecast", str(samples), "--horizon", "3", "--draws", "10",
        "--out", str(tmp_path / "fc.csv"),
    ])
    assert result.exit_code == 3, result.output
    assert "cannot read sample set" in result.output


def test_simulate_round_trips_through_fit(runner, tmp_path):
    out = tmp_path / "sim.csv"
    result = runner.invoke(main, [
        "simulate", "--out", str(out), "--series", "4", "--steps", "30",
        "--window", "1", "--seed", "6", "--groups", "1,1,2,2", "--alpha", "1.0",
    ], catch_exceptions=False)
    assert result.exit_code == 0
    latents = json.loads((tmp_path / "sim.csv.latents.json").read_text())
    assert latents["num_groups"] == 2
    assert len(latents["group_z"]) == 2
    panel = load_csv(out, window=1)
    assert panel.num_series == 4 and panel.num_steps == 30
    fit_out = tmp_path / "fitted.json"
    result = runner.invoke(main, [
        "fit", "--data", str(out), "--out", str(fit_out), "--window", "1",
        "--chains", "1", "--burnin", "3",
    ], catch_exceptions=False)
    assert result.exit_code == 0


def test_simulate_deterministic(runner, tmp_path):
    blobs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        result = runner.invoke(main, [
            "simulate", "--out", str(out), "--series", "2", "--steps", "15",
            "--window", "1", "--seed", "13",
        ], catch_exceptions=False)
        assert result.exit_code == 0
        blobs.append(out.read_text().splitlines()[1:])  # skip hash line
    assert blobs[0] == blobs[1]


def test_simulate_bad_groups_rejected(runner, tmp_path):
    result = runner.invoke(main, [
        "simulate", "--out", str(tmp_path / "s.csv"), "--series", "3", "--groups", "1,3,1",
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--alpha", "0"), ("--alpha", "-1"), ("--alpha0", "0"), ("--hyper", "0 0 1 1")],
)
def test_simulate_out_of_range_option_exit_2(runner, tmp_path, flag, value):
    out = tmp_path / "s.csv"
    result = runner.invoke(main, ["simulate", "--out", str(out), flag, *value.split()])
    assert result.exit_code == 2, result.output
    assert f"{flag} " in result.output
    assert not out.exists()


def test_inspect_grids(runner, tmp_path, rng):
    data = write_panel_csv(tmp_path / "data.csv", rng)
    result = runner.invoke(main, [
        "inspect-grids", "--data", str(data), "--window", "1",
    ], catch_exceptions=False)
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert len(doc["grids"]["alpha0"]["points"]) == 30
    assert doc["grids"]["series"][0]["b"]["points"][0] == 1.0
