"""Tests of the benchmark itself: inputs, metric names, smoke-sized runs."""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, build_panel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload):
    """The workload's shape at a size that fits and queries in well under a second."""
    fit = dict(workload.fit, chains=1, particles=4, burnin=min(workload.fit["burnin"], 2))
    return replace(workload, num_steps=12, fit=fit, forecast_draws=5, impute_draws=5)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    workload = WORKLOADS[name]
    a, b, other = (build_panel(workload, seed, 0) for seed in (7, 7, 8))
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert np.array_equal(a.observed, b.observed)
    assert not np.array_equal(a.values, other.values, equal_nan=True)
    assert workload.config(7, 0) == workload.config(7, 0) != workload.config(8, 0)
    expected_missing = round(workload.missing * workload.num_series * workload.num_steps)
    assert len(a.missing_cells()) == expected_missing


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_every_metric_and_no_failure(name, trace, tmp_path):
    result = measure.run(smoke(WORKLOADS[name]), seed=3, seconds=0.01, trace=trace, workdir=tmp_path)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == (7 if trace else 5)
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(math.isfinite(v) for v in result["metrics"].values())
    assert list(tmp_path.iterdir()) == []


def test_layer_counts_follow_the_schedule(tmp_path):
    result = measure.run(smoke(WORKLOADS["init_query"]), seed=3, seconds=0.01, trace=True, workdir=tmp_path)
    metrics = result["metrics"]
    assert metrics["hypers.hyper_sweep.calls"] == 0
    assert metrics["mcmc.sweep_z.calls"] == 0
    assert metrics["smc.smc_step.calls"] == 12 * metrics["model.groups"]


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 3
    assert totals["outer"]["self"] + totals["inner"]["total"] == pytest.approx(totals["outer"]["total"])
    assert tracer.results("inner") == [sum(range(1000))] * 3


def test_installed_restores_originals_and_reports_absent_layers(monkeypatch):
    import trcrp.mcmc

    original = trcrp.mcmc.sweep_z
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (("trcrp.mcmc", "gone", "mcmc.gone"),))
    with tracing.installed(tracing.Tracer()) as absent:
        assert trcrp.mcmc.sweep_z is not original
    assert absent == ["trcrp.mcmc.gone"]
    assert trcrp.mcmc.sweep_z is original


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit_mh", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
