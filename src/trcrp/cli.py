"""Command-line surface: fit, forecast, impute, depprob, simulate, inspect-grids.

Exit codes: 0 ok, 2 usage, 3 data error (including any malformed sample
set), 4 numerical failure.  ``fit`` runs its first ``--init-sweeps`` sweeps
always-accept and every later one as full MH, so ``--init-sweeps`` at or above
``--burnin`` gives a heuristic-only fit.  Every output file embeds a hash of
the command's inputs (:func:`trcrp.engine.config_hash`; a JSON field, or a
leading ``#`` comment line in CSVs); re-running a command with the same inputs
and seed reproduces outputs byte-exactly, whatever the number of fit threads.
A sample set's hash, which ``fit`` prints and the queries build on, covers its
panel and its fit config except the thread count
(:func:`trcrp.engine.sampleset_hash`), recomputed from the file on every load.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time

import click
import numpy as np

from . import predict
from .conjugate import NigHyper
from .engine import (
    RunConfig,
    SchemaVersionError,
    config_hash,
    fit,
    load_sampleset,
    panel_digest,
    save_sampleset,
)
from .hypers import build_grids, grids_payload
from .model import SeriesHypers, simulate
from .panel import PanelError, load_csv, write_csv
from .smc import NumericalError

EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_samples(path):
    try:
        return load_sampleset(path)
    except SchemaVersionError as exc:
        _fail(EXIT_DATA, str(exc))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        _fail(EXIT_DATA, f"cannot read sample set {path}: {exc}")


@click.group()
def main():
    """Temporally-reweighted CRP mixture: inference and predictive queries."""


@main.command("fit")
@click.option("--data", required=True, type=click.Path(exists=True), help="wide CSV input")
@click.option("--out", required=True, type=click.Path(), help="sample-set JSON output")
@click.option("--window", default=10, show_default=True, type=int)
@click.option("--chains", default=64, show_default=True, type=int)
@click.option("--burnin", default=5000, show_default=True, type=int)
@click.option("--particles", default=64, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--threads", default=1, show_default=True, type=int)
@click.option("--hierarchical/--no-hierarchical", default=True, show_default=True)
@click.option("--init-sweeps", default=10, show_default=True, type=int)
@click.option("--hyper-cadence", default=1, show_default=True, type=int)
@click.option("--smc-init/--no-smc-init", default=True, show_default=True)
def cmd_fit(data, out, window, chains, burnin, particles, seed, threads,
            hierarchical, init_sweeps, hyper_cadence, smc_init):
    """Run S chains of posterior inference and write the sample set."""
    try:
        config = RunConfig(
            window=window,
            chains=chains,
            burnin=burnin,
            particles=particles,
            seed=seed,
            threads=threads,
            hierarchical=hierarchical,
            init_sweeps=init_sweeps,
            hyper_cadence=hyper_cadence,
            smc_init=smc_init,
        )
    except ValueError as exc:  # the message starts with the field name
        field, _, rule = str(exc).partition(" ")
        raise click.UsageError(f"--{field.replace('_', '-')} {rule}") from None
    try:
        panel = load_csv(data, window)
    except PanelError as exc:
        _fail(EXIT_DATA, str(exc))
    started = time.monotonic()
    try:
        samples = fit(panel, config)
    except (NumericalError, ValueError) as exc:
        message = f"inference failed: {exc}"
        if isinstance(exc, NumericalError) and len(exc.args) > 1:
            dump = f"{out}.diagnostic.json"
            with open(dump, "w") as fh:
                json.dump(exc.args[1], fh)
            message += f"; chain state dumped to {dump}"
        _fail(EXIT_NUMERICAL, message)
    digest = save_sampleset(samples, config, out)
    with open(f"{out}.provenance.json", "w") as fh:
        json.dump(
            {
                "config_hash": digest,
                "wall_time_s": time.monotonic() - started,
                "chains": config.chains,
                "data": str(data),
            },
            fh,
            indent=2,
        )
    click.echo(f"wrote {out} (config {digest}, {config.chains} chains)")


def _write_draw_csv(path, digest, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash: {digest}\n")
        writer = csv.writer(fh)
        writer.writerow(["series", "time", "draw", "value"])
        writer.writerows(rows)


@main.command("forecast")
@click.argument("sampleset", type=click.Path(exists=True))
@click.option("--horizon", default=10, show_default=True, type=int)
@click.option("--draws", default=500, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path())
def cmd_forecast(sampleset, horizon, draws, seed, out):
    """Ancestral forecasts; CSV of draws plus a JSON summary."""
    if horizon < 1:
        raise click.UsageError("--horizon must be >= 1")
    if draws < 1:
        raise click.UsageError("--draws must be >= 1")
    samples, _, fit_hash = _load_samples(sampleset)
    digest = config_hash(
        command="forecast", fit=fit_hash, horizon=horizon, draws=draws, seed=seed
    )
    try:
        result = predict.forecast(samples, horizon, draws, seed)
    except NumericalError as exc:
        _fail(EXIT_NUMERICAL, f"forecast failed: {exc}")
    steps = [f"+{h + 1}" for h in range(horizon)]
    rows = [  # csv writes a float as its repr
        [name, step, r, value]
        for r, per_series in enumerate(result.draws.tolist())
        for name, values in zip(result.series_names, per_series)
        for step, value in zip(steps, values)
    ]
    _write_draw_csv(out, digest, rows)
    with open(f"{out}.summary.json", "w") as fh:
        json.dump({"config_hash": digest, "horizon": horizon, "series": result.summary()}, fh)
    click.echo(f"wrote {out} ({draws} draws, horizon {horizon})")


@main.command("impute")
@click.argument("sampleset", type=click.Path(exists=True))
@click.option("--draws", default=100, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path())
def cmd_impute(sampleset, draws, seed, out):
    """Posterior draws for every missing cell; empty output if none are missing."""
    if draws < 1:
        raise click.UsageError("--draws must be >= 1")
    samples, _, fit_hash = _load_samples(sampleset)
    digest = config_hash(command="impute", fit=fit_hash, draws=draws, seed=seed)
    try:
        result = predict.impute(samples, draws, seed)
    except NumericalError as exc:
        _fail(EXIT_NUMERICAL, f"imputation failed: {exc}")
    rows = [  # csv writes a float as its repr
        [result.series_names[n], result.time_labels[t - 1], r, value]
        for (n, t), values in zip(result.cells, result.draws.tolist())
        for r, value in enumerate(values)
    ]
    _write_draw_csv(out, digest, rows)
    with open(f"{out}.summary.json", "w") as fh:
        json.dump({"config_hash": digest, "cells": result.summary()}, fh)
    click.echo(f"wrote {out} ({len(result.cells)} missing cells)")


@main.command("depprob")
@click.argument("sampleset", type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def cmd_depprob(sampleset, out):
    """Pairwise dependence-probability matrix as CSV (for heatmap rendering)."""
    samples, _, fit_hash = _load_samples(sampleset)
    digest = config_hash(command="depprob", fit=fit_hash)
    matrix = predict.dependence_matrix(samples)
    names = samples.panel.series_names
    with open(out, "w", newline="") as fh:
        fh.write(f"# config_hash: {digest}\n")
        writer = csv.writer(fh)
        writer.writerow(["series", *names])
        for i, name in enumerate(names):
            writer.writerow([name, *(repr(float(v)) for v in matrix[i])])
    click.echo(f"wrote {out} ({len(names)}x{len(names)})")


@main.command("simulate")
@click.option("--out", required=True, type=click.Path())
@click.option("--series", "num_series", default=3, show_default=True, type=int)
@click.option("--steps", default=100, show_default=True, type=int)
@click.option("--window", default=1, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--alpha", default=None, type=float, help="fixed group concentration (default: sampled)")
@click.option("--alpha0", default=1.0, show_default=True, type=float)
@click.option("--groups", default=None, help="planted assignment, e.g. 1,1,2 (default: CRP draw)")
@click.option("--hyper", nargs=4, default=(0.0, 1.0, 2.0, 1.0), show_default=True, type=float,
              help="NIG cell (m V a b) applied to every series and lag")
def cmd_simulate(out, num_series, steps, window, seed, alpha, alpha0, groups, hyper):
    """Sample a synthetic panel plus its latent regimes and clusters."""
    if num_series < 1 or steps < 1:
        raise click.UsageError("--series and --steps must be >= 1")
    if window < 0:
        raise click.UsageError("--window must be >= 0")
    if alpha is not None and not 0 < alpha < math.inf:
        raise click.UsageError("--alpha must be > 0 and finite")
    if not 0 < alpha0 < math.inf:
        raise click.UsageError("--alpha0 must be > 0 and finite")
    try:
        cell = NigHyper(*hyper)
    except ValueError as exc:
        raise click.UsageError(f"--hyper {exc}") from None
    assignments = None
    if groups is not None:
        try:
            assignments = [int(x) for x in groups.split(",")]
        except ValueError:
            raise click.UsageError(f"cannot parse --groups {groups!r}") from None
        if len(assignments) != num_series:
            raise click.UsageError("--groups length must equal --series")
        if sorted(set(assignments)) != list(range(1, max(assignments) + 1)):
            raise click.UsageError("--groups labels must be contiguous from 1")
    digest = config_hash(
        command="simulate", series=num_series, steps=steps, window=window, seed=seed,
        alpha=alpha, alpha0=alpha0, groups=assignments, hyper=list(hyper),
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    series_hypers = [
        SeriesHypers(cell, tuple(cell for _ in range(window))) for _ in range(num_series)
    ]
    prefix = np.array([
        [cell.m + rng.standard_normal() * (cell.b / cell.a) ** 0.5 for _ in range(window)]
        for _ in range(num_series)
    ])
    result = simulate(
        steps, window, prefix, series_hypers, rng,
        alpha=alpha, assignments=assignments, alpha0=alpha0,
    )
    write_csv(result.panel, out, header_comment=f"config_hash: {digest}")
    with open(f"{out}.latents.json", "w") as fh:
        json.dump(
            {
                "config_hash": digest,
                "assignments": result.assignments,
                "alpha0": result.alpha0,
                "group_alphas": result.group_alphas,
                "group_z": result.group_z,
                "num_groups": max(result.assignments),
            },
            fh,
        )
    click.echo(f"wrote {out} (groups: {max(result.assignments)})")


@main.command("inspect-grids")
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--window", default=10, show_default=True, type=int)
@click.option("--out", default=None, type=click.Path(), help="default: stdout")
def cmd_inspect_grids(data, window, out):
    """Dump the data-dependent hyperparameter grids for auditability."""
    if window < 0:
        raise click.UsageError("--window must be >= 0")
    try:
        panel = load_csv(data, window)
    except PanelError as exc:
        _fail(EXIT_DATA, str(exc))
    digest = config_hash(command="inspect-grids", data_panel=panel_digest(panel), window=window)
    doc = {"config_hash": digest, "grids": grids_payload(build_grids(panel))}
    text = json.dumps(doc, indent=2)
    if out is None:
        click.echo(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
