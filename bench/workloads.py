"""Benchmark workloads: synthetic panels with planted groups and their fit schedules.

Every panel comes from ``trcrp.model.simulate`` with a planted outer
partition, then has a share of its modelled cells masked.  Inputs derive
only from ``(seed, rep)``: the same pair always gives the same panel and the
same chain seed.  Each repetition of a run uses a fresh pair, so a run's
average covers many inputs: a single MCMC path's cost swings by tens of
percent with the regime count it wanders into.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from trcrp.conjugate import NigHyper
from trcrp.engine import RunConfig
from trcrp.model import SeriesHypers, simulate
from trcrp.panel import TimeSeriesPanel


@dataclass(frozen=True)
class Workload:
    """One panel family, the fit schedule run on it, and the queries served after."""

    name: str
    num_steps: int
    window: int
    groups: tuple[int, ...]  # planted outer assignment, labels 1..M
    missing: float  # share of modelled cells masked
    sim_hyper: tuple[float, float, float, float]  # NIG cell of every series and lag
    fit: dict = field(default_factory=dict)  # RunConfig fields besides window and seed
    horizon: int = 10
    forecast_draws: int = 100
    impute_draws: int = 200

    @property
    def num_series(self) -> int:
        return len(self.groups)

    def config(self, seed: int, rep: int) -> RunConfig:
        chain_seed = int(np.random.SeedSequence([seed, rep, 1]).generate_state(1)[0])
        return RunConfig(window=self.window, seed=chain_seed, threads=1, **self.fit)


# Regime means drawn close together (V = 0.05) with tightly shared variances
# (a = b = 20): regimes overlap, so MH proposals often move and the fitted
# regime count follows the sampler more than the panel.  With the CLI's
# default cell (0, 1, 2, 1) the planted regime count ranged from 1 to 18 and
# fit time varied with a CV near 50% between panels, against about 20% here.
OVERLAPPING = (0.0, 0.05, 20.0, 20.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit_hypers",
            num_steps=60,
            window=3,
            groups=(1, 1, 2, 2),
            missing=0.05,
            sim_hyper=OVERLAPPING,
            fit=dict(chains=1, burnin=2, init_sweeps=1, particles=16),
        ),
        Workload(
            name="fit_mh",
            num_steps=100,
            window=3,
            groups=(1, 1, 2, 2),
            missing=0.10,
            sim_hyper=OVERLAPPING,
            fit=dict(
                chains=1,
                burnin=1,
                init_sweeps=0,
                particles=8,
                fixed_hypers=(0.0, 1.0, 2.0, 1.0),
            ),
        ),
        Workload(
            name="init_query",
            num_steps=60,
            window=3,
            groups=(1, 1, 1, 2, 2, 2),
            missing=0.10,
            sim_hyper=OVERLAPPING,
            fit=dict(chains=4, burnin=0, particles=8),
            forecast_draws=100,
            impute_draws=500,
        ),
    )
}


def build_panel(workload: Workload, seed: int, rep: int) -> TimeSeriesPanel:
    """Simulate the planted panel for ``(seed, rep)`` and mask a fixed count of cells."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, rep, 0]))
    cell = NigHyper(*workload.sim_hyper)
    num, p, steps = workload.num_series, workload.window, workload.num_steps
    hypers = [SeriesHypers(cell, tuple(cell for _ in range(p))) for _ in range(num)]
    prefix = cell.m + np.sqrt(cell.b / cell.a) * rng.standard_normal((num, p))
    sim = simulate(steps, p, prefix, hypers, rng, alpha=1.0, assignments=list(workload.groups))
    # the same count of missing cells in every panel, so imputation work does not vary
    hidden = rng.choice(num * steps, size=round(workload.missing * num * steps), replace=False)
    observed = np.ones((num, p + steps), dtype=bool)
    observed[:, p:].flat[hidden] = False
    values = np.where(observed, sim.panel.values, np.nan)
    return TimeSeriesPanel(
        values=values,
        observed=observed,
        window=p,
        series_names=sim.panel.series_names,
        raw_labels=sim.panel.raw_labels,
    )
