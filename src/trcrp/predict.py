"""Posterior predictive operations over a set of inferred chains.

A SampleSet is S independent chain states sharing one panel.  Forecasts are
ancestral rollouts of the generative step under a uniformly drawn chain;
imputations sample the collapsed emission predictive of the regime each chain
assigned to the missing cell; dependence probabilities average same-cluster
indicators across chains.

The model's missing-data rule holds here too: an unobserved cell contributes
no lag factor, no emission factor and no statistics.  A rollout reads the
panel mask as it stands, so an in-sample missing cell in the last lag window
is a skipped lag, which is the model's exact posterior predictive.  A
forecast or imputation with a non-finite draw raises
:class:`~trcrp.smc.NumericalError` instead of returning it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ChainState
from .panel import TimeSeriesPanel
from .smc import NumericalError

__all__ = [
    "SampleSet",
    "ForecastResult",
    "ImputationResult",
    "forecast",
    "impute",
    "dependence_probability",
    "dependence_matrix",
]

QUANTILES = (0.05, 0.25, 0.75, 0.95)


@dataclass
class SampleSet:
    """S chain states with provenance; the unit predictive averages run over."""

    panel: TimeSeriesPanel
    chains: list[ChainState]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.chains:
            raise ValueError("need at least one chain")

    @property
    def num_chains(self) -> int:
        return len(self.chains)


@dataclass
class ForecastResult:
    series_names: tuple[str, ...]
    horizon: int
    draws: np.ndarray  # (R, N, horizon)

    def summary(self) -> dict:
        """Per-series per-step mean and equal-tailed central intervals."""
        out = {}
        for idx, name in enumerate(self.series_names):
            block = self.draws[:, idx, :]
            qs = np.quantile(block, QUANTILES, axis=0)
            out[name] = {
                "mean": block.mean(axis=0).tolist(),
                "q05": qs[0].tolist(),
                "q25": qs[1].tolist(),
                "q75": qs[2].tolist(),
                "q95": qs[3].tolist(),
            }
        return out


@dataclass
class ImputationResult:
    cells: list[tuple[int, int]]  # (series, time), panel coordinates
    draws: np.ndarray  # (len(cells), R)
    series_names: tuple[str, ...]
    time_labels: tuple[str, ...]

    def summary(self) -> dict:
        out = {}
        for idx, (n, t) in enumerate(self.cells):
            row = self.draws[idx]
            qs = np.quantile(row, QUANTILES) if row.size else [math.nan] * 4
            out[f"{self.series_names[n]}@{self.time_labels[t - 1]}"] = {
                "series": self.series_names[n],
                "time": self.time_labels[t - 1],
                "mean": float(row.mean()),
                "sd": float(row.std(ddof=0)),
                "q05": float(qs[0]),
                "q25": float(qs[1]),
                "q75": float(qs[2]),
                "q95": float(qs[3]),
            }
        return out


def _require_finite(draws: np.ndarray, what: str) -> None:
    bad = int(draws.size - np.isfinite(draws).sum())
    if bad:
        raise NumericalError(f"{bad} of {draws.size} {what} draws are not finite")


def forecast(samples: SampleSet, horizon: int, draws: int, seed: int) -> ForecastResult:
    """Ancestral forecasts over an h-step horizon.

    Each draw picks a chain uniformly, then simulates the generative step
    forward within every group: one shared regime per group per future step,
    emissions from the collapsed predictives, statistics updated with each
    simulated value.  Draws are independent given the seed.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if draws < 1:
        raise ValueError("need at least one draw")
    panel = samples.panel
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    num = panel.num_series
    steps = panel.num_steps
    p = panel.window
    out = np.empty((draws, num, horizon))
    ext_observed = np.ones((num, p + steps + horizon), dtype=bool)
    ext_observed[:, : p + steps] = panel.observed
    future_steps = range(steps + 1, steps + horizon + 1)
    for r in range(draws):
        s_idx = int(rng.integers(samples.num_chains))
        chain = samples.chains[s_idx]
        ext_values = np.zeros((num, p + steps + horizon))
        ext_values[:, : p + steps] = panel.values
        try:
            for group in chain.groups:
                future = group.clone()
                future.num_steps = steps + horizon
                future.regimes.z = future.regimes.z + [0] * horizon
                future.rollout(future_steps, ext_values, ext_observed, rng, emit=True)
        except ValueError as exc:  # an extreme draw gave a posterior a non-finite parameter
            raise NumericalError(f"forecast draw {r}: {exc}") from None
        out[r] = ext_values[:, p + steps :]
    _require_finite(out, "forecast")
    return ForecastResult(
        series_names=panel.series_names,
        horizon=horizon,
        draws=out,
    )


def impute(samples: SampleSet, draws: int, seed: int) -> ImputationResult:
    """Draws from the posterior mixture over each missing cell.

    Each draw picks a chain, reads the regime that chain assigned to the
    cell's time step within the series' group, and samples the collapsed
    emission predictive of that (series, regime) cell.  A fully observed
    panel yields an empty result.
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    panel = samples.panel
    cells = panel.missing_cells()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = np.empty((len(cells), draws))
    for r in range(draws):
        s_idx = int(rng.integers(samples.num_chains))
        chain = samples.chains[s_idx]
        for ci, (n, t) in enumerate(cells):
            group = chain.group_of(n)
            out[ci, r] = group.sample_emission(n, group.regimes.z[t - 1], rng)
    _require_finite(out, "imputation")
    return ImputationResult(
        cells=cells,
        draws=out,
        series_names=panel.series_names,
        time_labels=panel.time_labels,
    )


def dependence_probability(samples: SampleSet, i: int, k: int) -> float:
    """Fraction of chains placing series i and k in the same group (1 when i == k)."""
    if i == k:
        return 1.0
    hits = sum(1 for chain in samples.chains if chain.assignments[i] == chain.assignments[k])
    return hits / samples.num_chains


def dependence_matrix(samples: SampleSet) -> np.ndarray:
    """Symmetric matrix of pairwise dependence probabilities with unit diagonal."""
    num = samples.panel.num_series
    out = np.eye(num)
    for i in range(num):
        for k in range(i + 1, num):
            out[i, k] = out[k, i] = dependence_probability(samples, i, k)
    return out
