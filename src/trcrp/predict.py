"""Posterior predictive operations over a set of inferred chains.

A SampleSet is S independent chain states sharing one panel.  Forecasts are
ancestral rollouts of the generative step under a uniformly drawn chain;
imputations sample the collapsed emission predictive of the regime each chain
assigned to the missing cell; dependence probabilities average same-cluster
indicators across chains.

Both sampled queries draw every draw's chain first, in one call, and then
serve each chain's R_s draws as arrays over draws.  Given its chain, a fitted
group's future does not depend on the chain's other groups, so a forecast
steps many groups, of all chains, through the horizon as one
:class:`~trcrp.smc.ParticleSet`.  The groups whose chains share their hypers
and which have equal member counts share a set, up to
:data:`~trcrp.smc.SET_ENTRIES` copy-cell entries; equal member counts leave
a set no padding cells.  Each group of a set has J copies, the largest R_s
among the set's chains: its first R_s are its chain's draws, and the others
pad the set, step with it and are never checked or returned.  Per step a
set makes one kernel call over the lag cells, one Gumbel argmax, one
Student-T call for the members' emissions and one fold.  The sets run in
the order of their first group over (chain, group), so a set of one group
makes the Generator calls of a group forecast alone.  An imputation computes
each (chain, cell) emission predictive once and draws the chain's (cells,
R_s) block in one Student-T call.  Draw r keeps one chain for all of its
groups and cells.

The model's missing-data rule holds here too: an unobserved cell contributes
no lag factor, no emission factor and no statistics.  A rollout reads the
panel mask as it stands, so an in-sample missing cell in the last lag window
is a skipped lag, which is the model's exact posterior predictive; a future
lag reads the copy's own draw.  A forecast or imputation with a non-finite
weight or draw raises :class:`~trcrp.smc.NumericalError` instead of
returning it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import smc
from .conjugate import LgammaTable, predictive_sample_array
from .model import ChainState
from .panel import TimeSeriesPanel
from .smc import NumericalError, ParticleSet

__all__ = [
    "SampleSet",
    "ForecastResult",
    "ImputationResult",
    "forecast",
    "impute",
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
        qs = np.quantile(self.draws, QUANTILES, axis=0).tolist()
        # means per series: numpy sums a (R, N, 1) array's R in another order
        # than a series' (R, 1) slice, which moves ulps at horizon 1
        return {
            name: {"mean": self.draws[:, idx, :].mean(axis=0).tolist()}
            | {key: q[idx] for key, q in zip(("q05", "q25", "q75", "q95"), qs)}
            for idx, name in enumerate(self.series_names)
        }


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


def _forecast_set(groups, values, observed, lgamma, copies, rng) -> np.ndarray:
    """Forecasts of the fitted ``groups``' members: (G, J, members, h), J = max(copies).

    The groups share their hypers and member count, so the set has no
    padding cells.  ``values`` and ``observed`` extend the panel by the h
    future columns, with 0 at every unobserved or future value and the
    future observed, and ``lgamma`` is a table over their T+h steps.  Group
    g's first ``copies[g]`` copies are its real ones; the rest pad it to J
    and are never checked or returned.  Each copy keeps its own row of its
    group's member values, so a lag into the future reads that copy's draws.
    """
    num = max(copies)
    ps = ParticleSet(groups, values, observed, lgamma, num)
    members, p, steps = len(groups[0].members), groups[0].window, groups[0].num_steps
    # every group's cells are its members' lags, member by member, then their emissions
    series = np.r_[np.repeat(np.arange(members), p), np.arange(members)]
    offset = np.r_[np.tile(np.arange(1, p + 1), members), np.zeros(members, dtype=np.int64)]
    own = np.repeat(values[[g.members for g in groups]], num, axis=0)  # (G*J, members, columns)
    emission = slice(ps.num_lags, None)
    hyper = tuple(h[:, emission] for h in ps.hyper)
    every = np.arange(len(ps))
    real = slice(None) if min(copies) == num else (np.arange(num) < np.array(copies)[:, None]).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps + 1, values.shape[1] - p + 1):
            col = p + t - 1
            base, _ = ps.log_weights_split(t, own[:, series, col - offset], emission=False)
            if np.isnan(base[real]).any():
                raise NumericalError(f"forecast step {t - steps}: regime weights are not finite")
            pick = np.argmax(base + rng.gumbel(size=base.shape), axis=1)
            stats = (s[every, emission, pick] for s in (ps.count, ps.total, ps.total_sq))
            own[:, :, col] = predictive_sample_array(*hyper, *stats, rng)
            _require_finite(own[real, :, col], f"step {t - steps} forecast")
            ps.assign(t, pick, own[:, series, col - offset])
    return own[:, :, p + steps :].reshape(len(groups), num, members, -1)


def _forecast_sets(samples: SampleSet, picked) -> list[list[tuple]]:
    """The particle sets of a forecast: lists of ``(chain index, group)``.

    Every group of a chain with draws is in one set.  A set's groups share
    their chain's hypers and their member count; a group joins the last set
    of its kind while the set stays within :data:`~trcrp.smc.SET_ENTRIES`
    copy-cell entries, and otherwise starts a new one.  Sets come in the
    order of their first group over (chain, group).
    """
    kinds, last, sets = [], {}, []
    cells = samples.panel.window + 1  # per member
    for s, chain in enumerate(samples.chains):
        if not picked[s].size:
            continue
        if chain.hypers not in kinds:
            kinds.append(chain.hypers)
        kind = kinds.index(chain.hypers)
        for group in chain.groups:
            key = kind, len(group.members)
            run = last.get(key)
            if run is not None:
                num = max(picked[i].size for i, _ in [*run, (s, group)])
                if num * (len(run) + 1) * len(group.members) * cells <= smc.SET_ENTRIES:
                    run.append((s, group))
                    continue
            last[key] = [(s, group)]
            sets.append(last[key])
    return sets


def forecast(samples: SampleSet, horizon: int, draws: int, seed: int) -> ForecastResult:
    """Ancestral forecasts over an h-step horizon.

    Each draw picks a chain uniformly, then simulates the generative step
    forward within every group: one shared regime per group per future step,
    emissions from the collapsed predictives, statistics updated with each
    simulated value.  Draws are independent given the seed; the groups of
    all chains run in shared particle sets (see the module notes).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if draws < 1:
        raise ValueError("need at least one draw")
    panel = samples.panel
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    num = panel.num_series
    known = panel.window + panel.num_steps
    values = np.zeros((num, known + horizon))
    values[:, :known] = np.where(panel.observed, panel.values, 0.0)
    observed = np.ones((num, known + horizon), dtype=bool)
    observed[:, :known] = panel.observed
    chain_of = rng.integers(samples.num_chains, size=draws)
    picked = [np.flatnonzero(chain_of == s) for s in range(samples.num_chains)]
    out = np.empty((draws, num, horizon))
    lgamma = LgammaTable(panel.num_steps + horizon)
    for run in _forecast_sets(samples, picked):
        groups = [group for _, group in run]
        copies = [picked[s].size for s, _ in run]
        blocks = _forecast_set(groups, values, observed, lgamma, copies, rng)
        for (s, group), block in zip(run, blocks):
            out[np.ix_(picked[s], group.members)] = block[: picked[s].size]
    return ForecastResult(
        series_names=panel.series_names,
        horizon=horizon,
        draws=out,
    )


def impute(samples: SampleSet, draws: int, seed: int) -> ImputationResult:
    """Draws from the posterior mixture over each missing cell.

    Each draw picks a chain, reads the regime that chain assigned to the
    cell's time step within the series' group, and samples the collapsed
    emission predictive of that (series, regime) cell.  A chain's draws of
    all cells come from one Student-T call.  A fully observed panel yields
    an empty result.
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    panel = samples.panel
    cells = panel.missing_cells()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    chain_of = rng.integers(samples.num_chains, size=draws)
    out = np.empty((len(cells), draws))
    for s, chain in enumerate(samples.chains):
        picked = np.flatnonzero(chain_of == s)
        if not (picked.size and cells):
            continue
        rows = []
        labels = chain.assignments
        for n, t in cells:
            group = chain.groups[labels[n] - 1]
            h = group.hypers[n].emission
            stats = group.cells[n][group.regimes.z[t - 1] - 1][0]
            rows.append((h.m, h.V, h.a, h.b, stats.count, stats.sum, stats.sum_sq))
        params = np.array(rows).T[:, :, None]  # seven (cells, 1) columns
        out[:, picked] = predictive_sample_array(*params, rng, size=(len(cells), picked.size))
    _require_finite(out, "imputation")
    return ImputationResult(
        cells=cells,
        draws=out,
        series_names=panel.series_names,
        time_labels=panel.time_labels,
    )


def dependence_matrix(samples: SampleSet) -> np.ndarray:
    """Symmetric matrix of pairwise dependence probabilities: entry (i, k) is the
    fraction of chains placing series i and k in the same group (1 when i == k)."""
    labels = np.array([chain.assignments for chain in samples.chains])  # (S, N)
    return (labels[:, :, None] == labels[:, None, :]).mean(axis=0)
