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
:class:`~trcrp.smc.ParticleSet`, whatever their hypers and member counts:
each entry of a set reads its own group's NIG cells.  The groups fill sets
in (chain, group) order up to :data:`~trcrp.smc.SET_ENTRIES` copy-cell
entries (:func:`~trcrp.smc.set_runs`), and a set holds each copy's own
cells only.  Each group of a set has J copies, the largest R_s among the
set's chains: its first R_s are its chain's draws, and the others pad the
set, step with it and are never checked or returned.  Per step a set makes one kernel call over the lag
cells, one Gumbel argmax, one Student-T call for the members' emissions and
one fold.  So the order of the groups fixes the order of the forecast's
Generator calls and its draws, and a set of one group makes the Generator
calls of a group forecast alone.  An imputation folds the emission
statistics of every (chain, cell) in one pass over the sequences and the
data, gathers each cell's statistics at its regime and its emission row of
the chain's hypers, and draws each chain's (cells, R_s) block with one
:func:`~trcrp.conjugate.predictive_sample_array` call.  Draw r keeps one
chain for all of its groups and cells.

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
from .model import ChainState, fold_stats
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


def _forecast_set(groups, values, observed, lgamma, copies, rng) -> list[np.ndarray]:
    """Forecasts of the fitted ``groups``' members: (J, members, h) per group, J = max(copies).

    ``values`` and ``observed`` extend the panel by the h future columns,
    with 0 at every unobserved or future value and the future observed, and
    ``lgamma`` is a table over their T+h steps.  Group g's first
    ``copies[g]`` copies are its real ones; the rest pad it to J and are
    never checked or returned.  Each copy keeps its own row of each member's
    values over the last p panel columns and the h future ones, in the order
    of the set's emission entries, so a lag into the future reads that
    copy's draws; every entry of the set reads its value from its copy's row
    of its series, shifted by its lag.
    """
    num = max(copies)
    ps = ParticleSet(groups, values, observed, lgamma, num)
    p, steps = groups[0].window, groups[0].num_steps
    series, offset = np.array(list(ps.cells.index)).T  # of each layout row
    emission = np.arange(ps.num_lags, len(ps.row))
    own = values[series[ps.row[emission]], steps:]  # one row per (copy, member), (rows, p+h)
    columns = own.shape[1]
    position = np.zeros((len(groups), len(values)), dtype=np.int64)  # of a series in its group
    for g, group in enumerate(groups):
        position[g, group.members] = range(len(group.members))
    # each entry's flat index into own, at column 0
    row = ps.first[1, ps.particle] - ps.num_lags + position[ps.particle // num, series[ps.row]]
    at = row * columns - offset[ps.row]
    lags = at[: ps.num_lags]
    hyper = tuple(h[emission] for h in ps.hyper)
    real = (np.arange(num) < np.array(copies)[:, None]).ravel()  # of each copy
    real_rows = real[ps.particle[emission]]
    flat = own.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(1, columns - p + 1):
            t, col = steps + h, p + h - 1
            base, _ = ps.log_weights_split(t, flat[lags + col], emission=False)
            if np.isnan(base[real]).any():
                raise NumericalError(f"forecast step {h}: regime weights are not finite")
            pick = np.argmax(base + rng.gumbel(size=base.shape), axis=1)
            drawn = pick[ps.particle[emission]]
            stats = (s[emission, drawn] for s in (ps.count, ps.total, ps.total_sq))
            own[:, col] = predictive_sample_array(*hyper, *stats, rng)
            _require_finite(own[real_rows, col], f"step {h} forecast")
            ps.assign(t, pick, flat[at + col])
    cuts = np.cumsum([num * len(group.members) for group in groups])[:-1]
    return [b.reshape(num, len(g.members), -1) for g, b in zip(groups, np.split(own[:, p:], cuts))]


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
    # the groups of the chains with draws, in (chain, group) order
    pairs = [(s, group) for s, chain in enumerate(samples.chains) if picked[s].size
             for group in chain.groups]
    for run in smc.set_runs([(picked[s].size, [group]) for s, group in pairs]):
        run = pairs[run]
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


def _emission_stats(panel: TimeSeriesPanel, chains, cells) -> list[tuple]:
    """Each chain's emission statistics of ``cells``: three (cells, 1) arrays per chain.

    Per cell: the count, sum and sum of squares of its series' observed
    values at the steps its group's sequence assigns to the cell's regime,
    from one :func:`~trcrp.model.fold_stats` pass over every series'
    emission cell under its group's sequence in every chain.
    """
    num, p = panel.num_series, panel.window
    z = []  # row c * num + n: series n's sequence in chain c
    for chain in chains:
        sequence = {n: group.regimes.z for group in chain.groups for n in group.members}
        z += [sequence[n] for n in range(num)]
    rows = list(range(num)) * len(chains)
    blocks = max(len(group.regimes.counts) for chain in chains for group in chain.groups)
    stats = fold_stats(panel.values[rows, None, p:], panel.observed[rows, None, p:], z, blocks)
    cell_rows = [c * num + n for c in range(len(chains)) for n, _ in cells]  # (chain, cell) order
    at = cell_rows, 0, [z[r][t - 1] - 1 for r, (_, t) in zip(cell_rows, cells * len(chains))]
    return list(zip(*(s[at].reshape(len(chains), -1, 1) for s in stats)))


def impute(samples: SampleSet, draws: int, seed: int) -> ImputationResult:
    """Draws from the posterior mixture over each missing cell.

    Each draw picks a chain, reads the regime that chain assigned to the
    cell's time step within the series' group, and samples the collapsed
    emission predictive of that (series, regime) cell.  The statistics of
    every chain's cells come from one fold (:func:`_emission_stats`), and a
    chain's draws of all cells from one ``standard_t`` call.  A fully
    observed panel yields an empty result.
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    panel = samples.panel
    cells = panel.missing_cells()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    chain_of = rng.integers(samples.num_chains, size=draws)
    out = np.empty((len(cells), draws))
    picked = [np.flatnonzero(chain_of == s) for s in range(samples.num_chains)]
    used = [s for s, rows in enumerate(picked) if rows.size] if cells else []
    if used:
        series = [n for n, _ in cells]
        stats = _emission_stats(panel, [samples.chains[s] for s in used], cells)
        for s, cell_stats in zip(used, stats):
            hyper = samples.chains[s].hypers[series, 0].T[:, :, None]  # four (cells, 1) columns
            size = (len(cells), picked[s].size)
            out[:, picked[s]] = predictive_sample_array(*hyper, *cell_stats, rng, size=size)
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
