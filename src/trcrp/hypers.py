"""Empirical-Bayes griddy-Gibbs transitions for concentrations and NIG cells.

Every hyperparameter moves on a 30-point data-dependent grid; a transition
evaluates the conditional log likelihood restricted to the terms the
parameter touches, adds the log prior (Gamma(1,1) for concentrations, uniform
on the grid otherwise), and samples from the normalized categorical.

The 30 candidates of a parameter sit on a leading array axis, so each
transition scores its whole grid in one array call.  Emission-cell
conditionals telescope into per-regime marginal likelihoods: one (30, K)
:func:`~trcrp.conjugate.marginal_loglik_array` call.  Concentration and
lag-cell conditionals need the sequential prefix structure; one array pass
per group (:func:`trcrp.model.prefix_stats`) builds a table of per-step block
statistics and cohesion factors, and a grid is scored against it as
(30, T, K+1) log weights: 30 concentrations, or the moved lag cell's factors
under its 30 candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate import NigHyper, marginal_loglik_array, predictive_logpdf_array
from .model import ChainState, SeriesHypers, prefix_stats
from .panel import TimeSeriesPanel
from .util import crp_partition_log_mass, gumbel_argmax, log_gamma11_pdf

__all__ = [
    "GRID_SIZE",
    "HyperGrid",
    "SeriesGrids",
    "Grids",
    "build_grids",
    "initial_hypers",
    "gibbs_hyper",
    "hyper_sweep",
    "grids_payload",
]

GRID_SIZE = 30
_CLAMP = 1e-6

NIG_FIELDS = ("m", "V", "a", "b")


@dataclass(frozen=True)
class HyperGrid:
    param: str
    points: tuple[float, ...]
    rule: str

    def __post_init__(self):
        if len(self.points) != GRID_SIZE:
            raise ValueError(f"{self.param}: grid must have {GRID_SIZE} points")
        if any(not math.isfinite(x) for x in self.points):
            raise ValueError(f"{self.param}: non-finite grid point")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError(f"{self.param}: grid not strictly increasing")


def _logspace(param: str, lo: float, hi: float, rule: str) -> HyperGrid:
    # Non-positive lower bounds are clamped; a collapsed range keeps the
    # canonical two-decade span above the clamp.
    lo = max(lo, _CLAMP)
    if hi <= lo:
        hi = lo * 100.0
    pts = np.geomspace(lo, hi, GRID_SIZE)
    return HyperGrid(param, tuple(float(x) for x in pts), rule)


def _linspace(param: str, lo: float, hi: float, rule: str) -> HyperGrid:
    if hi <= lo:
        hi = lo + 10.0
    pts = np.linspace(lo, hi, GRID_SIZE)
    return HyperGrid(param, tuple(float(x) for x in pts), rule)


@dataclass(frozen=True)
class SeriesGrids:
    """Grids for one series' NIG cells; lag windows reuse these (whole-series stats)."""

    m: HyperGrid
    V: HyperGrid
    a: HyperGrid
    b: HyperGrid

    def field(self, name: str) -> HyperGrid:
        return getattr(self, name)


@dataclass(frozen=True)
class Grids:
    alpha0: HyperGrid
    group_alpha: HyperGrid
    series: tuple[SeriesGrids, ...]


def build_grids(panel: TimeSeriesPanel) -> Grids:
    """Data-dependent grids: concentrations from N and T, NIG cells per series.

    The location grid is linear on [min-5, max+5] (a log rule is ill-defined
    for non-positive endpoints); scale-like parameters stay geometric.
    """
    num = panel.num_series
    steps = panel.num_steps
    alpha0 = _logspace("alpha0", 1.0 / num, float(num), "logspace(1/N, N)")
    group_alpha = _logspace("alpha", 1.0 / steps, float(steps), "logspace(1/T, T)")
    per_series = []
    for n, name in enumerate(panel.series_names):
        row = panel.values[n, panel.window :]
        mask = panel.observed[n, panel.window :]
        xs = row[mask]
        if xs.size == 0:
            xs = panel.values[n][panel.observed[n]]
        if xs.size == 0:
            lo, hi, ssqdev = -5.0, 5.0, 0.0
        else:
            lo = float(xs.min()) - 5.0
            hi = float(xs.max()) + 5.0
            ssqdev = float(((xs - xs.mean()) ** 2).sum())
        per_series.append(
            SeriesGrids(
                m=_linspace(f"m[{name}]", lo, hi, "30 linear points on [min-5, max+5]"),
                V=_logspace(f"V[{name}]", 1.0 / steps, float(steps), "logspace(1/T, T)"),
                a=_logspace(f"a[{name}]", ssqdev / 100.0, ssqdev, "logspace(ssqdev/100, ssqdev)"),
                b=_logspace(f"b[{name}]", 1.0, float(steps), "logspace(1, T)"),
            )
        )
    return Grids(alpha0=alpha0, group_alpha=group_alpha, series=tuple(per_series))


def initial_hypers(grids: Grids, window: int) -> list[SeriesHypers]:
    """Grid-midpoint starting values for every series (deterministic)."""
    out = []
    for sg in grids.series:
        mid = GRID_SIZE // 2
        cell = NigHyper(
            m=sg.m.points[mid], V=sg.V.points[mid], a=sg.a.points[mid], b=sg.b.points[mid]
        )
        out.append(SeriesHypers(emission=cell, cohesion=tuple(cell for _ in range(window))))
    return out


def grids_payload(grids: Grids) -> dict:
    def grid_dict(g: HyperGrid) -> dict:
        return {"param": g.param, "rule": g.rule, "points": list(g.points)}

    return {
        "alpha0": grid_dict(grids.alpha0),
        "group_alpha": grid_dict(grids.group_alpha),
        "series": [
            {name: grid_dict(sg.field(name)) for name in NIG_FIELDS} for sg in grids.series
        ],
        "lag_windows_reuse_series_grids": True,
    }


# -- sequential tables ---------------------------------------------------------


def _candidates(current: NigHyper, field: str, points, ndim: int) -> tuple:
    """(m, V, a, b) of ``current`` with ``field`` on every grid point.

    The grid is a leading axis of shape (G, 1, ..., 1) with ``ndim`` trailing
    unit axes, so it broadcasts against ``ndim``-dimensional statistics.
    """
    values = vars(current) | {field: np.reshape(points, (-1,) + (1,) * ndim)}
    return tuple(values[name] for name in NIG_FIELDS)


class _GroupTable:
    """Prefix-structure cache for one group's concentration and lag conditionals.

    Holds the group's :class:`~trcrp.model.PrefixStats` over its lag cells.
    Sufficient statistics do not depend on hyperparameters, so they serve
    every grid point.  A grid of G candidates is scored in one array pass:
    G concentrations give (G, T, K+1) log weights; G candidate cells of one
    lag offset give that cell's (G, T, K+1) factors, which replace its
    current factors in the cohesion sum.  Either way the batched
    :meth:`~trcrp.model.PrefixStats.loglik` returns the G conditionals.
    """

    def __init__(self, group, values, observed):
        self.prefix = prefix_stats(
            group.regimes.z, group.members, group.hypers, values, observed, group.window
        )
        self.index = {cell: c for c, cell in enumerate(self.prefix.cells)}

    def alpha_logliks(self, alphas) -> np.ndarray:
        """Sequential assignment loglik of the group's z under each concentration."""
        return self.prefix.loglik(self.prefix.log_weights(alphas))

    def lag_logliks(self, alpha: float, n: int, offset: int, cand) -> tuple:
        """Loglik under each candidate cell (n, offset), and the candidates' factors.

        ``cand`` is (m, V, a, b), each a scalar or a (G, 1, 1) array; returns
        the (G,) logliks and the (G, T, K+1) factors.
        """
        s = self.prefix
        c = self.index[(n, offset)]
        f = predictive_logpdf_array(*cand, s.count[c], s.total[c], s.total_sq[c], s.x[c])
        factors = np.where(s.seen[c], f, 0.0)
        delta = factors - s.factors[c]
        return s.loglik(s.log_weights(alpha) + delta), factors

    def update_cohesion(self, n: int, offset: int, factors: np.ndarray) -> None:
        """Install the accepted candidate's (T, K+1) factors for cell (n, offset)."""
        c = self.index[(n, offset)]
        self.prefix.cohesion += factors - self.prefix.factors[c]
        self.prefix.factors[c] = factors


# -- transitions -----------------------------------------------------------------


def _require_grids(state: ChainState) -> Grids:
    if state.grids is None:
        state.grids = build_grids(state.panel)
    return state.grids


def _gibbs_alpha0(state: ChainState, rng) -> None:
    grid = _require_grids(state).alpha0.points
    sizes = [len(g.members) for g in state.groups]
    logits = [crp_partition_log_mass(sizes, a) + log_gamma11_pdf(a) for a in grid]
    state.alpha0 = grid[gumbel_argmax(logits, rng)]


def _alpha_logits(state: ChainState, table: _GroupTable) -> np.ndarray:
    """Unnormalised log conditional of a group's alpha at each grid point."""
    grid = _require_grids(state).group_alpha.points
    return table.alpha_logliks(grid) + np.array([log_gamma11_pdf(a) for a in grid])


def _gibbs_group_alpha(state: ChainState, group, table: _GroupTable, rng) -> None:
    grid = _require_grids(state).group_alpha.points
    group.alpha = grid[gumbel_argmax(_alpha_logits(state, table), rng)]


def _emission_logits(state: ChainState, n: int, field: str) -> np.ndarray:
    """Log marginal likelihood of series n's emission cells at each grid point.

    The (G, K) cell terms come from one array call; their sum over the K
    regimes is the log conditional up to the uniform grid prior.
    """
    grid = _require_grids(state).series[n].field(field).points
    cells = [row[0] for row in state.group_of(n).cells[n]]
    count = np.array([s.count for s in cells])
    total = np.array([s.sum for s in cells])
    total_sq = np.array([s.sum_sq for s in cells])
    cand = _candidates(state.hypers[n].emission, field, grid, 1)
    terms = marginal_loglik_array(*cand, count, total, total_sq)
    # added regime by regime like a scalar sum; numpy's pairwise sum would
    # change the last bits once K > 8
    return sum(terms.T)


def _gibbs_emission_field(state: ChainState, n: int, field: str, rng) -> None:
    grid = _require_grids(state).series[n].field(field).points
    current = state.hypers[n].emission
    new = current.replace(**{field: grid[gumbel_argmax(_emission_logits(state, n, field), rng)]})
    if new != current:
        state.hypers[n] = state.hypers[n].replace_emission(new)


def _lag_logits(state: ChainState, n: int, offset: int, field: str, table: _GroupTable):
    """Log conditional of lag cell (n, offset)'s ``field`` at each grid point.

    Returns the (G,) logits and the candidates' (G, T, K+1) factors.
    """
    grid = _require_grids(state).series[n].field(field).points
    cand = _candidates(state.hypers[n].cohesion[offset - 1], field, grid, 2)
    return table.lag_logliks(state.group_of(n).alpha, n, offset, cand)


def _gibbs_cohesion_field(
    state: ChainState, n: int, offset: int, field: str, table: _GroupTable, rng
) -> None:
    grid = _require_grids(state).series[n].field(field).points
    current = state.hypers[n].cohesion[offset - 1]
    logits, factors = _lag_logits(state, n, offset, field, table)
    j = gumbel_argmax(logits, rng)
    new = current.replace(**{field: grid[j]})
    if new != current:
        table.update_cohesion(n, offset, factors[j])
        state.hypers[n] = state.hypers[n].replace_cohesion(offset, new)


def gibbs_hyper(state: ChainState, param, rng, table: _GroupTable | None = None) -> None:
    """One griddy-Gibbs transition for the named parameter.

    ``param`` is ``("alpha0",)``, ``("alpha", m)``, ``("emission", n, field)``,
    or ``("cohesion", n, offset, field)`` with field in m/V/a/b.
    """
    kind = param[0]
    if kind == "alpha0":
        _gibbs_alpha0(state, rng)
    elif kind == "alpha":
        group = state.groups[param[1] - 1]
        if table is None:
            table = _GroupTable(group, state.values, state.observed)
        _gibbs_group_alpha(state, group, table, rng)
    elif kind == "emission":
        _gibbs_emission_field(state, param[1], param[2], rng)
    elif kind == "cohesion":
        n, offset, field = param[1], param[2], param[3]
        if table is None:
            table = _GroupTable(state.group_of(n), state.values, state.observed)
        _gibbs_cohesion_field(state, n, offset, field, table, rng)
    else:
        raise ValueError(f"unknown hyperparameter spec {param!r}")


def hyper_sweep(state: ChainState, rng, nig_cells: bool = True) -> None:
    """One pass over every hyperparameter: alpha0, each group's alpha, then per
    series the four emission fields and the 4p lag fields.

    Without ``nig_cells`` only the concentrations move; the NIG cells stay fixed.
    """
    _require_grids(state)
    _gibbs_alpha0(state, rng)
    tables = {}
    for group in state.groups:
        tables[group] = _GroupTable(group, state.values, state.observed)
        _gibbs_group_alpha(state, group, tables[group], rng)
    if not nig_cells:
        return
    window = state.panel.window
    for n in range(state.num_series):
        for field in NIG_FIELDS:
            _gibbs_emission_field(state, n, field, rng)
        group = state.group_of(n)
        for offset in range(1, window + 1):
            for field in NIG_FIELDS:
                _gibbs_cohesion_field(state, n, offset, field, tables[group], rng)
