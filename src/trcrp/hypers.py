"""Empirical-Bayes griddy-Gibbs transitions for concentrations and NIG cells.

Every hyperparameter moves on a 30-point data-dependent grid; a transition
evaluates the conditional log likelihood restricted to the terms the
parameter touches, adds the log prior (Gamma(1,1) for concentrations, uniform
on the grid otherwise), and samples from the normalized categorical.

A sweep builds one table per group, the group's
:class:`~trcrp.model.PrefixStats` over its members' lag and emission cells,
and scores every grid against it in one array call with the 30 candidates on
a leading axis.  A concentration grid gives (30, T, K+1) log weights.  A
cell's grid gives the cell's (30, T, K+1) factors: a lag cell's replace its
factors in the cohesion sum, so every step's normalizer moves; an emission
cell's change only the emission term of z_t, so they need no normalizer.  An
accepted cell move installs the chosen candidate's factors in the table.
The kernel's lgamma rows (:func:`~trcrp.conjugate.lgamma_rows`) over a
series' a grid and the counts 0..T are built at the chain's first sweep that
moves cells and kept in the chain's :class:`Grids`.  Every a is then a grid
point: the group tables gather their cells' rows from these, and an ``m``,
``V`` or ``b`` move reads the row of the current a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conjugate import NigHyper, lgamma_rows
from .model import ChainState, PrefixStats, SeriesHypers, cell_layout, prefix_stats
from .panel import TimeSeriesPanel
from .util import crp_partition_log_mass, gumbel_argmax, log_gamma11_pdf

__all__ = [
    "GRID_SIZE",
    "HyperGrid",
    "SeriesGrids",
    "Grids",
    "build_grids",
    "initial_hypers",
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


@dataclass(frozen=True)
class Grids:
    alpha0: HyperGrid
    group_alpha: HyperGrid
    series: tuple[SeriesGrids, ...]
    # each series' lgamma table over its a grid, by series; see _a_rows
    a_rows: dict = field(default_factory=dict, compare=False, repr=False)


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
            {name: grid_dict(getattr(sg, name)) for name in NIG_FIELDS} for sg in grids.series
        ],
        "lag_windows_reuse_series_grids": True,
    }


# -- transitions -----------------------------------------------------------------


def _candidates(current: NigHyper, field: str, points) -> tuple:
    """(m, V, a, b) of ``current`` with ``field`` on every grid point.

    The grid is a leading (G, 1, 1) axis, so it broadcasts against a cell's
    (T, K+1) prefix statistics.
    """
    values = vars(current) | {field: np.reshape(points, (-1, 1, 1))}
    return tuple(values[name] for name in NIG_FIELDS)


def _group_table(state: ChainState, group, chain_rows: bool = False) -> PrefixStats:
    """The prefix table of ``group``'s sequence over its members' lag and emission cells.

    With ``chain_rows`` the cells' lgamma rows come from the chain's tables
    (:func:`_a_rows`), which needs every a on its grid; otherwise the layout
    builds them.
    """
    a_row = (lambda n, a: _a_rows(state, n)[_grid_index(state, n, a)]) if chain_rows else None
    cells = cell_layout(
        group.members, state.hypers, state.values, state.observed, group.window, a_row=a_row
    )
    return prefix_stats(group.regimes.z, cells)


def _gibbs_alpha0(state: ChainState, rng) -> None:
    grid = state.grids.alpha0.points
    sizes = [len(g.members) for g in state.groups]
    logits = [crp_partition_log_mass(sizes, a) + log_gamma11_pdf(a) for a in grid]
    state.alpha0 = grid[gumbel_argmax(logits, rng)]


def _alpha_logits(state: ChainState, table: PrefixStats) -> np.ndarray:
    """Unnormalised log conditional of a group's alpha at each grid point."""
    grid = state.grids.group_alpha.points
    return table.loglik(table.log_weights(grid)) + np.array([log_gamma11_pdf(a) for a in grid])


def _gibbs_group_alpha(state: ChainState, group, table: PrefixStats, rng) -> None:
    grid = state.grids.group_alpha.points
    group.alpha = grid[gumbel_argmax(_alpha_logits(state, table), rng)]


def _a_rows(state: ChainState, n: int) -> np.ndarray:
    """Series n's (30, T+1) lgamma table over its a grid, built on its first use."""
    rows = state.grids.a_rows
    if n not in rows:
        rows[n] = lgamma_rows(state.grids.series[n].a.points, state.panel.num_steps)[1]
    return rows[n]


def _grid_index(state: ChainState, n: int, a: float) -> int:
    """Index of shape ``a`` on series n's a grid; ``ValueError`` if it is off the grid."""
    grid = state.grids.series[n].a
    if a not in grid.points:
        raise ValueError(f"{grid.param} = {a!r} is not on its grid")
    return grid.points.index(a)


def _cell_logits(state: ChainState, n: int, offset: int, field: str, table: PrefixStats):
    """Log conditional of cell (n, offset)'s ``field`` at each grid point, up to a constant.

    Offset 0 is the emission cell.  Returns the (G,) logits and the
    candidates' (G, T, K+1) factors.  Raises ``ValueError`` if a field other
    than ``a`` moves while the cell's a is off its grid.
    """
    grids = state.grids.series[n]
    current = state.hypers[n].cell(offset)
    cand = _candidates(current, field, getattr(grids, field).points)
    if field == "a":
        row = np.arange(GRID_SIZE).reshape(-1, 1, 1)
    else:
        row = _grid_index(state, n, current.a)
    lgamma = row, _a_rows(state, n)
    return table.cell_logliks(n, offset, cand, state.group_of(n).alpha, lgamma)


def _gibbs_cell(
    state: ChainState, n: int, offset: int, field: str, table: PrefixStats, rng
) -> None:
    grid = getattr(state.grids.series[n], field).points
    current = state.hypers[n].cell(offset)
    logits, factors = _cell_logits(state, n, offset, field, table)
    j = gumbel_argmax(logits, rng)
    new = current.replace(**{field: grid[j]})
    if new != current:
        table.install(n, offset, factors[j])
        state.hypers[n] = state.hypers[n].replace_cell(offset, new)


def hyper_sweep(state: ChainState, rng, nig_cells: bool = True) -> None:
    """One pass over every hyperparameter: alpha0, each group's alpha, then per
    series the four emission fields and the 4p lag fields.

    Without ``nig_cells`` only the concentrations move; the NIG cells stay fixed.
    The moves read their grids from ``state.grids``, which the caller sets.
    """
    _gibbs_alpha0(state, rng)
    tables = {}
    for group in state.groups:
        tables[group] = _group_table(state, group, chain_rows=nig_cells)
        _gibbs_group_alpha(state, group, tables[group], rng)
    if not nig_cells:
        return
    for n in range(state.num_series):
        table = tables[state.group_of(n)]
        for offset in range(state.panel.window + 1):
            for field in NIG_FIELDS:
                _gibbs_cell(state, n, offset, field, table, rng)
