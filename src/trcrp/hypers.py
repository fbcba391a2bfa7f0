"""Empirical-Bayes griddy-Gibbs transitions for concentrations and NIG cells.

Every hyperparameter moves on a 30-point data-dependent grid; a transition
evaluates the conditional log likelihood restricted to the terms the
parameter touches, adds the log prior (Gamma(1,1) for concentrations, uniform
on the grid otherwise), and samples from the normalized categorical by
Gumbel-max.

A sweep builds one table per group, the group's
:class:`~trcrp.model.PrefixStats` over its members' lag and emission cells,
and moves alpha0, then each group's alpha on (30, T, K+1) log weights.  One
call draws the noise of every NIG-cell move, (N, p+1, 4, 30), the stream of
one draw of 30 per move series by series, emission cell then lag cells, so
moves that read none of each other's results may run in any order.  No move
reads another group's, so groups run one after another.  An emission cell's
conditional reads only its hyper, its group's sequence and its series' data:
a group's emission moves run first, field by field, scoring each step at its
own block alone, (T, members, 30) per call with chunks of at most K+1
members, no more than a lag move's; nothing reads their factors, so none are
installed.  A lag cell's (30, T, K+1) factors replace its own
in the cohesion sum, so every step's normalizer moves; lag moves run in
series order and install the chosen factors.  Every lgamma row comes from
the fit's :class:`~trcrp.conjugate.LgammaTable`: a sweep asks it for each
member's a-grid rows, and an ``m``, ``V`` or ``b`` move for the current
shape's row, on the grid or not.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .conjugate import NigHyper, predictive_logpdf_array
from .model import ChainState, PrefixStats, SeriesHypers, prefix_stats
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
        if not all(map(math.isfinite, self.points)):
            raise ValueError(f"{self.param}: non-finite grid point")
        if not all(map(operator.lt, self.points, self.points[1:])):
            raise ValueError(f"{self.param}: grid not strictly increasing")


def _logspace(lo, hi) -> np.ndarray:
    """(..., G) geometric grids from ``lo`` to ``hi``, elementwise.  Non-positive
    lower bounds are clamped; a collapsed range keeps the canonical
    two-decade span above the clamp."""
    lo = np.maximum(lo, _CLAMP)
    return np.geomspace(lo, np.where(hi <= lo, lo * 100.0, hi), GRID_SIZE, axis=-1)


def _grid(param: str, points: np.ndarray, rule: str) -> HyperGrid:
    return HyperGrid(param, tuple(points.tolist()), rule)


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


def build_grids(panel: TimeSeriesPanel) -> Grids:
    """Data-dependent grids: concentrations from N and T, NIG cells per series.

    The location grid is linear on [min-5, max+5] (a log rule is ill-defined
    for non-positive endpoints); scale-like parameters stay geometric.  Each
    parameter's grids of every series come from one ``np.linspace`` or
    ``np.geomspace`` call, whose points have the bits of one call per series.
    """
    num = panel.num_series
    steps = panel.num_steps
    spans = []
    for n in range(num):
        row = panel.values[n, panel.window :]
        mask = panel.observed[n, panel.window :]
        xs = row[mask]
        if xs.size == 0:
            xs = panel.values[n][panel.observed[n]]
        if xs.size == 0:
            spans.append((-5.0, 5.0, 0.0))
        else:
            ssqdev = float(((xs - xs.mean()) ** 2).sum())
            spans.append((float(xs.min()) - 5.0, float(xs.max()) + 5.0, ssqdev))
    lo, hi, ssqdev = np.array(spans).T
    m = np.linspace(lo, np.where(hi <= lo, lo + 10.0, hi), GRID_SIZE, axis=-1)
    a = _logspace(ssqdev / 100.0, ssqdev)
    V = _logspace(1.0 / steps, float(steps))
    b = _logspace(1.0, float(steps))
    series = tuple(
        SeriesGrids(
            m=_grid(f"m[{name}]", m[n], "30 linear points on [min-5, max+5]"),
            V=_grid(f"V[{name}]", V, "logspace(1/T, T)"),
            a=_grid(f"a[{name}]", a[n], "logspace(ssqdev/100, ssqdev)"),
            b=_grid(f"b[{name}]", b, "logspace(1, T)"),
        )
        for n, name in enumerate(panel.series_names)
    )
    return Grids(
        alpha0=_grid("alpha0", _logspace(1.0 / num, float(num)), "logspace(1/N, N)"),
        group_alpha=_grid("alpha", _logspace(1.0 / steps, float(steps)), "logspace(1/T, T)"),
        series=series,
    )


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


def _grid_arrays(state: ChainState, series) -> tuple:
    """Every series' grids, (N, 4, G) in NIG_FIELDS order, and the lgamma rows
    of the a-grids of ``series``, (N, G), asked for one series at a time: a
    first build makes a Python float per lgamma argument."""
    points = np.array([[getattr(sg, f).points for f in NIG_FIELDS] for sg in state.grids.series])
    rows = np.zeros(points.shape[::2], dtype=np.int64)
    for n in series:
        rows[n] = state.lgamma.rows(points[n, 2])[0]
    return points, rows


def _pick(logits: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Argmax of ``logits`` plus the Gumbel ``noise`` over the last axis, as
    :func:`~trcrp.util.gumbel_argmax` picks it: the first index wins a tie
    and a NaN counts as -inf."""
    scores = logits + noise
    return np.argmax(np.where(np.isnan(scores), -np.inf, scores), axis=-1)


def _group_table(state: ChainState, group) -> PrefixStats:
    """The prefix table of ``group``'s sequence over its members' lag and emission cells."""
    return prefix_stats(group.regimes.z, state.layout(group.members, group.window))


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


def _set_cell(state: ChainState, n: int, offset: int, field: str, j: int) -> bool:
    """Set ``field`` of cell (n, offset) to point ``j`` of its grid; False if it is there."""
    value = getattr(state.grids.series[n], field).points[j]
    current = state.hypers[n].cell(offset)
    if getattr(current, field) == value:
        return False
    state.hypers[n] = state.hypers[n].replace_cell(offset, current.replace(**{field: value}))
    return True


def _emission_scores(table: PrefixStats, series, cand, lgamma) -> np.ndarray:
    """(S, G) scores of candidates ``cand`` (fields (S, 1) or (S, G)) for the
    emission cells of ``series``: each observed step's predictive at its own
    block, summed over T one step after another, as a (G, T, K+1) slot
    gather's last-axis sum adds."""
    rows = np.array([table.cells.index[n, 0] for n in series])[:, None]
    steps = np.arange(len(table.slot))[:, None, None]
    at = rows, steps, table.slot[:, None, None]
    stats = table.count[at], table.total[at], table.total_sq[at], table.cells.x[rows, steps]
    f = predictive_logpdf_array(*cand, *stats, lgamma=lgamma)
    return np.where(table.cells.seen[rows, steps], f, 0.0).sum(axis=0)


def _emission_logits(state, chunk, field: str, table: PrefixStats, grids):
    """(S, G) log conditionals of ``field`` of the emission cells of the S
    series ``chunk``, each on its own grid, up to a constant per series."""
    points, shape_rows = grids
    f = NIG_FIELDS.index(field)
    current = np.array([[h.m, h.V, h.a, h.b] for h in (state.hypers[n].emission for n in chunk)])
    cand = [col[:, None] for col in current.T]
    cand[f] = points[chunk, f]
    lgamma = (shape_rows[chunk], state.lgamma.table) if field == "a" else state.lgamma.rows(cand[2])
    return _emission_scores(table, chunk, cand, lgamma)


def _emission_moves(state, chunk, field: str, table: PrefixStats, grids, noise):
    """Move ``field`` of the emission cells of ``chunk``, each series with its row of ``noise``."""
    picks = _pick(_emission_logits(state, chunk, field, table, grids), noise[chunk])
    for n, j in zip(chunk, picks.tolist()):
        _set_cell(state, n, 0, field, j)


def _lag_logits(state, n: int, offset: int, field: str, table: PrefixStats, crp, grids):
    """Log conditional of lag cell (n, offset)'s ``field`` at each grid point, up to
    a constant, and the candidates' (G, T, K+1) factors; ``crp`` is as
    :meth:`~trcrp.model.PrefixStats.cell_logliks` reads it."""
    points, shape_rows = grids
    f = NIG_FIELDS.index(field)
    current = state.hypers[n].cell(offset)
    cand = [current.m, current.V, current.a, current.b]
    cand[f] = points[n, f, :, None, None]
    if field == "a":
        lgamma = shape_rows[n, :, None, None], state.lgamma.table
    else:
        lgamma = state.lgamma.rows(current.a)
    return table.cell_logliks(n, offset, cand, crp, lgamma)


def _lag_move(state, n: int, offset: int, field: str, table: PrefixStats, crp, grids, noise):
    """Move ``field`` of lag cell (n, offset) with the (G,) ``noise``, installing
    the chosen factors when the cell changes."""
    logits, factors = _lag_logits(state, n, offset, field, table, crp, grids)
    j = int(_pick(logits, noise))
    if _set_cell(state, n, offset, field, j):
        table.install(n, offset, factors[j])


def hyper_sweep(state: ChainState, rng, nig_cells: bool = True) -> None:
    """One pass over every hyperparameter: alpha0, each group's alpha, then
    every series' emission and lag cells, field by field.

    Without ``nig_cells`` only the concentrations move; the NIG cells stay fixed.
    The moves read their grids from ``state.grids``, which the caller sets.
    """
    _gibbs_alpha0(state, rng)
    tables = {}
    for group in state.groups:
        tables[group] = _group_table(state, group)
        _gibbs_group_alpha(state, group, tables[group], rng)
    if not nig_cells:
        return
    window = state.panel.window
    noise = rng.gumbel(size=(state.num_series, window + 1, len(NIG_FIELDS), GRID_SIZE))
    for group, table in tables.items():
        grids = _grid_arrays(state, group.members)
        size = table.log_counts.shape[-1]  # K+1
        for start in range(0, len(group.members), size):
            chunk = group.members[start : start + size]
            for f, field in enumerate(NIG_FIELDS):
                _emission_moves(state, chunk, field, table, grids, noise[:, 0, f])
        crp = table.log_weights(group.alpha, 0.0)
        for n in sorted(group.members):
            for offset in range(1, window + 1):
                for f, field in enumerate(NIG_FIELDS):
                    _lag_move(state, n, offset, field, table, crp, grids, noise[n, offset, f])
