"""The joint model: reweighted CRP regime weights, temporal-coupling normalizers,
full-model log joint, and forward simulation.

A chain's latent configuration is a :class:`ChainState`: an outer partition of
the series into groups, and per group a :class:`GroupModel` holding its
members, concentration and shared regime sequence.  Emission parameters are
collapsed throughout; all per-cell densities are Student-T posterior
predictives, whose sufficient statistics are a function of the sequence and
the panel, so no group stores them.

One missing-data rule holds in every layer: an unobserved cell contributes
no lag factor, no emission factor and no statistics.  Nothing is imputed to
condition on; the log joint, the samplers, the particle filter and the
forecast rollout all read the panel mask as it stands.

A pass that scores one step at a time keeps one statistics table for the
pass, a :class:`GroupStats`: ``cells[n][k-1][i]`` per member n, regime k and
offset i = 0..p, with offset 0 the emission cell and offset i the lag-i cell,
and per member one always-empty row for the fresh block, ``fresh[n]``.  The
single-site sweep (:func:`trcrp.mcmc.sweep_z`) folds it from the group's
sequence at its start, in one :func:`fold_stats` pass whose sums have the
bits of adding one step at a time, and subtracts and adds one step at a time
from there; :meth:`GroupModel.rollout` starts it from an empty group.  Each
cell caches its Student-T form (:meth:`~trcrp.conjugate.NigStats.student_t`)
for the scalar scoring of one step: a site changes at most two regimes' rows,
and only :meth:`GroupStats.assign` and :meth:`GroupStats.unassign` mark the
rows they touch stale, so the rest of the table scores each entry with one
``log1p``.

Every sequential quantity over a known regime sequence is a sum over t of
terms that see only the data before t.  :func:`prefix_stats` is the one code
that scores such a sequence, in one array pass over the cells of a
:class:`CellLayout`, which only :func:`cell_layout` builds.  Its column
scorer, :func:`prefix_columns`, takes any block membership and a first step,
so the full-MH ratios (:mod:`trcrp.mcmc`) rescore the columns a site touches
with the same code and bits.  :class:`PrefixStats` serves the log joint
(:func:`sequence_loglik`), the full-MH sweep table, the outer moves
(:mod:`trcrp.structure`) and every griddy-Gibbs conditional
(:mod:`trcrp.hypers`); the particle filter
(:mod:`trcrp.smc`) reads the same layout, and so do forecasts, which step
many copies of a fitted group as particles.  Forward sampling of one
sequence (:meth:`GroupModel.rollout`: simulation and the outer moves' fresh
slot) only samples, weighing each step from the cached forms of its
:class:`GroupStats`.  Sequential sums run over the blocks occupied so far
plus one fresh block with empty statistics, which makes every quantity
invariant to regime relabeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate import (
    LgammaTable,
    NigHyper,
    NigStats,
    predictive_logpdf_array,
)
from .panel import TimeSeriesPanel
from .util import crp_partition_log_mass, gumbel_argmax, log_gamma11_pdf

__all__ = [
    "SeriesHypers",
    "RegimeSeq",
    "GroupModel",
    "GroupStats",
    "ChainState",
    "crp_log_weights",
    "crp_draw",
    "CellLayout",
    "cell_layout",
    "PrefixStats",
    "fold_stats",
    "prefix_columns",
    "prefix_stats",
    "sequence_loglik",
    "log_joint",
    "simulate",
    "SimulationResult",
    "state_payload",
    "state_from_payload",
]

@dataclass(frozen=True)
class SeriesHypers:
    """Per-series hyperparameters: one emission cell, one cell per lag offset."""

    emission: NigHyper
    cohesion: tuple[NigHyper, ...]

    def cell(self, offset: int) -> NigHyper:
        """The hyper of cell ``offset``: 0 is the emission cell, i >= 1 the lag-i cell."""
        return self.cohesion[offset - 1] if offset else self.emission

    def replace_cell(self, offset: int, hyper: NigHyper) -> "SeriesHypers":
        """A copy with cell ``offset`` (numbered as in :meth:`cell`) set to ``hyper``."""
        if not offset:
            return SeriesHypers(hyper, self.cohesion)
        lags = list(self.cohesion)
        lags[offset - 1] = hyper
        return SeriesHypers(self.emission, tuple(lags))


class RegimeSeq:
    """Assignment of each modeled time step to a regime label (0 = unassigned).

    Labels stay contiguous 1..K; :meth:`GroupStats.unassign` compacts them
    when a regime empties.
    """

    __slots__ = ("z", "counts")

    def __init__(self, num_steps: int):
        self.z = [0] * num_steps
        self.counts: list[int] = []

    @property
    def num_regimes(self) -> int:
        return len(self.counts)

    def check(self) -> None:
        seen = [0] * len(self.counts)
        for label in self.z:
            if label:
                seen[label - 1] += 1
        if seen != self.counts:
            raise AssertionError(f"regime counts {self.counts} != recount {seen}")
        if any(c == 0 for c in self.counts):
            raise AssertionError("empty regime not compacted")


def crp_log_weights(counts, alpha: float) -> list[float]:
    """Unnormalized sequential CRP log weights: occupied blocks then a fresh one."""
    weights = [math.log(c) for c in counts]
    weights.append(math.log(alpha))
    return weights


def crp_draw(num: int, alpha: float, rng) -> list[int]:
    """Labels 1..K of ``num`` customers seated one by one by a CRP(alpha)."""
    labels = []
    counts: list[int] = []
    for _ in range(num):
        idx = gumbel_argmax(crp_log_weights(counts, alpha), rng)
        if idx == len(counts):
            counts.append(0)
        counts[idx] += 1
        labels.append(idx + 1)
    return labels


class GroupModel:
    """One group: its member series, CRP concentration and regime sequence.

    That is all a group holds at rest.  Its sufficient statistics are a
    function of the sequence and the panel, so the passes that score one
    step at a time (the single-site sweep and :meth:`rollout`) keep them in a
    :class:`GroupStats` of their own, and an outer move only edits
    ``members``.
    """

    __slots__ = ("members", "alpha", "num_steps", "window", "hypers", "regimes")

    def __init__(self, members, alpha: float, num_steps: int, window: int, hypers):
        self.members = list(members)
        self.alpha = float(alpha)
        self.num_steps = num_steps
        self.window = window
        self.hypers = hypers  # SeriesHypers indexed by series (list or mapping)
        self.regimes = RegimeSeq(num_steps)

    def load_sequence(self, z) -> None:
        """Give this group the regime sequence ``z`` (labels 1..K kept as
        given); a label below 1 raises ``ValueError``."""
        z = list(z)
        if min(z, default=1) < 1:
            raise ValueError(f"sequence has unassigned step {z.index(min(z)) + 1}")
        counts = [0] * max(z, default=0)
        for k in z:
            counts[k - 1] += 1
        self.regimes.z, self.regimes.counts = z, counts

    def rollout(self, steps, values, observed, rng, emit: bool) -> list[int]:
        """Forward-sample ``steps`` from the lag-reweighted prior; returns their labels.

        With ``emit``, each step's member cells are drawn from the chosen
        regime's emission predictive into ``values`` before it is folded in.
        This samples one sequence from the scalar weights of a
        :class:`GroupStats` over the group, which serves :func:`simulate`
        and the outer moves' fresh slot, both from an empty group; forecasts
        step many copies of a group at once (:mod:`trcrp.predict`).
        """
        stats = GroupStats(self, values, observed)
        labels = []
        for t in steps:
            idx = gumbel_argmax(stats.regime_log_weights(t, False), rng)
            k = stats.add_regime() if idx == self.regimes.num_regimes else idx + 1
            if emit:
                col = self.window + t - 1
                for n in self.members:
                    values[n, col] = stats.sample_emission(n, k, rng)
            stats.assign(t, k)
            labels.append(k)
        return labels


class GroupStats:
    """The statistics of one group's regime sequence, held for one pass over it.

    ``cells[n][k-1][i]`` summarizes member n's observed values i steps before
    each step assigned to regime k: offset 0 is the emission cell (the value
    at the step itself), offset i >= 1 the lag-i cell, as in
    :class:`CellLayout`.  ``fresh[n]`` is member n's row for the fresh block,
    whose statistics stay empty.  The constructor folds every row from the
    group's sequence in one :func:`fold_stats` pass, whose sums have the bits
    of adding one step at a time; steps labelled 0 add nothing, and a group
    with no regimes starts from no rows.  :meth:`assign` and :meth:`unassign`
    then change the group's sequence and one step's cells, and mark the rows
    they touch stale.  Each cell caches its Student-T form
    (:meth:`~trcrp.conjugate.NigStats.student_t`), so a step scores an entry
    whose row it did not touch with one ``log1p``.  ``values`` and
    ``observed`` are the data the pass reads; a rollout that emits writes
    its draws into ``values``.
    """

    __slots__ = ("group", "values", "observed", "cells", "fresh")

    def __init__(self, group: GroupModel, values, observed):
        self.group, self.values, self.observed = group, values, observed
        p, members = group.window, group.members
        self.fresh = {n: [NigStats() for _ in range(p + 1)] for n in members}
        self.cells = {n: [] for n in members}
        if not group.regimes.num_regimes:
            return
        rows = np.asarray(members)[:, None, None]
        cols = p - np.arange(p + 1)[:, None] + np.arange(group.num_steps)  # (offset, step)
        x = np.asarray(values, dtype=float)[rows, cols]
        seen = np.asarray(observed, dtype=bool)[rows, cols]
        stats = fold_stats(x, seen, group.regimes.z, group.regimes.num_regimes)
        count, total, total_sq = (s.transpose(0, 2, 1).tolist() for s in stats)  # (member, k, offset)
        for n, *blocks in zip(members, count, total, total_sq):
            self.cells[n] = [[NigStats(*cell) for cell in zip(*row)] for row in zip(*blocks)]

    def add_regime(self) -> int:
        regimes = self.group.regimes
        regimes.counts.append(0)
        for row in self.cells.values():
            row.append([NigStats() for _ in range(self.group.window + 1)])
        return regimes.num_regimes

    def _drop_regime(self, k: int) -> None:
        regimes = self.group.regimes
        del regimes.counts[k - 1]
        for row in self.cells.values():
            del row[k - 1]
        z = regimes.z
        for t in range(len(z)):
            if z[t] > k:
                z[t] -= 1

    def assign(self, t: int, k: int) -> None:
        """Assign time t to regime k (1..K), fold its data into the stats and
        mark the members' regime-k rows stale."""
        group = self.group
        p = group.window
        col = p + t - 1
        group.regimes.z[t - 1] = k
        group.regimes.counts[k - 1] += 1
        for n in group.members:
            vrow = self.values[n]
            orow = self.observed[n]
            row = self.cells[n][k - 1]
            for i in range(p + 1):
                if orow[col - i]:
                    row[i].incorporate(float(vrow[col - i]))
                row[i].hyper = None

    def unassign(self, t: int) -> tuple[int, bool]:
        """Remove time t's contributions, marking the cells they leave stale;
        returns (old label, regime removed?)."""
        group = self.group
        k = group.regimes.z[t - 1]
        if k == 0:
            raise ValueError(f"time {t} not assigned")
        p = group.window
        col = p + t - 1
        group.regimes.z[t - 1] = 0
        group.regimes.counts[k - 1] -= 1
        for n in group.members:
            vrow = self.values[n]
            orow = self.observed[n]
            row = self.cells[n][k - 1]
            for i in range(p + 1):
                if orow[col - i]:
                    row[i].unincorporate(float(vrow[col - i]))
                    row[i].hyper = None
        removed = group.regimes.counts[k - 1] == 0
        if removed:
            self._drop_regime(k)
        return k, removed

    def sample_emission(self, n: int, k: int, rng) -> float:
        """One draw from series n's emission predictive in regime k, read from
        the cell's cached Student-T form."""
        hyper = self.group.hypers[n].emission
        loc, _, _, _, dof, scale_sq = self.cells[n][k - 1][0].student_t(hyper)
        return loc + math.sqrt(scale_sq) * rng.standard_t(dof)

    def regime_log_weights(self, t: int, emission: bool) -> list:
        """Per-regime log weights of time t, fresh block last.

        Each is the CRP count or concentration plus the cohesion over the
        observed lag cells; with ``emission`` the emission predictives of the
        observed cells at t are summed apart and added last, otherwise none is
        evaluated.  The fresh block is scored against the member's empty
        ``fresh`` row.  Each entry reads its cell's cached Student-T form,
        built here when the cell is stale or its hyper changed.
        """
        group = self.group
        p = group.window
        col = p + t - 1
        log1p = math.log1p
        # per member, hoisted out of the regime loop: the observed cells
        # [(offset, hyper, value)] and the member's stat rows plus its fresh one
        queries = []
        for n in group.members:
            vrow = self.values[n]
            orow = self.observed[n]
            sh = group.hypers[n]
            seen = [
                (i, sh.cell(i), float(vrow[col - i]))
                for i in range(0 if emission else 1, p + 1)
                if orow[col - i]
            ]
            queries.append((seen, self.cells[n] + [self.fresh[n]]))
        weights = []
        for k, w in enumerate(crp_log_weights(group.regimes.counts, group.alpha)):
            e = 0.0
            for seen, rows in queries:
                row = rows[k]
                for i, h, v in seen:
                    s = row[i]
                    loc, dof_scale, a_half, const, _, _ = s.form if s.hyper is h else s.student_t(h)
                    z = v - loc
                    f = const - a_half * log1p(z * z / dof_scale)
                    if i:
                        w += f
                    else:
                        e += f
            weights.append(w + e)
        return weights


# -- sequential evaluation ----------------------------------------------------


@dataclass(frozen=True)
class CellLayout:
    """The cells of some series that a prefix pass or the particle filter scores.

    ``index`` maps ``(series, offset)`` to a row: every series' lag offsets
    1..p (the first ``num_lags`` rows), then any emission cells, offset 0.
    ``x`` and ``seen`` are (cells, T): each cell's value at every step (0 where
    unobserved) and whether it is observed; ``hyper`` holds m, V, a and b,
    each (cells, 1), and ``lgamma`` the lgamma rows of a over counts 0..T.
    """

    index: dict
    window: int
    num_lags: int
    x: np.ndarray
    seen: np.ndarray
    hyper: tuple
    lgamma: tuple


def cell_layout(series, hypers, values, observed, window: int, lgamma, emission=True) -> CellLayout:
    """The :class:`CellLayout` of ``series`` under ``hypers``, read once here.

    The cells' lgamma rows come from ``lgamma``, the fit's
    :class:`~trcrp.conjugate.LgammaTable` over at least the layout's T steps,
    since a cell gains at most one value per step.
    """
    p = window
    cells = [(n, i) for n in series for i in range(1, p + 1)]
    num_lags = len(cells)
    if emission:
        cells += [(n, 0) for n in series]
    values = np.asarray(values, dtype=float)
    num_steps = values.shape[1] - p
    rows = np.array([n for n, _ in cells], dtype=np.int64)[:, None]
    cols = np.array([p - i for _, i in cells], dtype=np.int64)[:, None] + np.arange(num_steps)
    seen = np.asarray(observed, dtype=bool)[rows, cols]
    x = np.where(seen, values[rows, cols], 0.0)
    table = np.array([_hyper_list(hypers[n].cell(i)) for n, i in cells]).reshape(-1, 4)
    hyper = tuple(table.T[:, :, None])
    index = {cell: c for c, cell in enumerate(cells)}
    return CellLayout(index, p, num_lags, x, seen, hyper, lgamma.rows(hyper[2]))


# rows from which PrefixStats.log_normalizers reduces a block one column at a time
COLUMN_PASS_ROWS = 256


@dataclass
class PrefixStats:
    """Prefix statistics of a regime sequence z over T steps (see :func:`prefix_stats`).

    Blocks are numbered 0..K-1 by first appearance in z; column K is the fresh
    block, whose statistics are always empty.  Rows follow the layout
    ``cells``: ``count``/``total``/``total_sq`` at [row, t-1, j] summarize the
    cell's observed values at the steps before t assigned to block j, and
    ``factors`` holds the predictive log density of the cell's value at t
    under each block (0 where unobserved).  ``cohesion`` sums the lag factors
    of every row and follows :meth:`install`; ``log_counts`` holds the log
    block sizes (-inf for empty blocks) and ``slot`` the column of z_t.

    Sufficient statistics depend on z alone, so one table serves every subset
    of its series (:meth:`subset_loglik`) and every candidate hyper of its
    cells (:meth:`cell_logliks`, and the hyper sweep's emission moves).
    Only those read ``count``, ``total`` and ``total_sq``; a table kept for
    :meth:`subset_loglik` alone may set them to None.
    """

    cells: CellLayout
    count: np.ndarray
    total: np.ndarray
    total_sq: np.ndarray
    factors: np.ndarray
    cohesion: np.ndarray
    log_counts: np.ndarray
    slot: np.ndarray

    def log_weights(self, alpha, cohesion=None) -> np.ndarray:
        """(T, K+1) CRP-times-cohesion log weights under concentration ``alpha``.

        ``cohesion`` defaults to the table's own.  A sequence of G
        concentrations gives (G, T, K+1), one slice each.
        """
        shape = np.shape(alpha)
        w = np.tile(self.log_counts, shape + (1, 1))
        # math.log, so a grid slice has the bits of a single-concentration call
        w[..., -1] = np.reshape([math.log(a) for a in np.ravel(alpha)], shape + (1,))
        return w + (self.cohesion if cohesion is None else cohesion)

    @staticmethod
    def log_normalizers(base: np.ndarray) -> np.ndarray:
        """Per-step log-sum-exp over the last axis of (..., T, K+1) log weights.

        numpy reduces a short last axis at a fixed cost per row (about 50 ns),
        so a block of at least :data:`COLUMN_PASS_ROWS` rows of fewer than 8
        entries is reduced across its rows instead, one column at a time: a
        running ``np.maximum``, then the exponentials added in column order.
        Below 8 entries numpy sums a row left to right, so both forms give
        the same bits; from 8 on it sums pairwise, and a wide block keeps
        numpy's reduction.  Measured with ``timeit`` on one core (numpy 2.4,
        x86-64 with AVX-512), the column form at widths 2-7 costs 1.1-3.3x
        the row form at 16-100 rows, breaks even at 128-256, and costs
        0.2-0.4x at 1,800 rows, the (30, 60, K+1) blocks of a lag cell's
        grid on the benchmark's panels.
        """
        width = base.shape[-1]
        if width >= 8 or base.size < COLUMN_PASS_ROWS * width:
            hi = base.max(axis=-1)
            return hi + np.log(np.exp(base - hi[..., None]).sum(axis=-1))
        cols = np.moveaxis(base, -1, 0)
        hi = cols[0].copy()
        for col in cols[1:]:
            np.maximum(hi, col, out=hi)
        total, term = np.empty_like(hi), np.empty_like(hi)
        np.exp(np.subtract(cols[0], hi, out=total), out=total)
        for col in cols[1:]:
            total += np.exp(np.subtract(col, hi, out=term), out=term)
        return np.add(hi, np.log(total, out=total), out=total)

    def loglik(self, base: np.ndarray, emission=None):
        """Sum over t of the normalized log weight of z_t, plus ``emission`` at z_t if given.

        ``base`` is (T, K+1), or (G, T, K+1) for G candidates scored at once,
        which gives G sums; ``emission`` is a (T, K+1) factor sum.
        """
        steps = np.arange(len(self.slot))
        terms = base[..., steps, self.slot] - self.log_normalizers(base)
        if emission is not None:
            terms = terms + emission[steps, self.slot]
        return terms.sum(axis=-1)

    def subset_loglik(self, series, alpha: float, emission=True) -> float:
        """Group term of the log joint for z scored against the ordered ``series`` only.

        The subset's own factors are summed in order, so the value has the
        bits of a table built over ``series`` alone.  With no series it is the
        CRP log mass of z.
        """
        index = self.cells.index
        lags = [index[n, i] for n in series for i in range(1, self.cells.window + 1)]
        base = self.log_weights(alpha, self.factors[lags].sum(axis=0))
        if not emission:
            return float(self.loglik(base))
        emis = self.factors[[index[n, 0] for n in series]].sum(axis=0)
        return float(self.loglik(base, emis))

    def cell_logliks(self, n: int, offset: int, cand, crp, lgamma):
        """Scores of G candidate hypers for lag cell (n, offset), and their factors.

        ``cand`` is (m, V, a, b), each a scalar or a (G, 1, 1) array.  A
        candidate's factors replace the cell's in the cohesion sum, so every
        step's normalizer moves: the score is the no-emission loglik of the
        CRP weights ``crp``, ``log_weights(alpha, 0.0)``, plus the cohesion.
        Scores differ from the conditional log likelihood by a constant
        shared by the candidates.  ``lgamma`` holds the candidates' lgamma
        rows over counts 0..T (an ``LgammaTable.rows``).
        Returns the (G,) scores and the (G, T, K+1) factors.
        """
        c = self.cells.index[n, offset]
        stats = self.count[c], self.total[c], self.total_sq[c], self.cells.x[c, :, None]
        f = predictive_logpdf_array(*cand, *stats, lgamma=lgamma)
        factors = np.where(self.cells.seen[c, :, None], f, 0.0)
        return self.loglik(crp + self.cohesion + (factors - self.factors[c])), factors

    def install(self, n: int, offset: int, factors: np.ndarray) -> None:
        """Make ``factors``, one candidate's (T, K+1) slice, lag cell (n, offset)'s own."""
        c = self.cells.index[n, offset]
        self.cohesion += factors - self.factors[c]
        self.factors[c] = factors


def _before(a: np.ndarray) -> np.ndarray:
    """Exclusive cumulative sum over axis 1: entry t sums the entries before t."""
    out = np.zeros(a.shape, dtype=a.dtype)
    np.cumsum(a[:, :-1], axis=1, out=out[:, 1:])
    return out


def fold_stats(x, seen, z, num_blocks: int):
    """Whole-sequence statistics of every (cell, block): ``count``, ``total``, ``total_sq``.

    ``x`` and ``seen`` are a layout's (..., cells, T) values and mask, and
    ``z`` the labels 1..``num_blocks``, (..., T) with one row per leading
    entry or (T,) for all, with 0 for an unassigned step, which adds
    nothing.  Each result is (..., cells, num_blocks).  The observed entries are keyed by (cell, block) in time
    order, and ``np.bincount`` adds a bin's weights in input order from 0.0,
    so every sum has the bits of a scalar fold that adds the values one step
    at a time.
    """
    z = np.asarray(z, dtype=np.int64)
    lead = x.shape[:-1]
    shape, size = (*lead, num_blocks), math.prod(lead) * num_blocks
    keys = np.arange(math.prod(lead)).reshape(*lead, 1) * num_blocks + (z[..., None, :] - 1)
    keep = seen & (z[..., None, :] > 0)
    keys, values = keys[keep], x[keep]
    count = np.bincount(keys, minlength=size).reshape(shape)
    # bincount of no keys gives int64 sums whatever the weights
    total = np.bincount(keys, values, size).astype(float, copy=False).reshape(shape)
    total_sq = np.bincount(keys, values * values, size).astype(float, copy=False).reshape(shape)
    return count, total, total_sq


def prefix_columns(member, cells: CellLayout, first: int):
    """Prefix statistics and factors of the blocks whose (T, J) membership is ``member``.

    Column j of ``member`` marks the steps assigned to block j; rows follow
    the layout ``cells``.  Returns the (cells, T - first, J) ``count``,
    ``total``, ``total_sq`` and ``factors`` of :class:`PrefixStats` at steps
    ``first``..T-1 (0-based).  Sums run in time order from step 0, so a
    step's entries have the same bits whatever ``first`` is.
    """
    seen = cells.seen[:, :, None]
    x = cells.x[:, :, None]
    mask = member & seen  # (cells, T, J)
    count = _before(mask.astype(np.int64))[:, first:]
    total = _before(np.where(mask, x, 0.0))[:, first:]
    total_sq = _before(np.where(mask, x * x, 0.0))[:, first:]
    hyper = (h[..., None] for h in cells.hyper)
    row, ratio = cells.lgamma
    f = predictive_logpdf_array(
        *hyper, count, total, total_sq, x[:, first:], lgamma=(row[..., None], ratio)
    )
    return count, total, total_sq, np.where(seen[:, first:], f, 0.0)


def prefix_stats(z, cells: CellLayout) -> PrefixStats:
    """:class:`PrefixStats` of the regime sequence ``z`` for the layout ``cells``.

    Labels of ``z`` are arbitrary nonzero integers; a 0 (unassigned) label
    raises ``ValueError``.
    """
    z = np.asarray(z, dtype=np.int64)
    if (z == 0).any():
        raise ValueError(f"sequence has unassigned step {int(np.argmax(z == 0)) + 1}")
    labels, first, inverse = np.unique(z, return_index=True, return_inverse=True)
    num_blocks = len(labels)
    rank = np.empty(num_blocks, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(num_blocks)
    block = rank[inverse.reshape(-1)]
    onehot = block[:, None] == np.arange(num_blocks + 1)  # (T, K+1)
    slot = block.copy()
    slot[first] = num_blocks
    with np.errstate(divide="ignore"):
        log_counts = np.log(_before(onehot[None].astype(np.int64))[0])
    count, total, total_sq, factors = prefix_columns(onehot, cells, 0)
    cohesion = factors[: cells.num_lags].sum(axis=0)
    return PrefixStats(cells, count, total, total_sq, factors, cohesion, log_counts, slot)


def sequence_loglik(z, members, alpha: float, hypers, values, observed, window: int, lgamma):
    """Log joint contribution of one group for a fixed regime sequence.

    The term at time t uses only earlier data: the normalized reweighted-CRP
    log probability of z_t plus the emission predictives of the observed
    cells at t.  ``lgamma`` is the fit's :class:`~trcrp.conjugate.LgammaTable`.
    """
    cells = cell_layout(members, hypers, values, observed, window, lgamma)
    return prefix_stats(z, cells).subset_loglik(members, alpha)


# -- chain state ---------------------------------------------------------------


class ChainState:
    """One full latent configuration: groups and hypers.  The groups' ordered
    member lists are the one record of the outer partition; the outer moves
    edit them and remove or append groups, and :attr:`assignments` and
    :meth:`group_of` read them.  Its :meth:`layout` reads the ``lgamma`` table."""

    def __init__(self, panel: TimeSeriesPanel, alpha0, groups, hypers):
        self.panel = panel
        self.values = panel.values
        self.observed = panel.observed
        self.alpha0 = float(alpha0)
        self.groups = groups
        self.hypers = list(hypers)  # list[SeriesHypers] indexed by series, shared by the groups
        for group in self.groups:
            group.hypers = self.hypers
        self.grids = None
        self.lgamma = LgammaTable(panel.num_steps)

    @classmethod
    def create(cls, panel, alpha0, assignments, group_alphas, hypers):
        """Build a state with the given outer assignment and empty regime sequences."""
        labels = sorted(set(assignments))
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError(f"assignments must use contiguous labels 1..M: {assignments}")
        groups = []
        for m in labels:
            members = [n for n, c in enumerate(assignments) if c == m]
            groups.append(
                GroupModel(members, group_alphas[m - 1], panel.num_steps, panel.window, hypers)
            )
        return cls(panel, alpha0, groups, hypers)

    @property
    def num_series(self) -> int:
        return self.panel.num_series

    @property
    def assignments(self) -> list[int]:
        """Series n's 1-based group index, read from the groups' member lists."""
        labels = {n: m for m, group in enumerate(self.groups, start=1) for n in group.members}
        return [labels[n] for n in range(self.num_series)]

    def group_of(self, n: int) -> GroupModel:
        return next(group for group in self.groups if n in group.members)

    def layout(self, series, window: int) -> CellLayout:
        """The :func:`cell_layout` of ``series`` under the chain's hypers, data and lgamma table."""
        return cell_layout(series, self.hypers, self.values, self.observed, window, self.lgamma)

    def check_outer(self) -> None:
        """Raise unless the groups are non-empty and partition the series."""
        if not all(group.members for group in self.groups):
            raise AssertionError("empty group")
        members = sorted(n for group in self.groups for n in group.members)
        if members != list(range(self.num_series)):
            raise AssertionError(f"group members {members} do not partition the series")

    def check_consistency(self) -> None:
        """Raise unless the groups partition the series and every group's
        regime counts match its sequence."""
        self.check_outer()
        for group in self.groups:
            group.regimes.check()


def log_joint(state: ChainState) -> float:
    """Log of the collapsed unnormalized posterior at the state's configuration.

    Gamma(1,1) log priors on the concentrations, the outer CRP partition mass,
    and the per-group sequential terms.  Hyperpriors are uniform over their
    grids and contribute a constant, which is dropped.
    """
    total = log_gamma11_pdf(state.alpha0)
    total += crp_partition_log_mass([len(g.members) for g in state.groups], state.alpha0)
    for group in state.groups:
        total += log_gamma11_pdf(group.alpha)
        total += sequence_loglik(
            group.regimes.z, group.members, group.alpha, group.hypers,
            state.values, state.observed, group.window, state.lgamma,
        )
    return total


# -- forward simulation --------------------------------------------------------


@dataclass
class SimulationResult:
    panel: TimeSeriesPanel
    assignments: list[int]
    alpha0: float
    group_alphas: list[float]
    group_z: list[list[int]]


def simulate(
    num_steps: int,
    window: int,
    prefix,
    hypers,
    rng,
    alpha: float | None = None,
    assignments=None,
    alpha0: float = 1.0,
) -> SimulationResult:
    """Forward-sample a panel from the generative process.

    ``prefix`` is an (N, window) array of known initial values.  Group
    concentrations are drawn from Gamma(1,1) unless ``alpha`` pins them; the
    outer assignment is drawn from a CRP(alpha0) unless ``assignments`` plants
    it.  Emissions are drawn from the collapsed Student-T predictives, so the
    output distribution matches the collapsed joint exactly.
    """
    prefix = np.asarray(prefix, dtype=float)
    num_series = prefix.shape[0]
    if prefix.shape != (num_series, window):
        raise ValueError(f"prefix must be (N, {window}), got {prefix.shape}")
    assignments = crp_draw(num_series, alpha0, rng) if assignments is None else list(assignments)
    num_groups = max(assignments)

    values = np.zeros((num_series, window + num_steps))
    values[:, :window] = prefix
    observed = np.ones_like(values, dtype=bool)

    group_alphas = []
    group_z = []
    for m in range(1, num_groups + 1):
        members = [n for n, c in enumerate(assignments) if c == m]
        a = float(alpha) if alpha is not None else float(rng.gamma(1.0, 1.0))
        group_alphas.append(a)
        group = GroupModel(members, a, num_steps, window, hypers)
        group_z.append(group.rollout(range(1, num_steps + 1), values, observed, rng, emit=True))

    labels = tuple(f"{r:05d}" for r in range(window + num_steps))
    panel = TimeSeriesPanel(
        values=values,
        observed=observed,
        window=window,
        series_names=tuple(f"s{n + 1}" for n in range(num_series)),
        raw_labels=labels,
    )
    return SimulationResult(panel, assignments, alpha0, group_alphas, group_z)


# -- serialization ---------------------------------------------------------------


def _hyper_list(h: NigHyper) -> list[float]:
    return [h.m, h.V, h.a, h.b]


def state_payload(state: ChainState) -> dict:
    """JSON-serializable snapshot: ``alpha0``, ``groups`` (each its ``alpha``,
    ordered ``members`` and ``z``) and per-series ``hypers``.  The outer
    assignment and the statistics are derived and rebuilt on load."""
    return {
        "alpha0": state.alpha0,
        "groups": [
            {
                "alpha": g.alpha,
                "members": list(g.members),
                "z": list(g.regimes.z),
            }
            for g in state.groups
        ],
        "hypers": [
            {
                "emission": _hyper_list(sh.emission),
                "cohesion": [_hyper_list(h) for h in sh.cohesion],
            }
            for sh in state.hypers
        ],
    }


def _check_payload(payload: dict, panel: TimeSeriesPanel) -> None:
    """Raise ``ValueError`` unless the groups' member lists are non-empty lists of
    integers that partition the panel's series, every regime sequence is a
    list of contiguous integer labels 1..K for all T steps, every series has
    one lag cell per offset, every NIG cell is four numbers and every
    concentration is a positive finite number."""
    groups = payload["groups"]
    num_series = panel.num_series
    if len(payload["hypers"]) != num_series:
        raise ValueError(f"chain state does not cover the panel's {num_series} series")
    if any(len(entry["cohesion"]) != panel.window for entry in payload["hypers"]):
        raise ValueError(f"every series needs {panel.window} lag cells")
    cells = [h for entry in payload["hypers"] for h in (entry["emission"], *entry["cohesion"])]
    if not all(isinstance(h, list) and len(h) == 4 for h in cells) or not {
        type(v) for h in cells for v in h
    } <= {int, float}:  # JSON numbers, not bools
        raise ValueError("every NIG cell must be four numbers (m, V, a, b)")
    concentrations = [payload["alpha0"]] + [g["alpha"] for g in groups]
    if not all(type(a) in (int, float) and 0 < a < math.inf for a in concentrations):
        raise ValueError("concentrations must be positive finite numbers")
    members = [entry["members"] for entry in groups]
    if not all(isinstance(ns, list) and ns for ns in members) or not {
        type(n) for ns in members for n in ns
    } <= {int}:
        raise ValueError("every group's members must be a non-empty list of series indices")
    if sorted(n for ns in members for n in ns) != list(range(num_series)):
        raise ValueError(f"group members {members} do not partition {num_series} series")
    for m, entry in enumerate(groups, start=1):
        z = entry["z"]
        if not isinstance(z, list) or not {type(k) for k in z} <= {int}:
            raise ValueError(f"group {m} sequence must be a list of integer labels")
        if len(z) != panel.num_steps or sorted(set(z)) != list(range(1, max(z, default=0) + 1)):
            raise ValueError(f"group {m} sequence must label all {panel.num_steps} steps 1..K")


def state_from_payload(payload: dict, panel: TimeSeriesPanel, cells=None) -> ChainState:
    """The chain state of ``payload`` over ``panel``.  ``cells`` maps four numbers
    to their NigHyper, so the chains of one file build each distinct cell once."""
    _check_payload(payload, panel)
    cells = {} if cells is None else cells

    def cell(h):
        return cells.get(tuple(h)) or cells.setdefault(tuple(h), NigHyper(*h))

    hypers = [
        SeriesHypers(cell(entry["emission"]), tuple(map(cell, entry["cohesion"])))
        for entry in payload["hypers"]
    ]
    groups = []
    for entry in payload["groups"]:
        group = GroupModel(entry["members"], entry["alpha"], panel.num_steps, panel.window, hypers)
        group.load_sequence(entry["z"])
        groups.append(group)
    return ChainState(panel, payload["alpha0"], groups, hypers)
