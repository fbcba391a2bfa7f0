"""Normal-InverseGamma conjugacy in log space.

Every (series, regime) cell of the model carries a Normal likelihood with a
Normal-InverseGamma prior on its (mean, variance).  Conjugacy means a cell
never stores its data: a (count, sum, sum of squares) triple is a sufficient
summary, posterior parameters are closed-form, and the posterior predictive
is a Student-T.  The lag-matching cohesion weight is a product of the same
Student-T predictives, one per lag offset, restricted to observed lag cells.

All densities are log densities; products elsewhere in the model are sums of
the values computed here.  The single-site proposal and the forward sampling
of one sequence score one step of one group entry by entry in flat scalar
code: each statistics cell (:class:`NigStats`) caches its
:func:`student_t_form`, the part of the log density that does not depend on
the value scored, so an entry costs one ``log1p`` until the cell's data
changes.  A cell lives for one pass, within which no hyper moves, so the
cache needs no key: its owner clears it when it changes the cell's data.
:func:`predictive_logpdf_raw` is that form and its query in one call.  With
cached forms, below about 115 (cell, block) entries the scalar loop costs
less than one array call.
The array path splits the same way: :func:`student_t_form_array` builds the
forms of arrays of statistics and :func:`student_t_logpdf_array` scores
forms at values, one ``log1p`` per entry.  The particle filter and the forecasts keep
every particle's forms and rebuild only the column a step folds into.
Passes over a whole regime sequence use :func:`predictive_logpdf_array`, the
two in one call.  It broadcasts its hyperparameters, so a grid of candidate
values on a leading axis is scored in one call.  Forecasts draw their
emissions with :func:`predictive_sample_array`, which shares its posterior
update, and so do imputations, one ``standard_t`` call for a chain's cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NigHyper",
    "NigStats",
    "student_t_form",
    "predictive_logpdf_raw",
    "student_t_form_array",
    "student_t_logpdf_array",
    "predictive_logpdf_array",
    "predictive_sample_array",
    "lgamma_rows",
    "LgammaTable",
    "marginal_loglik",
]

_LOG_PI = math.log(math.pi)

@dataclass(frozen=True)
class NigHyper:
    """Normal-InverseGamma hyperparameters (location, scale multiplier, shape, rate)."""

    m: float
    V: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.V > 0 and self.a > 0 and self.b > 0):
            raise ValueError(f"V, a, b must be positive, got {self}")
        if not all(math.isfinite(x) for x in (self.m, self.V, self.a, self.b)):
            raise ValueError(f"m, V, a, b must be finite, got {self}")


class NigStats:
    """Incrementally maintained sufficient statistics for one cell.

    Subtraction does not exactly undo addition in floating point, so a cell
    lives for one pass (:class:`~trcrp.model.GroupStats`): the next pass
    folds its cells afresh from the group's sequence and the data.
    ``form`` caches the cell's :func:`student_t_form` under the one hyper
    the pass reads it with (see :meth:`student_t`), or is None.  Changing
    the counts does not clear it: the owner sets ``form`` to None when it
    changes a cell whose form may have been built.
    """

    __slots__ = ("count", "sum", "sum_sq", "form")

    def __init__(self, count: int = 0, sum: float = 0.0, sum_sq: float = 0.0):
        self.count = count
        self.sum = sum
        self.sum_sq = sum_sq
        self.form = None

    def incorporate(self, x: float) -> None:
        self.count += 1
        self.sum += x
        self.sum_sq += x * x

    def unincorporate(self, x: float) -> None:
        if self.count < 1:
            raise ValueError("unincorporate on empty stats")
        self.count -= 1
        if self.count == 0:
            self.sum = 0.0
            self.sum_sq = 0.0
        else:
            self.sum -= x
            self.sum_sq -= x * x

    def student_t(self, hyper) -> tuple:
        """The cell's :func:`student_t_form` under ``hyper``, its (m, V, a, b),
        built once and kept until the owner marks the cell stale."""
        if self.form is None:
            m, V, a, b = hyper  # unpacked: a starred call costs more per build
            self.form = student_t_form(m, V, a, b, self.count, self.sum, self.sum_sq)
        return self.form

    def __repr__(self):
        return f"NigStats(count={self.count}, sum={self.sum!r}, sum_sq={self.sum_sq!r})"


def _posterior(m0, v0, a0, b0, count, total, total_sq) -> tuple:
    """Condition the NIG cell (m0, v0, a0, b0) on n = ``count`` observations of
    sum s = ``total`` and sum of squares q = ``total_sq``; ``(m', V', a', b')``.

    V' = 1/(1/V + n), m' = V'(m/V + s), a' = a + n/2, and the rate update is
    computed in centered form, b' = b + (q - s^2/n)/2 + n(s/n - m)^2/(2(1+nV)),
    which is algebraically the textbook b + (m^2/V + q - m'^2/V')/2 but does
    not cancel catastrophically for tight data.
    """
    if count == 0:
        return m0, v0, a0, b0
    v_post = 1.0 / (1.0 / v0 + count)
    m_post = v_post * (m0 / v0 + total)
    a_post = a0 + 0.5 * count
    mean = total / count
    centered = total_sq - total * mean
    if centered < 0.0:
        centered = 0.0
    shift = mean - m0
    b_post = b0 + 0.5 * centered + 0.5 * count * shift * shift / (1.0 + count * v0)
    return m_post, v_post, a_post, b_post


def student_t_form(m0, v0, a0, b0, count, total, total_sq) -> tuple:
    """The Student-T posterior predictive of a cell, in the form its queries read.

    The posterior (m', V', a', b') of the cell's NIG hyper and statistics
    gives a predictive with dof 2a', location m' and squared scale
    b'(1 + V')/a'.  Returns ``(loc, dof_scale, a_half, const, dof,
    scale_sq)``: the location m', dof times squared scale, a' + 1/2, the
    value-free part of the log density, lgamma(a' + 1/2) - lgamma(a') -
    log(dof_scale)/2 - log(pi)/2, and the dof and squared scale that a draw
    reads.  The log density at x is ``const - a_half * log1p(z * z /
    dof_scale)`` with z = x - loc.
    """
    m_post, v_post, a_post, b_post = _posterior(m0, v0, a0, b0, count, total, total_sq)
    scale_sq = b_post * (1.0 + v_post) / a_post
    dof = 2.0 * a_post
    dof_scale = dof * scale_sq
    a_half = a_post + 0.5
    const = math.lgamma(a_half) - math.lgamma(a_post) - 0.5 * math.log(dof_scale) - 0.5 * _LOG_PI
    return m_post, dof_scale, a_half, const, dof, scale_sq


def predictive_logpdf_raw(
    m0: float,
    v0: float,
    a0: float,
    b0: float,
    count: int,
    total: float,
    total_sq: float,
    x: float,
) -> float:
    """Log posterior predictive density at ``x`` of a cell with the given
    hyper and statistics: its :func:`student_t_form` and one query."""
    loc, dof_scale, a_half, const, _, _ = student_t_form(m0, v0, a0, b0, count, total, total_sq)
    z = x - loc
    return const - a_half * math.log1p(z * z / dof_scale)


def lgamma_rows(a0, max_count: int):
    """Row of each ``a0`` in a table of lgamma(a0 + c/2 + 1/2) - lgamma(a0 + c/2).

    The table has one row per distinct ``a0`` and one column per count c in
    0..max_count; returns ``(row, table)``.  lgamma runs once per distinct
    argument; arguments are formed as :func:`student_t_form` forms them, so
    the array and scalar forms give the same lgamma bits.
    """
    a0 = np.asarray(a0, dtype=float)
    distinct, row = np.unique(a0.ravel(), return_inverse=True)
    keys = (distinct[:, None] + 0.5 * np.arange(max_count + 1)).ravel()
    # keys + 1/2 is mostly another key: one lgamma call per distinct argument
    args, where = np.unique(np.concatenate([keys, keys + 0.5]), return_inverse=True)
    lg = np.array([math.lgamma(k) for k in args.tolist()])[where]
    lg, lg_half = (part.reshape(len(distinct), max_count + 1) for part in np.split(lg, 2))
    return row.reshape(a0.shape), lg_half - lg


class LgammaTable:
    """One :func:`lgamma_rows` row per distinct shape over counts 0..``max_count``.

    A fit keeps one table over its T steps and a forecast one over T+h, and
    every layout, grid move and particle set gathers its rows from it.  A
    shape's row is built the first time it is asked for, then appended.  Its
    bits depend only on the shape and count, so they equal a per-call build's.
    """

    def __init__(self, max_count: int):
        self.max_count = max_count
        self.index: dict[float, int] = {}  # shape -> its row
        self.table = np.empty((0, max_count + 1))

    def rows(self, a0):
        """``(row, table)`` as :func:`lgamma_rows` returns it for shapes ``a0``.

        Growing makes a new table, so a pair handed out earlier stays valid.
        """
        a0 = np.asarray(a0, dtype=float)
        shapes = a0.ravel().tolist()
        new = sorted(set(shapes).difference(self.index))  # the order of lgamma_rows' rows
        if new:
            self.index.update(zip(new, range(len(self.table), len(self.table) + len(new))))
            self.table = np.concatenate([self.table, lgamma_rows(new, self.max_count)[1]])
        row = np.fromiter(map(self.index.__getitem__, shapes), np.int64, len(shapes))
        return row.reshape(a0.shape), self.table


def _posterior_array(m0, v0, a0, b0, count, total, total_sq):
    """The posterior update of :func:`student_t_form` elementwise over broadcast
    arrays; ``(m, V, a, b)``."""
    empty = count == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        v_post = np.where(empty, v0, 1.0 / (1.0 / v0 + count))
        m_post = np.where(empty, m0, v_post * (m0 / v0 + total))
        mean = total / count
        centered = total_sq - total * mean
        centered = np.where(centered < 0.0, 0.0, centered)
        shift = mean - m0
        b_post = np.where(
            empty, b0, b0 + 0.5 * centered + 0.5 * count * shift * shift / (1.0 + count * v0)
        )
    return m_post, v_post, a0 + 0.5 * count, b_post


def student_t_form_array(m0, v0, a0, b0, count, total, total_sq, lgamma):
    """:func:`student_t_form` elementwise over broadcast numpy arrays: its
    first four fields, ``(loc, dof_scale, a_half, const)``.

    ``lgamma`` is ``(row, table)`` from :meth:`LgammaTable.rows` over cells
    that broadcast like ``a0``, with columns up to at least the largest count;
    callers gather it from their fit's or forecast's :class:`LgammaTable`.
    """
    count = np.asarray(count)
    m_post, v_post, a_post, b_post = _posterior_array(m0, v0, a0, b0, count, total, total_sq)
    row, ratio = lgamma
    scale_sq = b_post * (1.0 + v_post) / a_post
    dof_scale = 2.0 * a_post * scale_sq
    const = ratio[row, count] - 0.5 * np.log(dof_scale) - 0.5 * _LOG_PI
    return m_post, dof_scale, a_post + 0.5, const


def student_t_logpdf_array(form, x):
    """Log density at ``x`` of a :func:`student_t_form_array` form, elementwise."""
    loc, dof_scale, a_half, const = form
    z = x - loc
    return const - a_half * np.log1p(z * z / dof_scale)


def predictive_logpdf_array(m0, v0, a0, b0, count, total, total_sq, x, lgamma):
    """:func:`predictive_logpdf_raw` elementwise over broadcast numpy arrays:
    the :func:`student_t_form_array` of the cells scored at ``x``."""
    form = student_t_form_array(m0, v0, a0, b0, count, total, total_sq, lgamma)
    return student_t_logpdf_array(form, x)


def predictive_sample_array(m0, v0, a0, b0, count, total, total_sq, rng, size=None):
    """Draws from the Student-T posterior predictives of broadcast arrays of cells.

    The posterior update and a location-scale ``standard_t`` draw
    elementwise, with one ``standard_t`` call (dof 2a', location m', squared
    scale b'(1 + V')/a'); ``size`` is numpy's, so a (cells, 1) set of
    statistics with ``size=(cells, R)`` gives R draws per cell.  Overflow is
    not warned about: extreme statistics give non-finite draws, which callers
    reject.
    """
    m, v, a, b = _posterior_array(m0, v0, a0, b0, count, total, total_sq)
    with np.errstate(over="ignore", invalid="ignore"):
        return m + np.sqrt(b * (1.0 + v) / a) * rng.standard_t(2.0 * a, size=size)


def marginal_loglik(hyper: NigHyper, stats: NigStats) -> float:
    """Log marginal likelihood of the cell's data with parameters integrated out.

    Equals the sum of sequential one-step predictive log densities in any
    order (exchangeability), but costs O(1) given the sufficient statistics.
    """
    n = stats.count
    if n == 0:
        return 0.0
    _, v_post, a_post, b_post = _posterior(
        hyper.m, hyper.V, hyper.a, hyper.b, n, stats.sum, stats.sum_sq
    )
    return (
        -0.5 * n * math.log(2.0 * math.pi)
        + 0.5 * (math.log(v_post) - math.log(hyper.V))
        + math.lgamma(a_post)
        - math.lgamma(hyper.a)
        + hyper.a * math.log(hyper.b)
        - a_post * math.log(b_post)
    )
