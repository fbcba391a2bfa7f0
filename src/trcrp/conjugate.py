"""Normal-InverseGamma conjugacy in log space.

Every (series, regime) cell of the model carries a Normal likelihood with a
Normal-InverseGamma prior on its (mean, variance).  Conjugacy means a cell
never stores its data: a (count, sum, sum of squares) triple is a sufficient
summary, posterior parameters are closed-form, and the posterior predictive
is a Student-T.  The lag-matching cohesion weight is a product of the same
Student-T predictives, one per lag offset, restricted to observed lag cells.

All densities are log densities; products elsewhere in the model are sums of
the values computed here.  The single-site proposal and forward sampling
score one step of one group with :func:`predictive_logpdf_raw`, flat scalar
code: below about 60 (cell, block) entries it costs less than one array
call.  Passes over a whole regime sequence, and each particle-filter step
over all particles, use :func:`predictive_logpdf_array`, the same formula
over arrays of statistics.  It broadcasts its hyperparameters, so a grid of
candidate values on a leading axis is scored in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NigHyper",
    "NigStats",
    "StudentT",
    "posterior_params",
    "posterior_predictive",
    "predictive_logpdf",
    "predictive_logpdf_raw",
    "predictive_logpdf_array",
    "lgamma_rows",
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
        if not math.isfinite(self.m):
            raise ValueError(f"location must be finite, got {self.m}")

    def replace(self, **kwargs) -> "NigHyper":
        fields = {"m": self.m, "V": self.V, "a": self.a, "b": self.b}
        fields.update(kwargs)
        return NigHyper(**fields)


class NigStats:
    """Incrementally maintained sufficient statistics for one cell.

    Subtraction does not exactly undo addition in floating point; the owning
    group recomputes its cells from the data after every pass that subtracts.
    """

    __slots__ = ("count", "sum", "sum_sq")

    def __init__(self, count: int = 0, sum: float = 0.0, sum_sq: float = 0.0):
        self.count = count
        self.sum = sum
        self.sum_sq = sum_sq

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

    def copy(self) -> "NigStats":
        return NigStats(self.count, self.sum, self.sum_sq)

    def __repr__(self):
        return f"NigStats(count={self.count}, sum={self.sum!r}, sum_sq={self.sum_sq!r})"


@dataclass(frozen=True)
class StudentT:
    """Location-scale Student-T: ``dof`` degrees of freedom, squared scale."""

    dof: float
    loc: float
    scale_sq: float

    def sample(self, rng) -> float:
        return self.loc + math.sqrt(self.scale_sq) * rng.standard_t(self.dof)


def posterior_params(hyper: NigHyper, stats: NigStats) -> NigHyper:
    """Condition ``hyper`` on the data summarized by ``stats``.

    With n observations of sum s and sum of squares q:
    V' = 1/(1/V + n), m' = V'(m/V + s), a' = a + n/2, and the rate update is
    computed in centered form, b' = b + (q - s^2/n)/2 + n(s/n - m)^2/(2(1+nV)),
    which is algebraically the textbook b + (m^2/V + q - m'^2/V')/2 but does
    not cancel catastrophically for tight data.
    """
    n = stats.count
    if n == 0:
        return hyper
    v_post = 1.0 / (1.0 / hyper.V + n)
    m_post = v_post * (hyper.m / hyper.V + stats.sum)
    a_post = hyper.a + 0.5 * n
    mean = stats.sum / n
    centered = stats.sum_sq - stats.sum * mean
    if centered < 0.0:
        centered = 0.0
    shift = mean - hyper.m
    b_post = hyper.b + 0.5 * centered + 0.5 * n * shift * shift / (1.0 + n * hyper.V)
    return NigHyper(m_post, v_post, a_post, b_post)


def posterior_predictive(hyper: NigHyper, stats: NigStats) -> StudentT:
    """Student-T posterior predictive of the next observation for this cell."""
    post = posterior_params(hyper, stats)
    return StudentT(2.0 * post.a, post.m, post.b * (1.0 + post.V) / post.a)


def predictive_logpdf(hyper: NigHyper, stats: NigStats, x: float) -> float:
    """Log posterior-predictive density at ``x`` for the given cell."""
    return predictive_logpdf_raw(
        hyper.m, hyper.V, hyper.a, hyper.b, stats.count, stats.sum, stats.sum_sq, x
    )


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
    # posterior_params + Student-T log density fused; no intermediate objects on the hot path.
    if count == 0:
        m_post, v_post, a_post, b_post = m0, v0, a0, b0
    else:
        v_post = 1.0 / (1.0 / v0 + count)
        m_post = v_post * (m0 / v0 + total)
        a_post = a0 + 0.5 * count
        mean = total / count
        centered = total_sq - total * mean
        if centered < 0.0:
            centered = 0.0
        shift = mean - m0
        b_post = b0 + 0.5 * centered + 0.5 * count * shift * shift / (1.0 + count * v0)
    scale_sq = b_post * (1.0 + v_post) / a_post
    dof = 2.0 * a_post
    z = x - m_post
    return (
        math.lgamma(a_post + 0.5)
        - math.lgamma(a_post)
        - 0.5 * math.log(dof * scale_sq)
        - 0.5 * _LOG_PI
        - (a_post + 0.5) * math.log1p(z * z / (dof * scale_sq))
    )


def lgamma_rows(a0, max_count: int):
    """Row of each ``a0`` in a table of lgamma(a0 + c/2 + 1/2) - lgamma(a0 + c/2).

    The table has one row per distinct ``a0`` and one column per count c in
    0..max_count; returns ``(row, table)``.  lgamma runs once per distinct
    argument; arguments are formed as :func:`predictive_logpdf_raw` forms
    them, so the array and scalar forms give the same lgamma bits.
    """
    a0 = np.asarray(a0, dtype=float)
    distinct, row = np.unique(a0.ravel(), return_inverse=True)
    keys = distinct[:, None] + 0.5 * np.arange(max_count + 1)
    lg = np.array([math.lgamma(k) for k in keys.ravel().tolist()]).reshape(keys.shape)
    lg_half = np.array([math.lgamma(k + 0.5) for k in keys.ravel().tolist()]).reshape(keys.shape)
    return row.reshape(a0.shape), lg_half - lg


def predictive_logpdf_array(m0, v0, a0, b0, count, total, total_sq, x, lgamma=None):
    """:func:`predictive_logpdf_raw` elementwise over broadcast numpy arrays.

    ``lgamma`` is ``(row, table)`` from :func:`lgamma_rows` over cells that
    broadcast like ``a0``, with columns up to at least the largest count; a
    caller that scores many steps of the same cells builds it once.  Without
    it the rows are built here.
    """
    count = np.asarray(count)
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
    a_post = a0 + 0.5 * count
    row, ratio = lgamma_rows(a0, int(count.max(initial=0))) if lgamma is None else lgamma
    scale_sq = b_post * (1.0 + v_post) / a_post
    dof_scale = 2.0 * a_post * scale_sq
    z = x - m_post
    return (
        ratio[row, count]
        - 0.5 * np.log(dof_scale)
        - 0.5 * _LOG_PI
        - (a_post + 0.5) * np.log1p(z * z / dof_scale)
    )


def marginal_loglik(hyper: NigHyper, stats: NigStats) -> float:
    """Log marginal likelihood of the cell's data with parameters integrated out.

    Equals the sum of sequential one-step predictive log densities in any
    order (exchangeability), but costs O(1) given the sufficient statistics.
    """
    n = stats.count
    if n == 0:
        return 0.0
    post = posterior_params(hyper, stats)
    return (
        -0.5 * n * math.log(2.0 * math.pi)
        + 0.5 * (math.log(post.V) - math.log(hyper.V))
        + math.lgamma(post.a)
        - math.lgamma(hyper.a)
        + hyper.a * math.log(hyper.b)
        - post.a * math.log(post.b)
    )
