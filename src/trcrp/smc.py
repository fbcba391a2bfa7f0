"""Particle-learning block sampler for a group's regime sequence.

The J particles live in stacked arrays.  Per particle j: the regime labels
``z[j]`` of the steps filtered so far, its block count ``num_blocks[j]`` and
block sizes, its log weight, and the count, sum and sum of squares of every
cell's observed values per block, ``count[j, c, k]``.  The cells are the rows
of the group's :class:`~trcrp.model.CellLayout`, the one prefix passes read,
which also holds the panel's values and mask.  Block k is label k+1, and
column ``num_blocks[j]`` is the particle's fresh block, whose statistics are
empty.

A step scores all particles, cells and blocks with one
:func:`~trcrp.conjugate.predictive_logpdf_array` call, with the layout's
lgamma rows, draws every particle's regime with one Gumbel argmax and folds
the step's observed values into the drawn column of every particle.
Resampling is an index gather on the arrays.  Forecasts
(:func:`trcrp.predict.forecast`) reuse the particles as copies of a fitted
group: they start from its statistics, score the lag cells only and give each
particle its own row of cell values, since a future lag reads that copy's own
draws.

The missing-data rule is the model's: an unobserved cell contributes no lag
factor, no emission factor and no statistics.  The proposal at each step is
the conditionally optimal one (CRP x cohesion x observed-cell emission), so
the weight increment is exactly the one-step predictive of the observed data,
the filter targets the group term of the log joint and ``log_ml`` estimates
its marginal likelihood.  Log weights throughout; resampling is multinomial on
the effective-sample-size trigger.
"""

from __future__ import annotations

import math

import numpy as np

from .conjugate import predictive_logpdf_array
from .model import PrefixStats, cell_layout
from .util import NEG_INF, gumbel_argmax

__all__ = ["NumericalError", "ParticleSet", "smc_step", "maybe_resample", "smc_block_sample"]

# resample when the effective sample size drops below this fraction of J
ESS_THRESHOLD = 0.5


class NumericalError(RuntimeError):
    """Collapsed particle weights or a non-finite log joint.

    ``args[0]`` is the message; a second argument, when present, is the
    failing chain's state payload.
    """

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class ParticleSet:
    """J particles of the group's regime sequence as stacked arrays (see the module notes).

    ``count``, ``total`` and ``total_sq`` are (J, cells, capacity) and
    ``sizes`` is (J, capacity); the capacity doubles whenever a particle's
    fresh block would fall outside it.  ``cells`` is the
    :class:`~trcrp.model.CellLayout` of the group's members over the steps of
    ``values``.  Every particle starts as a copy of ``group``: its regime
    sequence, blocks and statistics, which are empty for the filter's empty
    group and those of the fitted group for a forecast.
    """

    def __init__(self, group, values, observed, num_particles):
        if num_particles < 1:
            raise ValueError("need at least one particle")
        self.cells = cell_layout(group.members, group.hypers, values, observed, group.window)
        self.log_alpha = math.log(group.alpha)
        counts = group.regimes.counts
        capacity = 4
        while capacity <= len(counts):
            capacity *= 2
        self.z = np.zeros((num_particles, self.cells.x.shape[1]), dtype=np.int64)
        self.z[:, : group.num_steps] = group.regimes.z
        self.num_blocks = np.full(num_particles, len(counts), dtype=np.int64)
        self.sizes = np.zeros((num_particles, capacity), dtype=np.int64)
        self.sizes[:, : len(counts)] = counts
        shape = (len(self.cells.index), capacity)
        count, total, total_sq = np.zeros(shape, dtype=np.int64), np.zeros(shape), np.zeros(shape)
        for (n, i), c in self.cells.index.items():
            for k, row in enumerate(group.cells[n]):
                count[c, k], total[c, k], total_sq[c, k] = row[i].count, row[i].sum, row[i].sum_sq
        self.count, self.total, self.total_sq = (
            np.repeat(stats[None], num_particles, axis=0) for stats in (count, total, total_sq)
        )
        self.log_weights = np.zeros(num_particles)
        self.cursor = 0
        self.log_ml_acc = 0.0

    def __len__(self):
        return len(self.log_weights)

    def normalized_weights(self) -> np.ndarray:
        log_weights = np.asarray(self.log_weights, dtype=float)
        hi = log_weights.max()
        if hi == NEG_INF:
            raise NumericalError("all particle weights are zero")
        w = np.exp(log_weights - hi)
        return w / w.sum()

    def ess(self) -> float:
        w = self.normalized_weights()
        return 1.0 / float(np.sum(w * w))

    def log_marginal_likelihood(self) -> float:
        """Current estimate of the log marginal likelihood of the data so far."""
        lse = PrefixStats.log_normalizers(np.asarray(self.log_weights, dtype=float))
        return self.log_ml_acc + float(lse) - math.log(len(self))

    def log_weights_split(self, t: int, x=None, emission=True):
        """(base, emission) log weights of every particle at step t, each (J, K+1).

        K is the largest block count.  ``base`` is CRP count/concentration
        plus cohesion over the observed lag cells; ``emission`` sums the
        emission predictives of the observed cells at t, and is None when
        ``emission`` is false, which scores the lag cells only.  ``x`` is each
        particle's row of cell values at t, (J, cells); by default every
        particle reads the layout's.  Particle j's column ``num_blocks[j]`` is
        its fresh block; its later columns have base -inf.
        """
        width = int(self.num_blocks.max()) + 1
        cells = self.cells
        rows = slice(None) if emission else slice(cells.num_lags)
        stats = (s[:, rows, :width] for s in (self.count, self.total, self.total_sq))
        x = cells.x[:, t - 1] if x is None else x
        hyper = (h[rows] for h in cells.hyper)
        row, ratio = cells.lgamma
        f = predictive_logpdf_array(*hyper, *stats, x[..., rows, None], lgamma=(row[rows], ratio))
        factors = np.where(cells.seen[rows, t - 1, None], f, 0.0)
        with np.errstate(divide="ignore"):
            crp = np.log(self.sizes[:, :width])
        crp[np.arange(len(crp)), self.num_blocks] = self.log_alpha
        lags = cells.num_lags
        base = crp + factors[:, :lags].sum(axis=1)
        return base, factors[:, lags:].sum(axis=1) if emission else None

    def assign(self, t: int, pick: np.ndarray, x=None) -> None:
        """Assign step t of particle j to column ``pick[j]`` and fold in its observed values.

        ``x`` is as in :meth:`log_weights_split`, with 0 at unobserved cells.
        Each cell adds its values in time order, so the sums have the bits of
        a group rebuilt from the particle's sequence.  An unobserved cell adds
        a count of 0 and a value of 0.
        """
        particles = np.arange(len(pick))
        self.z[:, t - 1] = pick + 1
        self.sizes[particles, pick] += 1
        self.num_blocks += pick == self.num_blocks
        x = self.cells.x[:, t - 1] if x is None else x
        self.count[particles, :, pick] += self.cells.seen[:, t - 1]
        self.total[particles, :, pick] += x
        self.total_sq[particles, :, pick] += x * x
        capacity = self.sizes.shape[1]
        if self.num_blocks.max() == capacity:
            self.sizes = np.concatenate([self.sizes, np.zeros_like(self.sizes)], axis=1)
            for name in ("count", "total", "total_sq"):
                stats = getattr(self, name)
                setattr(self, name, np.concatenate([stats, np.zeros_like(stats)], axis=2))

    def gather(self, picks: np.ndarray) -> None:
        """Make particle j a copy of particle ``picks[j]``."""
        for name in ("z", "num_blocks", "sizes", "count", "total", "total_sq"):
            setattr(self, name, getattr(self, name)[picks])


def smc_step(ps: ParticleSet, t: int, rng) -> None:
    """Advance every particle from t-1 to t.

    Samples each particle's regime from the optimal proposal, multiplies its
    weight by the one-step predictive of the observed cells, then folds the
    observed cells at t into its statistics.
    """
    if t != ps.cursor + 1:
        raise ValueError(f"cursor at {ps.cursor}, cannot step to {t}")
    base, emis = ps.log_weights_split(t)
    full = base + emis
    lse = PrefixStats.log_normalizers  # over the last axis
    ps.log_weights = ps.log_weights + (lse(full) - lse(base))
    ps.assign(t, np.argmax(full + rng.gumbel(size=full.shape), axis=1))
    ps.cursor = t


def maybe_resample(ps: ParticleSet, rng) -> bool:
    """Multinomial resampling when ESS drops below ``ESS_THRESHOLD * J``.

    On resampling, the mean weight folds into the marginal-likelihood
    accumulator and weights reset to uniform.
    """
    num = len(ps)
    if ps.ess() >= ESS_THRESHOLD * num:
        return False
    lse = float(PrefixStats.log_normalizers(np.asarray(ps.log_weights, dtype=float)))
    probs = ps.normalized_weights()
    counts = rng.multinomial(num, probs / probs.sum())
    ps.gather(np.repeat(np.arange(num), counts))
    ps.log_ml_acc += lse - math.log(num)
    ps.log_weights = np.zeros(num)
    return True


def smc_block_sample(group, values, observed, num_particles, rng) -> tuple[list[int], float]:
    """Run the filter over t = 1..T from the empty ``group``; returns ``(z, log_ml)``.

    ``z`` is one particle's regime sequence drawn by weight and ``log_ml`` the
    estimate of the log marginal likelihood.  ``group`` itself is left empty.
    Each step is one kernel call over (J, cells, K+1) entries, so the work is
    O(J T K N p) in O(T) array calls; normalizers never need retroactive
    recomputation, which is what makes this linear in T.
    """
    ps = ParticleSet(group, values, observed, num_particles)
    for t in range(1, group.num_steps + 1):
        smc_step(ps, t, rng)
        if t < group.num_steps:
            maybe_resample(ps, rng)
    log_ml = ps.log_marginal_likelihood()
    idx = gumbel_argmax(ps.log_weights.tolist(), rng)
    return ps.z[idx].tolist(), log_ml
