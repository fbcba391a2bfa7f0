"""Particle-learning block sampler for a group's regime sequence.

The J particles live in stacked arrays.  Per particle j: the regime labels
``z[j]`` of the steps filtered so far, its block count ``num_blocks[j]`` and
block sizes, its log weight, and the count, sum and sum of squares of every
cell's observed values per block, ``count[j, c, k]``.  The cells are every
member's lag offsets 1..p, then every member's emission cell, as
:func:`~trcrp.model.prefix_stats` lists them; block k is label k+1, and
column ``num_blocks[j]`` is the particle's fresh block, whose statistics are
empty.  Every particle reads the panel's own values and mask.

A step scores all particles, cells and blocks with one
:func:`~trcrp.conjugate.predictive_logpdf_array` call, its lgamma rows built
once per filter, draws every particle's regime with one Gumbel argmax and
folds the step's observed values into the drawn column of every particle.
Resampling is an index gather on the arrays.

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

from .conjugate import lgamma_rows, predictive_logpdf_array
from .model import PrefixStats
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
    fresh block would fall outside it.  ``x`` and ``seen`` are (cells, T):
    each cell's value at every step and whether it is observed.
    """

    def __init__(self, group, values, observed, num_particles):
        if num_particles < 1:
            raise ValueError("need at least one particle")
        p = group.window
        num_steps = group.num_steps
        self.cells = [(n, i) for n in group.members for i in range(1, p + 1)]
        self.cells += [(n, 0) for n in group.members]
        self.num_lags = len(group.members) * p
        self.log_alpha = math.log(group.alpha)
        rows = np.array([n for n, _ in self.cells], dtype=np.int64).reshape(-1, 1)
        cols = np.array([p - i for _, i in self.cells], dtype=np.int64).reshape(-1, 1)
        cols = cols + np.arange(num_steps)
        self.seen = np.asarray(observed, dtype=bool)[rows, cols]
        self.x = np.where(self.seen, np.asarray(values, dtype=float)[rows, cols], 0.0)
        cell_hypers = [group.hypers[n].cell(i) for n, i in self.cells]
        table = np.array([(h.m, h.V, h.a, h.b) for h in cell_hypers]).reshape(-1, 4, 1)
        self.hyper = [table[:, k] for k in range(4)]  # m, V, a, b, each (cells, 1)
        # a cell gains at most one value per step, so counts stay within 0..T
        self.lgamma_row, self.lgamma = lgamma_rows(self.hyper[2], num_steps)

        capacity = 4
        self.z = np.zeros((num_particles, num_steps), dtype=np.int64)
        self.num_blocks = np.zeros(num_particles, dtype=np.int64)
        self.sizes = np.zeros((num_particles, capacity), dtype=np.int64)
        shape = (num_particles, len(self.cells), capacity)
        self.count = np.zeros(shape, dtype=np.int64)
        self.total = np.zeros(shape)
        self.total_sq = np.zeros(shape)
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

    def log_weights_split(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(base, emission) log weights of every particle at step t, each (J, K+1).

        K is the largest block count.  ``base`` is CRP count/concentration
        plus cohesion over the observed lag cells; ``emission`` sums the
        emission predictives of the observed cells at t.  Particle j's column
        ``num_blocks[j]`` is its fresh block; its later columns have base -inf.
        """
        width = int(self.num_blocks.max()) + 1
        stats = (s[..., :width] for s in (self.count, self.total, self.total_sq))
        f = predictive_logpdf_array(
            *self.hyper, *stats, self.x[:, t - 1, None], lgamma=(self.lgamma_row, self.lgamma)
        )
        factors = np.where(self.seen[:, t - 1, None], f, 0.0)
        with np.errstate(divide="ignore"):
            crp = np.log(self.sizes[:, :width])
        crp[np.arange(len(crp)), self.num_blocks] = self.log_alpha
        lags = self.num_lags
        return crp + factors[:, :lags].sum(axis=1), factors[:, lags:].sum(axis=1)

    def assign(self, t: int, pick: np.ndarray) -> None:
        """Assign step t of particle j to column ``pick[j]`` and fold in its observed values.

        Each cell adds its values in time order, so the sums have the bits of
        a group rebuilt from the particle's sequence.  An unobserved cell adds
        a count of 0 and a value of 0.
        """
        particles = np.arange(len(pick))
        self.z[:, t - 1] = pick + 1
        self.sizes[particles, pick] += 1
        self.num_blocks += pick == self.num_blocks
        x = self.x[:, t - 1]
        self.count[particles, :, pick] += self.seen[:, t - 1]
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
