"""Particle-learning block sampler for a group's regime sequence.

Particle j is ``groups[j]``, its prefix of assignments with their sufficient
statistics, and its log weight; every particle reads the panel's own values
and mask.  The missing-data rule is the model's: an unobserved cell
contributes no lag factor, no emission factor and no statistics.  The
proposal at each step is the conditionally optimal one (CRP x cohesion x
observed-cell emission), so the weight increment is exactly the one-step
predictive of the observed data, the filter targets the group term of the
log joint and ``log_ml`` estimates its marginal likelihood.  Log weights
throughout; resampling is multinomial on the effective-sample-size trigger.
"""

from __future__ import annotations

import math

import numpy as np

from .util import NEG_INF, gumbel_argmax, logsumexp

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
    """J particles plus the running pieces of the marginal-likelihood estimate."""

    def __init__(self, group, values, observed, num_particles):
        if num_particles < 1:
            raise ValueError("need at least one particle")
        self.values = values
        self.observed = observed
        self.cursor = 0
        self.log_ml_acc = 0.0
        self.groups = [group.empty_clone() for _ in range(num_particles)]
        self.log_weights = [0.0] * num_particles

    def __len__(self):
        return len(self.groups)

    def normalized_weights(self) -> np.ndarray:
        lse = logsumexp(self.log_weights)
        if lse == NEG_INF:
            raise NumericalError("all particle weights are zero")
        return np.exp(np.asarray(self.log_weights) - lse)

    def ess(self) -> float:
        w = self.normalized_weights()
        return 1.0 / float(np.sum(w * w))

    def log_marginal_likelihood(self) -> float:
        """Current estimate of the log marginal likelihood of the data so far."""
        return self.log_ml_acc + logsumexp(self.log_weights) - math.log(len(self))


def smc_step(ps: ParticleSet, t: int, rng) -> None:
    """Advance every particle from t-1 to t.

    Per particle: sample the regime from the optimal proposal, multiply the
    weight by the one-step predictive of the observed cells, then fold the
    observed cells at t into the particle's statistics.
    """
    if t != ps.cursor + 1:
        raise ValueError(f"cursor at {ps.cursor}, cannot step to {t}")
    for j, group in enumerate(ps.groups):
        base, emis = group.regime_log_weights_split(t, ps.values, ps.observed, True)
        full = [b + e for b, e in zip(base, emis)]
        ps.log_weights[j] += logsumexp(full) - logsumexp(base)
        group.draw(t, full, ps.values, ps.observed, rng)
    ps.cursor = t


def maybe_resample(ps: ParticleSet, rng) -> bool:
    """Multinomial resampling when ESS drops below ``ESS_THRESHOLD * J``.

    On resampling, the mean weight folds into the marginal-likelihood
    accumulator and weights reset to uniform.
    """
    num = len(ps)
    if ps.ess() >= ESS_THRESHOLD * num:
        return False
    lse = logsumexp(ps.log_weights)
    probs = ps.normalized_weights()
    counts = rng.multinomial(num, probs / probs.sum())
    picks = [j for j, c in enumerate(counts) for _ in range(c)]
    ps.groups = [ps.groups[j].clone() for j in picks]
    ps.log_ml_acc += lse - math.log(num)
    ps.log_weights = [0.0] * num
    return True


def smc_block_sample(group, values, observed, num_particles, rng) -> tuple[list[int], float]:
    """Run the filter over t = 1..T from the empty ``group``; returns ``(z, log_ml)``.

    ``z`` is one particle's regime sequence drawn by weight and ``log_ml`` the
    estimate of the log marginal likelihood.  ``group`` itself is left empty.
    Cost is O(J T K N p); normalizers never need retroactive recomputation,
    which is what makes this linear in T.
    """
    ps = ParticleSet(group, values, observed, num_particles)
    for t in range(1, group.num_steps + 1):
        smc_step(ps, t, rng)
        if t < group.num_steps:
            maybe_resample(ps, rng)
    log_ml = ps.log_marginal_likelihood()
    idx = gumbel_argmax(ps.log_weights, rng)
    return list(ps.groups[idx].regimes.z), log_ml
