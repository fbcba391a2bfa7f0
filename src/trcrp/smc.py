"""Particle-learning block sampler for a group's regime sequence.

Each particle carries its own prefix of assignments, its own sufficient
statistics, and its own fill-ins for unobserved cells, simulated from the
collapsed emission predictive as the filter advances.  The proposal at each
step is the conditionally optimal one (CRP x cohesion x observed-cell
emission), so the weight increment is exactly the one-step predictive of the
observed data.  Log weights throughout; resampling is multinomial on the
effective-sample-size trigger.
"""

from __future__ import annotations

import math

import numpy as np

from .util import NEG_INF, gumbel_argmax, logsumexp

__all__ = ["NumericalError", "Particle", "ParticleSet", "smc_step", "maybe_resample", "smc_block_sample", "SmcResult"]


class NumericalError(RuntimeError):
    """Collapsed particle weights or a non-finite log joint.

    ``args[0]`` is the message; a second argument, when present, is the
    failing chain's state payload.
    """

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class Particle:
    __slots__ = ("group", "values", "filled", "log_weight", "imputed")

    def __init__(self, group, values, filled):
        self.group = group
        self.values = values
        self.filled = filled
        self.log_weight = 0.0
        self.imputed: dict[tuple[int, int], float] = {}

    def clone(self) -> "Particle":
        other = Particle(self.group.clone(), self.values.copy(), self.filled.copy())
        other.log_weight = self.log_weight
        other.imputed = dict(self.imputed)
        return other


class ParticleSet:
    """J particles plus the running pieces of the marginal-likelihood estimate."""

    def __init__(self, members, alpha, hypers, panel_values, panel_observed, num_steps, window, num_particles):
        from .model import GroupModel

        if num_particles < 1:
            raise ValueError("need at least one particle")
        self.panel_observed = panel_observed
        self.num_steps = num_steps
        self.window = window
        self.cursor = 0
        self.log_ml_acc = 0.0
        self.particles = [
            Particle(
                GroupModel(members, alpha, num_steps, window, hypers),
                np.array(panel_values, dtype=float),
                np.array(panel_observed, dtype=bool),
            )
            for _ in range(num_particles)
        ]

    def __len__(self):
        return len(self.particles)

    def log_weights(self) -> list[float]:
        return [p.log_weight for p in self.particles]

    def normalized_weights(self) -> np.ndarray:
        lws = self.log_weights()
        lse = logsumexp(lws)
        if lse == NEG_INF:
            raise NumericalError("all particle weights are zero")
        return np.exp(np.asarray(lws) - lse)

    def ess(self) -> float:
        w = self.normalized_weights()
        return 1.0 / float(np.sum(w * w))

    def log_marginal_likelihood(self) -> float:
        """Current estimate of the log marginal likelihood of the data so far."""
        return self.log_ml_acc + logsumexp(self.log_weights()) - math.log(len(self.particles))


def smc_step(ps: ParticleSet, t: int, rng) -> None:
    """Advance every particle from t-1 to t.

    Per particle: sample the regime from the optimal proposal, multiply the
    weight by the one-step predictive of the observed cells, then fill each
    unobserved cell from the collapsed emission predictive and fold the full
    row into the particle's statistics.
    """
    if t != ps.cursor + 1:
        raise ValueError(f"cursor at {ps.cursor}, cannot step to {t}")
    col = ps.window + t - 1
    panel_observed = ps.panel_observed
    missing = [n for n in ps.particles[0].group.members if not panel_observed[n][col]]
    for particle in ps.particles:
        group = particle.group
        base, emis = group.regime_log_weights_split(
            t, particle.values, particle.filled, emission_observed=panel_observed
        )
        full = [b + e for b, e in zip(base, emis)]
        particle.log_weight += logsumexp(full) - logsumexp(base)
        for n in missing:  # the drawn fill-ins are folded in like observed cells
            particle.filled[n, col] = True
        group.draw(t, full, particle.values, particle.filled, rng, fill=missing)
        for n in missing:
            particle.imputed[(n, t)] = float(particle.values[n, col])
    ps.cursor = t


def maybe_resample(ps: ParticleSet, rng, threshold: float = 0.5) -> bool:
    """Multinomial resampling when ESS drops below threshold * J.

    On resampling, the mean weight folds into the marginal-likelihood
    accumulator and weights reset to uniform.
    """
    num = len(ps.particles)
    if ps.ess() >= threshold * num:
        return False
    lse = logsumexp(ps.log_weights())
    probs = ps.normalized_weights()
    counts = rng.multinomial(num, probs / probs.sum())
    survivors = []
    for j, c in enumerate(counts):
        for _ in range(c):
            survivors.append(ps.particles[j].clone())
    ps.particles = survivors
    ps.log_ml_acc += lse - math.log(num)
    for particle in ps.particles:
        particle.log_weight = 0.0
    return True


class SmcResult:
    __slots__ = ("z", "values", "imputed", "log_ml", "particle_set")

    def __init__(self, z, values, imputed, log_ml, particle_set):
        self.z = z
        self.values = values
        self.imputed = imputed
        self.log_ml = log_ml
        self.particle_set = particle_set


def smc_block_sample(
    members,
    alpha,
    hypers,
    panel_values,
    panel_observed,
    num_steps,
    window,
    num_particles,
    rng,
    ess_threshold: float = 0.5,
    keep_particles: bool = False,
) -> SmcResult:
    """Run the filter over t = 1..T and return one particle drawn by weight.

    Cost is O(J T K N p); normalizers never need retroactive recomputation,
    which is what makes this linear in T.
    """
    ps = ParticleSet(
        members, alpha, hypers, panel_values, panel_observed, num_steps, window, num_particles
    )
    for t in range(1, num_steps + 1):
        smc_step(ps, t, rng)
        if t < num_steps:
            maybe_resample(ps, rng, ess_threshold)
    log_ml = ps.log_marginal_likelihood()
    idx = gumbel_argmax(ps.log_weights(), rng)
    winner = ps.particles[idx]
    return SmcResult(
        z=list(winner.group.regimes.z),
        values=winner.values,
        imputed=dict(winner.imputed),
        log_ml=log_ml,
        particle_set=ps if keep_particles else None,
    )
