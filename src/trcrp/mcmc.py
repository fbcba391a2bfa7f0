"""Single-site Metropolis-Hastings over regime assignments.

The proposal is the full conditional of one time step's regime given every
other assignment and all data; the acceptance ratio is the product over later
steps of coupling-normalizer ratios.  That ratio is exact for this proposal:
the CRP and predictive factors of the proposal cancel against the time-t
factors of the joint, leaving only the downstream normalizers, whose data
differ between the two configurations in at most the two regimes that gain or
lose time t.

Always-accept mode skips the normalizer pass entirely; proposals track the
target closely enough that this is the designated initialization strategy,
not a correct sampler, and the engine uses it only for early sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conjugate import NigStats, predictive_logpdf_raw
from .util import gumbel_argmax, logsumexp

__all__ = ["MhConfig", "NEW_REGIME", "propose_z", "acceptance_log_ratio", "sweep_z"]

# Branch descriptor for "put t in a fresh regime"; existing regimes are their label.
NEW_REGIME = 0


@dataclass
class MhConfig:
    full_mh: bool = True


def propose_z(group, t, values, observed, rng):
    """Draw a candidate regime for time t from its collapsed full conditional.

    Contract: time t's contributions are already removed from the group's
    statistics.  Missing cells at t contribute no emission factor and the
    cohesion skips unobserved lag cells.  Returns
    ``(branch, proposal_logprob, log_weights)`` where ``branch`` is an
    existing label or ``NEW_REGIME``.
    """
    base, emis = group.regime_log_weights_split(t, values, observed, observed)
    weights = [b + e for b, e in zip(base, emis)]
    idx = gumbel_argmax(weights, rng)
    logprob = weights[idx] - logsumexp(weights)
    branch = NEW_REGIME if idx == len(weights) - 1 else idx + 1
    return branch, logprob, weights


def acceptance_log_ratio(group, t, branch_old, branch_new, values, observed) -> float:
    """Sum over later steps of the log normalizer ratio new-over-old.

    Contract as in :func:`propose_z`: time t is unassigned.  One forward pass
    rebuilds the prefix statistics excluding t; at each later step the two
    configurations share every regime except the one holding t, so only that
    regime's weight is recomputed per branch.
    """
    if branch_old == branch_new:
        return 0.0
    if t >= group.num_steps:
        return 0.0
    p = group.window
    col_t = p + t - 1
    # time-t lag contributions per member (None where the lag cell is unobserved)
    t_lags = {}
    for n in group.members:
        vrow = values[n]
        orow = observed[n]
        t_lags[n] = [
            float(vrow[col_t - i]) if orow[col_t - i] else None for i in range(1, p + 1)
        ]

    scratch = group.empty_clone()
    delta = 0.0
    for t2, _, label_map in scratch.replay(group.regimes.z, values, observed, skip=t):
        if t2 > t:
            base = scratch.reweighted_log_weights(t2, values, observed)
            lse_old = _branch_lse(scratch, base, branch_old, label_map, t2, t_lags, values, observed)
            lse_new = _branch_lse(scratch, base, branch_new, label_map, t2, t_lags, values, observed)
            delta += lse_old - lse_new
    return delta


def _branch_lse(scratch, base, branch, label_map, t2, t_lags, values, observed):
    """Log-normalizer at t2 with time t's block folded into ``branch``."""
    p = scratch.window
    col2 = p + t2 - 1
    k = label_map.get(branch) if branch != NEW_REGIME else None
    aug = math.log((scratch.regimes.counts[k - 1] if k is not None else 0) + 1)
    empty_row = [NigStats()] * p
    for n in scratch.members:
        orow = observed[n]
        vrow = values[n]
        hypers = scratch.hypers[n].cohesion
        contrib = t_lags[n]
        stats_row = scratch.cohesion[n][k - 1] if k is not None else empty_row
        for i in range(1, p + 1):
            if not orow[col2 - i]:
                continue
            h = hypers[i - 1]
            s = stats_row[i - 1]
            cnt, sm, ssq = s.count, s.sum, s.sum_sq
            v = contrib[i - 1]
            if v is not None:
                cnt += 1
                sm += v
                ssq += v * v
            aug += predictive_logpdf_raw(
                h.m, h.V, h.a, h.b, cnt, sm, ssq, float(vrow[col2 - i])
            )
    if k is None:
        entries = base + [aug]
    else:
        entries = list(base)
        entries[k - 1] = aug
    return logsumexp(entries)


def transition_site(group, t, values, observed, rng, full_mh: bool):
    """One propose/accept/apply step at time t; returns (moved, accepted)."""
    k_old, removed = group.unassign(t, values, observed)
    branch_old = NEW_REGIME if removed else k_old
    branch, _, _ = propose_z(group, t, values, observed, rng)
    accepted = True
    if full_mh and branch != branch_old:
        log_r = acceptance_log_ratio(group, t, branch_old, branch, values, observed)
        if log_r < 0 and math.log(rng.random()) >= log_r:
            branch = branch_old
            accepted = False
    if branch == NEW_REGIME:
        k = group.add_regime()
    else:
        k = branch
    group.assign(t, k, values, observed)
    return branch != branch_old if accepted else False, accepted


def sweep_z(group, values, observed, rng, config: MhConfig) -> dict:
    """One pass over t = 1..T in order.

    Returns acceptance statistics; in always-accept mode every proposal is
    applied and ``accepted`` equals ``sites``.
    """
    stats = {"sites": 0, "accepted": 0, "moved": 0}
    for t in range(1, group.num_steps + 1):
        moved, accepted = transition_site(group, t, values, observed, rng, config.full_mh)
        stats["sites"] += 1
        stats["accepted"] += accepted
        stats["moved"] += moved
    group.maintain(values, observed)
    return stats
