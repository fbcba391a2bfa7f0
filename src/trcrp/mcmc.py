"""Single-site Metropolis-Hastings over regime assignments.

The proposal is the full conditional of one time step's regime given every
other assignment and all data; the acceptance ratio is the product over later
steps of coupling-normalizer ratios.  That ratio is exact for this proposal:
the CRP and predictive factors of the proposal cancel against the time-t
factors of the joint, leaving only the downstream normalizers, whose data
differ between the two configurations in at most the two regimes that gain or
lose time t.  Both sets of normalizers come from the array prefix statistics
of :func:`trcrp.model.prefix_stats`, over one emission-free
:func:`~trcrp.model.cell_layout` of the group that a sweep builds once.

Always-accept mode skips the normalizer pass entirely; proposals track the
target closely enough that this is the designated initialization strategy,
not a correct sampler, and the engine uses it only for early sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import cell_layout, prefix_stats
from .util import gumbel_argmax

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
    cohesion skips unobserved lag cells.  Returns an existing label or
    ``NEW_REGIME``.
    """
    weights = group.regime_log_weights(t, values, observed, True)
    idx = gumbel_argmax(weights, rng)
    return NEW_REGIME if idx == len(weights) - 1 else idx + 1


def acceptance_log_ratio(group, t, branch_old, branch_new, cells) -> float:
    """Sum over later steps of the log normalizer ratio new-over-old.

    Contract as in :func:`propose_z`: time t is unassigned.  ``cells`` is the
    group's emission-free :func:`~trcrp.model.cell_layout`.  The group's
    sequence is completed with t in ``branch_old`` and, separately, in
    ``branch_new`` (a fresh regime takes the next unused label); the
    no-emission per-step log normalizers of both sequences come from one
    prefix-statistics pass each, and the ratio sums their difference over the
    steps after t, where the two configurations differ.
    """
    if branch_old == branch_new or t >= group.num_steps:
        return 0.0
    normalizers = []
    for branch in (branch_old, branch_new):
        z = list(group.regimes.z)
        z[t - 1] = branch if branch != NEW_REGIME else group.regimes.num_regimes + 1
        prefix = prefix_stats(z, cells)
        normalizers.append(prefix.log_normalizers(prefix.log_weights(group.alpha))[t:])
    return float((normalizers[0] - normalizers[1]).sum())


def transition_site(group, t, values, observed, rng, cells):
    """One propose/accept/apply step at time t; returns (moved, accepted).

    ``cells`` is the layout of :func:`acceptance_log_ratio`, or None to apply
    every proposal.
    """
    k_old, removed = group.unassign(t, values, observed)
    branch_old = NEW_REGIME if removed else k_old
    branch = propose_z(group, t, values, observed, rng)
    accepted = True
    if cells is not None and branch != branch_old:
        log_r = acceptance_log_ratio(group, t, branch_old, branch, cells)
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
    cells = None
    if config.full_mh:
        members, hypers = group.members, group.hypers
        cells = cell_layout(members, hypers, values, observed, group.window, emission=False)
    stats = {"sites": 0, "accepted": 0, "moved": 0}
    for t in range(1, group.num_steps + 1):
        moved, accepted = transition_site(group, t, values, observed, rng, cells)
        stats["sites"] += 1
        stats["accepted"] += accepted
        stats["moved"] += moved
    group.rebuild_stats(values, observed)
    return stats
