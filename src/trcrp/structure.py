"""Hierarchical outer partition of the series and its MH moves.

A series is reassigned by scoring how well its data fit each group's current
regime sequence (as if it were that group's only member), plus a singleton
slot.  As in Neal's (2000) auxiliary-component scheme every destination is a
group, and the slot is one more: for a series that shares its group, a fresh
one-member group whose sequence :meth:`~trcrp.model.GroupModel.rollout`
forward-samples from the lag-reweighted prior; for a series that sits alone,
its own group.  So a proposal is a no-op exactly when its target is its
current group.  Drawing the fresh sequence from a tractable prior keeps the
dimension-changing moves free of reversible-jump machinery.

The acceptance ratio combines full-group loglik ratios for the two touched
groups with the inverse proposal ratio.  Its empty-member terms are the
*density the fresh or reused sequence was proposed from* (the no-emission
loglik of the moved series alone), which makes the ratio exact for this
proposal; this is validated against log-joint differencing in the tests.

Every term is a group's loglik over some ordered subset of series.  A pass
builds one :class:`~trcrp.model.PrefixStats` table per group the first time it
needs one, over every series' lag and emission cells, and reads each subset's
terms from it; a fresh slot's one-series table gives its proposal density and
its loglik.  An accepted move takes the series out of its group's member list
(removing the group it leaves empty) and into the target's, appending the
slot; a group stores no statistics, so nothing else changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import ChainState, GroupModel, PrefixStats, prefix_stats
from .util import gumbel_argmax

__all__ = [
    "ClusterProposal",
    "propose_c",
    "accept_c",
    "sweep_c",
]


def _table(state: ChainState, tables: dict, group: GroupModel) -> PrefixStats:
    """``group``'s prefix table over every series' lag and emission cells, built once.

    The pass reads only the factors, block counts and slots (through
    :meth:`~trcrp.model.PrefixStats.subset_loglik`), so the table keeps no
    sufficient statistics.
    """
    table = tables.get(group)
    if table is None:
        cells = state.layout(range(state.num_series), state.panel.window)
        table = prefix_stats(group.regimes.z, cells)
        table = tables[group] = replace(table, count=None, total=None, total_sq=None)
    return table


@dataclass
class ClusterProposal:
    series: int
    current: GroupModel
    target: GroupModel  # an existing group, or ``slot`` for a new one
    # singleton slot: its one-member group and the proposal log density of its sequence
    slot: GroupModel
    slot_log_density: float
    slot_loglik: float  # loglik of the moved series against the slot sequence
    member_logliks: dict[GroupModel, float]  # group -> loglik of series against it
    log_weights: list[float]
    targets: list[GroupModel]


def propose_c(state: ChainState, n: int, rng, tables: dict) -> ClusterProposal:
    """Score every destination for series n and draw one.

    Existing groups weigh as (member count without n) times the fit of n's
    data to their sequence; the singleton slot weighs as alpha0 times the fit
    to a fresh one-member group, forward-sampled from the lag-reweighted prior
    with a Gamma(1,1) concentration (or the series' own group when it already
    sits alone, in which case choosing the slot is a no-op).  ``tables``
    holds the pass's group tables (see :func:`sweep_c`).
    """
    current = state.group_of(n)
    targets, weights, member_logliks = [], [], {}
    for group in state.groups:
        others = len(group.members) - (group is current)
        if others == 0:
            continue
        fit = _table(state, tables, group).subset_loglik([n], group.alpha)
        member_logliks[group] = fit
        targets.append(group)
        weights.append(math.log(others) + fit)

    if len(current.members) == 1:
        slot = current
        table = _table(state, tables, current)
    else:
        panel = state.panel
        alpha = float(rng.gamma(1.0, 1.0))
        slot = GroupModel([n], alpha, panel.num_steps, panel.window, state.hypers)
        slot.rollout(range(1, panel.num_steps + 1), state.values, state.observed, rng, emit=False)
        table = prefix_stats(slot.regimes.z, state.layout([n], panel.window))
    slot_log_density = table.subset_loglik([n], slot.alpha, emission=False)
    slot_loglik = table.subset_loglik([n], slot.alpha)
    targets.append(slot)
    weights.append(math.log(state.alpha0) + slot_loglik)

    choice = gumbel_argmax(weights, rng)
    return ClusterProposal(
        series=n,
        current=current,
        target=targets[choice],
        slot=slot,
        slot_log_density=slot_log_density,
        slot_loglik=slot_loglik,
        member_logliks=member_logliks,
        log_weights=weights,
        targets=targets,
    )


def cluster_log_ratio(state: ChainState, proposal: ClusterProposal, tables: dict) -> float:
    """Exact MH log ratio for a proposal that moves its series (``target is not current``)."""
    n, cur_group, tgt_group = proposal.series, proposal.current, proposal.target
    if tgt_group is proposal.slot:
        tgt_with = tgt_fit = proposal.slot_loglik
        tgt_without = proposal.slot_log_density
    else:
        table = _table(state, tables, tgt_group)
        tgt_without = table.subset_loglik(tgt_group.members, tgt_group.alpha)
        tgt_with = table.subset_loglik(tgt_group.members + [n], tgt_group.alpha)
        tgt_fit = proposal.member_logliks[tgt_group]

    table = _table(state, tables, cur_group)
    cur_with = table.subset_loglik(cur_group.members, cur_group.alpha)
    if len(cur_group.members) == 1:
        cur_without = proposal.slot_log_density
        cur_fit = cur_with
    else:
        remaining = [m for m in cur_group.members if m != n]
        cur_without = table.subset_loglik(remaining, cur_group.alpha)
        cur_fit = proposal.member_logliks[cur_group]

    return (tgt_with + cur_without) - (tgt_without + cur_with) + (cur_fit - tgt_fit)


def accept_c(state: ChainState, proposal: ClusterProposal, rng, tables: dict, heuristic=False):
    """Accept/reject the proposal and apply it; returns (accepted, moved, log_r)."""
    n, current, target = proposal.series, proposal.current, proposal.target
    if target is current:
        return True, False, 0.0
    log_r = 0.0
    if not heuristic:
        log_r = cluster_log_ratio(state, proposal, tables)
        if log_r < 0 and math.log(rng.random()) >= log_r:
            return False, False, log_r
    if len(current.members) == 1:
        state.groups.remove(current)
    else:
        current.members.remove(n)
    if target is proposal.slot:
        state.groups.append(target)
    else:
        target.members.append(n)
    return True, True, log_r


def sweep_c(state: ChainState, rng, heuristic=False) -> dict:
    """One reassignment pass over every series.

    The pass keeps one prefix table per group, keyed by the group object:
    moves change memberships but never a group's sequence, its concentration
    or the hypers, so a table stays valid for the whole pass.
    """
    tables: dict = {}
    stats = {"series": 0, "accepted": 0, "moved": 0}
    for n in range(state.num_series):
        proposal = propose_c(state, n, rng, tables)
        accepted, moved, _ = accept_c(state, proposal, rng, tables, heuristic=heuristic)
        stats["series"] += 1
        stats["accepted"] += accepted
        stats["moved"] += moved
    return stats
