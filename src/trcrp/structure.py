"""Hierarchical outer partition of the series and its MH moves.

A series is reassigned by scoring how well its data fit each group's current
regime sequence (as if it were that group's only member), plus a fresh
singleton option whose sequence is forward-sampled from the lag-reweighted
prior.  The acceptance ratio combines full-group loglik ratios for the two
touched groups with the inverse proposal ratio; drawing the fresh sequence
from a tractable prior is what keeps the dimension-changing cases free of
reversible-jump machinery.

The empty-member loglik terms of the ratio are the *density the fresh or
reused sequence was proposed from* (the no-emission loglik of the moved series
alone), which makes the ratio exact for this proposal; this is validated
against log-joint differencing in the tests.

Every other term is a group's loglik over some ordered subset of series.  A
pass builds one :class:`~trcrp.model.PrefixStats` table per group the first
time it needs one, over every series' lag and emission cells, and reads each
subset's terms from it; only a freshly forward-sampled sequence is scored
without a table.  There is no memo across passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import (
    ChainState,
    GroupModel,
    PrefixStats,
    forward_sample_sequence,
    prefix_stats,
    sequence_loglik,
)
from .util import gumbel_argmax

__all__ = [
    "ClusterProposal",
    "propose_c",
    "accept_c",
    "sweep_c",
]

FRESH = 0  # proposal target meaning "new singleton group"


def _table(state: ChainState, tables: dict, group: GroupModel) -> PrefixStats:
    """``group``'s prefix table over every series' lag and emission cells, built once.

    The pass reads only the factors, block counts and slots (through
    :meth:`~trcrp.model.PrefixStats.subset_loglik`), so the table keeps no
    sufficient statistics.
    """
    table = tables.get(group)
    if table is None:
        table = prefix_stats(
            group.regimes.z, range(state.num_series), state.hypers,
            state.values, state.observed, state.panel.window, emission=True,
        )
        table = tables[group] = replace(
            table, count=None, total=None, total_sq=None, x=None, seen=None
        )
    return table


@dataclass
class ClusterProposal:
    series: int
    current: int
    target: int  # group label or FRESH
    # singleton slot: sequence, concentration, and its proposal log density
    slot_z: list[int]
    slot_alpha: float
    slot_log_density: float
    slot_loglik: float  # loglik of the moved series against the slot sequence
    member_logliks: dict[int, float]  # label -> loglik of series against that group
    log_weights: list[float]
    targets: list[int]


def propose_c(state: ChainState, n: int, rng, tables: dict) -> ClusterProposal:
    """Score every destination for series n and draw one.

    Existing groups weigh as (member count without n) times the fit of n's
    data to their sequence; the singleton slot weighs as alpha0 times the fit
    to a fresh sequence, forward-sampled from the lag-reweighted prior with a
    Gamma(1,1) concentration (or the series' own sequence when it already
    sits alone, in which case choosing the slot is a no-op).  ``tables``
    holds the pass's group tables (see :func:`sweep_c`).
    """
    current = state.assignments[n]
    cur_group = state.group_of(n)
    is_singleton = len(cur_group.members) == 1

    targets = []
    weights = []
    member_logliks = {}
    for m, group in enumerate(state.groups, start=1):
        others = len(group.members) - (1 if m == current else 0)
        if others == 0:
            continue
        fit = _table(state, tables, group).subset_loglik([n], group.alpha)
        member_logliks[m] = fit
        targets.append(m)
        weights.append(math.log(others) + fit)

    if is_singleton:
        slot_z = list(cur_group.regimes.z)
        slot_alpha = cur_group.alpha
        table = _table(state, tables, cur_group)
        slot_log_density = table.subset_loglik([n], slot_alpha, emission=False)
        slot_loglik = table.subset_loglik([n], slot_alpha)
    else:
        slot_alpha = float(rng.gamma(1.0, 1.0))
        slot_z, slot_log_density = forward_sample_sequence(
            [n],
            slot_alpha,
            state.hypers,
            state.values,
            state.observed,
            state.panel.num_steps,
            state.panel.window,
            rng,
        )
        slot_loglik = sequence_loglik(
            slot_z, [n], slot_alpha, state.hypers, state.values, state.observed,
            state.panel.window,
        )
    targets.append(FRESH)
    weights.append(math.log(state.alpha0) + slot_loglik)

    choice = gumbel_argmax(weights, rng)
    return ClusterProposal(
        series=n,
        current=current,
        target=targets[choice],
        slot_z=slot_z,
        slot_alpha=slot_alpha,
        slot_log_density=slot_log_density,
        slot_loglik=slot_loglik,
        member_logliks=member_logliks,
        log_weights=weights,
        targets=targets,
    )


def cluster_log_ratio(state: ChainState, proposal: ClusterProposal, tables: dict) -> float:
    """Exact MH log ratio for the proposed move (0 for no-ops)."""
    n = proposal.series
    current = proposal.current
    target = proposal.target
    cur_group = state.groups[current - 1]
    is_singleton = len(cur_group.members) == 1
    if target == current or (target == FRESH and is_singleton):
        return 0.0

    if target == FRESH:
        tgt_with = proposal.slot_loglik
        tgt_without = proposal.slot_log_density
        tgt_fit = proposal.slot_loglik
    else:
        tgt_group = state.groups[target - 1]
        table = _table(state, tables, tgt_group)
        tgt_without = table.subset_loglik(tgt_group.members, tgt_group.alpha)
        tgt_with = table.subset_loglik(tgt_group.members + [n], tgt_group.alpha)
        tgt_fit = proposal.member_logliks[target]

    table = _table(state, tables, cur_group)
    cur_with = table.subset_loglik(cur_group.members, cur_group.alpha)
    if is_singleton:
        cur_without = proposal.slot_log_density
        cur_fit = cur_with
    else:
        remaining = [m for m in cur_group.members if m != n]
        cur_without = table.subset_loglik(remaining, cur_group.alpha)
        cur_fit = proposal.member_logliks[current]

    return (tgt_with + cur_without) - (tgt_without + cur_with) + (cur_fit - tgt_fit)


def accept_c(state: ChainState, proposal: ClusterProposal, rng, tables: dict, heuristic=False):
    """Accept/reject the proposal and apply it; returns (accepted, moved, log_r)."""
    n = proposal.series
    current = proposal.current
    target = proposal.target
    cur_group = state.groups[current - 1]
    is_singleton = len(cur_group.members) == 1
    if target == current or (target == FRESH and is_singleton):
        return True, False, 0.0
    log_r = 0.0
    if not heuristic:
        log_r = cluster_log_ratio(state, proposal, tables)
        if log_r < 0 and math.log(rng.random()) >= log_r:
            return False, False, log_r
    _apply_move(state, proposal)
    return True, True, log_r


def _apply_move(state: ChainState, proposal: ClusterProposal) -> None:
    n = proposal.series
    current = proposal.current
    target = proposal.target
    cur_group = state.groups[current - 1]
    removed = len(cur_group.members) == 1
    if removed:
        state.groups.pop(current - 1)
        for j, label in enumerate(state.assignments):
            if label > current:
                state.assignments[j] = label - 1
        if target != FRESH and target > current:
            target -= 1
    else:
        cur_group.drop_member(n)

    if target == FRESH:
        fresh = GroupModel(
            [n], proposal.slot_alpha, state.panel.num_steps, state.panel.window, state.hypers
        )
        fresh.load_sequence(proposal.slot_z, state.values, state.observed)
        state.groups.append(fresh)
        state.assignments[n] = len(state.groups)
    else:
        tgt_group = state.groups[target - 1]
        tgt_group.add_member(n, state.values, state.observed)
        state.assignments[n] = target


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
