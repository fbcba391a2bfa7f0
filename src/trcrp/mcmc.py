"""Single-site Metropolis-Hastings over regime assignments.

The proposal is the full conditional of one time step's regime given every
other assignment and all data; the acceptance ratio is the product over later
steps of coupling-normalizer ratios.  That ratio is exact for this proposal:
the CRP and predictive factors of the proposal cancel against the time-t
factors of the joint, leaving only the downstream normalizers, whose data
differ between the two configurations in at most the two regimes that gain or
lose time t.

A sweep folds the group's :class:`~trcrp.model.GroupStats` from its sequence
at its start, scores each proposal from them, and drops them at its end, so
a group keeps only its sequence between sweeps.  A full-MH sweep keeps one
:class:`SweepTable` per group: the no-emission log weight of each regime at
every step, in the column its label numbers, and the sequence's per-step log
normalizers, built by one
:func:`~trcrp.model.prefix_stats` pass over the group's emission-free
:func:`~trcrp.model.cell_layout` at the sweep's first ratio call, so a sweep
whose proposals all keep their regime builds none.  A site rescores only the
columns of the regimes that lose or gain it, at the steps after it, with
:func:`~trcrp.model.prefix_columns`, the same scorer the prefix pass runs; an
accepted move writes them back.  A sweep so scores O(T^2) (cell, step, column)
entries, where a prefix pass per completed sequence would score O(T^2 K).  The
ratio has the bits of those two passes: the columns are gathered in the new
sequence's first-appearance order before the normalizers sum over them.

Always-accept mode skips the ratio entirely; proposals track the target
closely enough that this is the designated initialization strategy, not a
correct sampler, and the engine uses it only for early sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GroupStats, PrefixStats, cell_layout, prefix_columns, prefix_stats
from .util import gumbel_argmax

__all__ = [
    "MhConfig",
    "NEW_REGIME",
    "SweepTable",
    "propose_z",
    "acceptance_log_ratio",
    "sweep_z",
]

# Branch descriptor for "put t in a fresh regime"; existing regimes are their label.
NEW_REGIME = 0


@dataclass
class MhConfig:
    full_mh: bool = True


class SweepTable:
    """Log weights of one group's regime sequence, one column per label, for a sweep.

    ``base`` is (T, K+1): column k is regime k's no-emission log weight at
    every step, the log block size plus the cohesion over the group's
    emission-free :func:`~trcrp.model.cell_layout`, ``cells``; column 0 is
    the fresh block's, the log concentration plus cohesion.  The columns
    follow the group's labels through :meth:`drop` and :meth:`settle`.
    ``normalizers`` holds the sequence's per-step log normalizers.  After a
    move at t, rows up to t keep the old sequence's bits, which a sweep no
    longer reads.  ``site`` is ``(t, branch_old)`` while t is unassigned: the
    table is then the sequence's with t back in ``branch_old``, and a regime
    that t's removal emptied (``NEW_REGIME``) is the last label, whose column
    is last, where :meth:`drop` puts it.
    """

    def __init__(self, group, values, observed, lgamma, site=None):
        self.group = group
        self.cells = cell_layout(
            group.members, group.hypers, values, observed, group.window, lgamma, emission=False
        )
        z = list(group.regimes.z)
        if site is not None:
            t, branch = site
            z[t - 1] = branch if branch != NEW_REGIME else group.regimes.num_regimes + 1
        weights = prefix_stats(z, self.cells).log_weights(group.alpha)
        self.normalizers = PrefixStats.log_normalizers(weights)
        rank = {k: r for r, k in enumerate(dict.fromkeys(z))}
        self.base = weights.take([-1] + [rank[k] for k in range(1, len(rank) + 1)], axis=1)
        self.pending = None  # the last proposal's labels, rescored columns and normalizers
        with np.errstate(divide="ignore"):
            self.log_sizes = np.log(np.arange(group.num_steps + 1))

    def drop(self, k: int) -> None:
        """Follow :meth:`~trcrp.model.GroupStats.unassign` emptying regime k.

        Its column moves last, where :meth:`~trcrp.model.GroupStats.add_regime`
        puts the regime back if t stays.
        """
        self.base[:, k:] = np.roll(self.base[:, k:], -1, axis=1)

    def rescore(self, t: int, labels) -> np.ndarray:
        """The (T - t, L) columns of ``labels`` at the steps after t.

        Time t belongs to the last label only; every other label has lost it.
        A label past the group's last one is a fresh regime.  The columns'
        factors come from :func:`~trcrp.model.prefix_columns`, the scorer of
        :func:`~trcrp.model.prefix_stats`, over the labels' membership.
        """
        member = np.array(self.group.regimes.z)[:, None] == labels
        member[t - 1, -1] = True
        factors = prefix_columns(member, self.cells, t)[3]
        sizes = np.cumsum(member[:-1], axis=0)[t - 1 :]
        return self.log_sizes[sizes] + factors.sum(axis=0)

    def settle(self, t: int, moved: bool) -> None:
        """Follow the group after it assigned t.

        ``base`` takes the group's width: a regime that emptied at t and did
        not come back loses its trailing column, and a fresh regime gains a
        column of -inf, the log size of a block with no steps before t.
        ``moved`` says the last proposal was accepted and changed t's regime;
        then its rescored columns and normalizers become the table's.
        """
        width = self.group.regimes.num_regimes + 1
        if self.base.shape[1] > width:
            self.base = self.base[:, :width]
        elif self.base.shape[1] < width:
            self.base = np.pad(self.base, ((0, 0), (0, 1)), constant_values=-np.inf)
        if moved and self.pending is not None:
            labels, block, normalizers = self.pending
            self.base[t:, labels] = block
            self.normalizers[t:] = normalizers
        self.pending = None


def propose_z(stats, t, rng):
    """Draw a candidate regime for time t from its collapsed full conditional.

    Contract: time t's contributions are already removed from ``stats``, the
    pass's :class:`~trcrp.model.GroupStats`.  Missing cells at t contribute
    no emission factor and the cohesion skips unobserved lag cells.  Returns
    an existing label or ``NEW_REGIME``.
    """
    weights = stats.regime_log_weights(t, True)
    idx = gumbel_argmax(weights, rng)
    return NEW_REGIME if idx == len(weights) - 1 else idx + 1


def acceptance_log_ratio(table: SweepTable, t, branch_old, branch_new) -> float:
    """Sum over later steps of the log normalizer ratio new-over-old.

    Contract as in :func:`propose_z`: time t is unassigned, and ``table``
    holds the group's sequence with t in ``branch_old``.  Completing the
    sequence with t in ``branch_new`` (a fresh regime takes the next unused
    label) changes, at the steps after t, only the columns of the regimes
    that lose or gain t.  Those are rescored (:meth:`SweepTable.rescore`),
    every column is gathered in the new sequence's first-appearance order, as
    :func:`~trcrp.model.prefix_stats` numbers blocks, and the ratio sums the
    difference of the two sequences' normalizers over the steps after t.  The
    table keeps the new normalizers until :meth:`SweepTable.settle`.
    """
    group = table.group
    if branch_old == branch_new or t >= group.num_steps:
        return 0.0
    new = branch_new if branch_new != NEW_REGIME else group.regimes.num_regimes + 1
    labels = [new] if branch_old == NEW_REGIME else [branch_old, new]
    block = table.rescore(t, labels)
    z = group.regimes.z
    rescored = {k: table.base.shape[1] + j for j, k in enumerate(labels)}
    order = [rescored.get(k, k) for k in dict.fromkeys(z[: t - 1] + [new] + z[t:])]
    # take, not a fancy index, which would return the rows strided: each row
    # must be contiguous to be summed in the order a prefix pass sums it
    base = np.concatenate([table.base[t:], block], axis=1).take(order + [0], axis=1)
    normalizers = PrefixStats.log_normalizers(base)
    table.pending = labels, block, normalizers
    return float((table.normalizers[t:] - normalizers).sum())


def transition_site(stats, t, rng, full_mh, table, lgamma):
    """One propose/accept/apply step at time t; returns (moved, accepted, table).

    ``stats`` is the pass's :class:`~trcrp.model.GroupStats`.  Without
    ``full_mh`` every proposal is applied.  With it, ``table`` is the group's
    :class:`SweepTable`, or None until the first proposal that would move t
    builds it for the ratio from the chain's ``lgamma`` table.
    """
    k_old, removed = stats.unassign(t)
    branch_old = NEW_REGIME if removed else k_old
    if table is not None and removed:
        table.drop(k_old)
    branch = propose_z(stats, t, rng)
    accepted = True
    if full_mh and branch != branch_old:
        if table is None:
            table = SweepTable(stats.group, stats.values, stats.observed, lgamma, site=(t, branch_old))
        log_r = acceptance_log_ratio(table, t, branch_old, branch)
        if log_r < 0 and math.log(rng.random()) >= log_r:
            branch = branch_old
            accepted = False
    k = stats.add_regime() if branch == NEW_REGIME else branch
    stats.assign(t, k)
    moved = accepted and branch != branch_old
    if table is not None:
        table.settle(t, moved)
    return moved, accepted, table


def sweep_z(group, values, observed, rng, config: MhConfig, lgamma) -> dict:
    """One pass over t = 1..T in order.

    The pass folds the group's :class:`~trcrp.model.GroupStats` from its
    sequence at its start and drops them at its end.  A full-MH sweep builds
    the group's :class:`SweepTable` at its first ratio call, from the
    chain's ``lgamma`` table, and keeps it through every later site, one
    column per regime label as regimes empty and appear.  Returns acceptance
    statistics; in always-accept mode every proposal is applied and
    ``accepted`` equals ``sites``.
    """
    stats = GroupStats(group, values, observed)
    table = None
    tally = {"sites": 0, "accepted": 0, "moved": 0}
    for t in range(1, group.num_steps + 1):
        moved, accepted, table = transition_site(stats, t, rng, config.full_mh, table, lgamma)
        tally["sites"] += 1
        tally["accepted"] += accepted
        tally["moved"] += moved
    return tally
