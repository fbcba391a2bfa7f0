"""Particle-learning block sampler for the regime sequences of chains' groups.

Given the outer partition, the groups' regime sequences are independent, so
one filter steps all of them: G groups of J particles each live in stacked
arrays, particle (g, j) at row g*J + j.  The groups may be several chains',
each chain's adjacent and drawing from its own Generator: the engine
initialises a fit's chains together in the calling process, in sets of up to
:data:`SET_ENTRIES` entries, which :func:`set_runs` packs for SMC init and
forecasts alike.  Per particle: the regime labels ``z`` of the steps
filtered so far, its block count ``num_blocks`` and block sizes, its log
weight and its group's log concentration.  Per entry, one for each
particle and each cell its group has (its members' lags, then their
emissions): the count, sum and sum of squares of the cell's observed values
per block, ``count[e, k]``, and the Student-t form of each block's
predictive that these give, ``form[:, e, k]``
(:func:`~trcrp.conjugate.student_t_form_array`).  A set holds no entry for a
cell its particle's group lacks.  The cells' values are rows of one
:class:`~trcrp.model.CellLayout` over the members of all the groups, the
layout prefix passes read; each entry's NIG cell, gathered from its own
group's chain hypers array, and lgamma row, an index into the fit's (or
forecast's) :class:`~trcrp.conjugate.LgammaTable`, are its own group's, so
groups of different hypers, or of different chains, share a set.  Block k is
label k+1, and column ``num_blocks[p]`` is the particle's fresh block, with
empty statistics.

A step scores every entry and block from its forms with one
:func:`~trcrp.conjugate.student_t_logpdf_array` call, one ``log1p`` per
(entry, block), and adds each particle's lag and emission factors with one
``np.bincount``.  Each group's :func:`smc_step` then updates its particles'
weights from those scores and draws their regimes with one Gumbel argmax,
and the loop folds every particle's draw with one
:meth:`ParticleSet.assign`.  Only the drawn column's statistics change, so
the fold rebuilds that column's forms alone.  Resampling is an index gather
within each group, and ``log_ml`` is kept per group.

A chain makes the Generator calls it makes when filtered alone: per step
one (J, K_c+1) Gumbel draw for each of its groups, with K_c the largest block
count among the chain's own particles, one ``multinomial`` call over its
groups whose ESS falls below the threshold, and one final (G_c, J) Gumbel
draw.  So its draws are those of a set of its own.  ``bincount`` adds a
particle's factors one at a time in entry order, whatever else the set
holds, so its lag and emission sums have the bits of a set of its own at
every step, the first included (there each particle has one column, and a
numpy ``sum`` over its cells would add 8 or more of them pairwise).  Only
its step normalizers may differ in the last bit: they reduce over the set's
width, and numpy sums 8 columns or more pairwise, in an order that the
columns past the chain's own width move.  Forecasts
(:func:`trcrp.predict.forecast`) reuse the particles as copies of fitted
groups, one set for the groups of many chains whatever their hypers and
member counts: each copy starts from the statistics of its group's
sequence, scores the lag entries only and has its own row of cell values,
since a future lag reads that copy's own draws.

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

from .conjugate import student_t_form_array, student_t_logpdf_array
from .model import PrefixStats, cell_layout, fold_stats, hyper_columns
from .util import NEG_INF

__all__ = [
    "NumericalError",
    "ParticleSet",
    "set_runs",
    "smc_step",
    "maybe_resample",
    "smc_block_sample",
]

# resample when the effective sample size drops below this fraction of J
ESS_THRESHOLD = 0.5

# Entries, the (particle, cell) pairs a set holds, up to which the engine
# adds chains to one set.  A step costs a fixed ~120 us of numpy calls plus
# a share per entry.  Measured with perf_counter on one core (numpy 2.4,
# x86-64 with AVX-512), filtering the first 1-64 chains of one 6-series,
# window-3 panel at J = 8, the best of 7 runs: a step costs 950 ns per entry
# at 192 entries, 460 at 768, and 360-410 from 1,500 up to 12,000.  From
# about 1,500 entries on, a step's time is linear in its entries, so a bigger
# set saves no more fixed cost; it only holds more memory.
SET_ENTRIES = 4096


def set_runs(items) -> list[slice]:
    """Runs of consecutive ``items`` whose groups share a particle set, as slices.

    An item is ``(copies, groups)``: SMC init packs a chain's groups at its
    particle count, a forecast one group at its chain's draw count.  An item
    joins the run before it while the run's set stays within
    :data:`SET_ENTRIES` entries, the largest copy count of the run times the
    cells of all its groups' members, J x sum of members x (p+1); otherwise
    it starts a run, alone if it is above that itself.
    """
    runs = []
    for i, (num, groups) in enumerate(items):
        size = sum(len(group.members) * (group.window + 1) for group in groups)
        if runs and max(copies, num) * (cells + size) <= SET_ENTRIES:
            runs[-1] = slice(runs[-1].start, i + 1)
            copies, cells = max(copies, num), cells + size
        else:
            runs.append(slice(i, i + 1))
            copies, cells = num, size
    return runs


def _ranges(first: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ranges ``first[i] .. first[i] + size[i] - 1``, one after another."""
    end = np.cumsum(size)
    return np.repeat(first - end + size, size) + np.arange(size.sum())


class NumericalError(RuntimeError):
    """Collapsed particle weights or a non-finite log joint.

    ``args[0]`` is the message; a second argument, when present, is the
    failing chain's state payload.
    """

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class ParticleSet:
    """J particles of each of the ``groups``' regime sequences as stacked arrays.

    See the module notes.  The groups share the panel ``values`` and
    ``observed`` and its steps.  A group's window may be below the panel's:
    it then scores its own lags only, so its steps read the panel's columns.
    ``cells`` is the :class:`~trcrp.model.CellLayout` of the groups' members
    over the steps of ``values``; its hypers are the first group's, and no
    entry reads them.  The entry axis holds one entry per
    particle and cell of its group: ``row[e]`` is entry e's layout row and
    ``particle[e]`` its particle.  The first ``num_lags`` entries are the lag
    cells, particle by particle, each particle's in its group's member order
    and then lag order; the emission entries follow, particle by particle.
    ``first[0, p]`` and ``span[0, p]`` are particle p's first lag entry and
    its number of lag entries, ``first[1, p]`` and ``span[1, p]`` the same
    for its emission entries (see :meth:`entries`).  ``count``,
    ``total`` and ``total_sq`` are (entries, capacity), ``form`` is (4,
    entries, capacity), the loc, dof times squared scale, a' + 1/2 and
    constant of :func:`~trcrp.conjugate.student_t_form_array` for each entry
    and block, and ``sizes`` is (G*J, capacity).  ``hyper`` and ``lgamma``
    hold each entry's hypers and lgamma row, (entries,), gathered once per
    cell of a group from that group's ``hypers`` array; they are what a fold
    reads.
    The capacity doubles when a step is scored whose fresh block would fall
    outside it; the new blocks are empty and their forms the prior's.
    Every particle of group g starts as a copy of it: its regime sequence
    and blocks, and the statistics and forms they give, which are empty (the
    prior's) for the filter's empty groups.  Each group's own
    rows are folded by one :func:`~trcrp.model.fold_stats` pass over the
    groups' sequences, whose labels are 0 past a group's own steps, and
    formed once; its J particles gather them.  ``scored`` holds the scores of
    the step scored last, which every group's :func:`smc_step` at that step
    reads.

    ``chain[g]`` is group g's chain, numbered 0..C-1 in order, so that a
    chain's groups are adjacent; by default all groups are chain 0.  The
    groups' hypers may differ, within a chain or across chains.
    """

    def __init__(self, groups, values, observed, lgamma, num_particles, chain=None):
        if num_particles < 1:
            raise ValueError("need at least one particle")
        chain = [0] * len(groups) if chain is None else list(chain)
        if chain[0] != 0 or any(b - a not in (0, 1) for a, b in zip(chain, chain[1:])):
            raise ValueError("chains must be numbered 0..C-1 in the order of their groups")
        self.chain = np.array(chain)
        # the first particle row of each chain, (C,)
        self.chain_rows = np.flatnonzero(np.diff(self.chain, prepend=-1)) * num_particles
        series = list(dict.fromkeys(n for group in groups for n in group.members))
        window = max(group.window for group in groups)
        self.cells = cells = cell_layout(series, groups[0].hypers, values, observed, window, lgamma)
        num_groups = len(groups)
        self.num_particles = num = num_particles
        # each group's (group, series, offset) cells: all groups' lags, then all emissions
        segments = [[(g, n, i) for n in g.members for i in range(1, g.window + 1)] for g in groups]
        segments += [[(g, n, 0) for n in g.members] for g in groups]
        lengths = np.array([len(segment) for segment in segments])
        group_cells = [cell for segment in segments for cell in segment]
        rows = np.array([cells.index[n, i] for _, n, i in group_cells], dtype=np.int64)
        # each row's hypers and lgamma row, (rows, 1), from its own group's hypers,
        # in the order of segments
        nigs = [g.hypers[g.members, 1 : g.window + 1].reshape(-1, 4) for g in groups]
        nigs += [g.hypers[g.members, 0] for g in groups]
        hyper, (lgamma_row, ratio) = hyper_columns(np.concatenate(nigs), lgamma)
        owner = np.arange(2 * num_groups) % num_groups  # each segment's group
        # every segment's J copies, particle by particle: each copy's entries
        # and the indices into rows of their cells
        span = np.repeat(lengths, num)
        source = _ranges(np.repeat(np.cumsum(lengths) - lengths, num), span)
        self.particle = np.repeat((owner[:, None] * num + np.arange(num)).ravel(), span)
        self.row = rows[source]
        self.num_lags = int(span[: num_groups * num].sum())
        # each particle's lag and emission entries: the first of each and how many, (2, G*J)
        self.first, self.span = (np.cumsum(span) - span).reshape(2, -1), span.reshape(2, -1)
        capacity = 4
        while capacity <= max(group.regimes.num_regimes for group in groups):
            capacity *= 2
        z = np.zeros((num_groups, cells.x.shape[1]), dtype=np.int64)  # 0 at future steps
        sizes = np.zeros((num_groups, capacity), dtype=np.int64)
        for g, group in enumerate(groups):
            counts = group.regimes.counts
            z[g, : group.num_steps] = group.regimes.z
            sizes[g, : len(counts)] = counts
        # one fold over each group's own rows, each row under its group's sequence
        x, seen = cells.x[rows, None], cells.seen[rows, None]
        stats = [s[:, 0] for s in fold_stats(x, seen, z[np.repeat(owner, lengths)], capacity)]
        form = np.array(student_t_form_array(*hyper, *stats, (lgamma_row, ratio)))
        self.count, self.total, self.total_sq = (s.take(source, axis=0) for s in stats)
        # in C order, unlike form[:, source], so that put writes in place
        self.form = form.take(source, axis=1)
        self.hyper = tuple(h[:, 0].take(source) for h in hyper)
        self.lgamma = lgamma_row[:, 0].take(source), ratio
        self.z, self.sizes = (np.repeat(a, num, axis=0) for a in (z, sizes))
        self.num_blocks = np.repeat([g.regimes.num_regimes for g in groups], num)
        self.log_alpha = np.repeat([math.log(g.alpha) for g in groups], num)
        self.log_weights = np.zeros(num_groups * num)
        self.log_ml_acc = np.zeros(num_groups)
        self.scored = None  # (t, full log weights, weight increments) of the step scored last

    def __len__(self):
        return len(self.log_weights)

    def normalized_weights(self):
        """Per group: the log of the summed weights, (G,), and the weights over that sum, (G, J).

        Raises :class:`NumericalError` when a group's weights are all zero.
        """
        log_weights = self.log_weights.reshape(-1, self.num_particles)
        hi = log_weights.max(axis=1)
        if (hi == NEG_INF).any():
            raise NumericalError("all particle weights of a group are zero")
        scaled = np.exp(log_weights - hi[:, None])
        total = scaled.sum(axis=1)
        return hi + np.log(total), scaled / total[:, None]

    def log_marginal_likelihood(self) -> np.ndarray:
        """Each group's current estimate of the log marginal likelihood of the data so far."""
        log_sum, _ = self.normalized_weights()
        return self.log_ml_acc + log_sum - math.log(self.num_particles)

    def log_weights_split(self, t: int, x=None, emission=True):
        """(base, emission) log weights of every particle at step t, each (G*J, K+1).

        K is the largest block count.  ``base`` is CRP count/concentration
        plus cohesion over the observed lag cells; ``emission`` sums the
        emission predictives of the observed cells at t, and is None when
        ``emission`` is false, which scores the lag entries only.  ``x`` is
        the value at t of every scored entry, (entries,) or (``num_lags``,);
        by default each entry reads its layout row's.  Particle p's column
        ``num_blocks[p]`` is its fresh block; its later columns have base
        -inf.  One ``bincount`` adds every particle's lag and emission factors
        in entry order, from 0.0, so a particle with no lag cell has a
        cohesion of 0.
        """
        width = int(self.num_blocks.max()) + 1
        if width > self.sizes.shape[1]:
            self._double()
        scored = slice(None) if emission else slice(self.num_lags)
        row = self.row[scored]
        x = self.cells.x[row, t - 1] if x is None else x
        factors = student_t_logpdf_array(self.form[:, scored, :width], x[:, None])
        np.copyto(factors, 0.0, where=~self.cells.seen[row, t - 1][:, None])
        # each factor's sum: its particle's lag or emission sum, of its column
        kind = 2 * self.particle[scored] + (np.arange(len(row)) >= self.num_lags)
        keys = (kind[:, None] * width + np.arange(width)).ravel()
        sums = np.bincount(keys, factors.ravel(), 2 * len(self) * width)
        sums = sums.reshape(len(self), 2, width)
        with np.errstate(divide="ignore"):
            crp = np.log(self.sizes[:, :width])
        crp[np.arange(len(crp)), self.num_blocks] = self.log_alpha
        return crp + sums[:, 0], sums[:, 1] if emission else None

    def step_scores(self, t: int):
        """(full log weights, weight increments, widths) of every particle at step t.

        The full log weights are (G*J, K+1), the increments, the log one-step
        predictives of the observed cells, (G*J,), and ``widths[g]`` is K_c+1
        for group g's chain c, whose particles' columns from there on are all
        -inf.  The first call at t scores all groups with one
        :meth:`log_weights_split` and both normalizers with one call; later
        calls at t return the same arrays.
        """
        if self.scored is None or self.scored[0] != t:
            base, emis = self.log_weights_split(t)
            full = base + emis
            lse = PrefixStats.log_normalizers(np.stack([full, base]))  # over the last axis
            widths = np.maximum.reduceat(self.num_blocks, self.chain_rows)[self.chain] + 1
            self.scored = t, full, lse[0] - lse[1], widths
        return self.scored[1:]

    def assign(self, t: int, pick: np.ndarray, x=None) -> None:
        """Assign step t of particle p to column ``pick[p]`` and fold in its observed values.

        ``x`` is the value at t of every entry, by default its layout row's,
        with 0 at unobserved cells.  Each cell adds its values in time order,
        so the sums have the bits of a group rebuilt from the particle's
        sequence.  An unobserved cell adds a count of 0 and a value of 0.  The
        drawn columns' forms are rebuilt from their new statistics; the other
        columns' statistics, and so their forms, are unchanged.  ``pick``
        comes from a score at t, which made room for every particle's fresh
        block.
        """
        capacity = self.sizes.shape[1]
        self.z[:, t - 1] = pick + 1
        block = np.arange(len(pick)) * capacity + pick  # flat indices of the drawn blocks
        self.sizes.put(block, self.sizes.take(block) + 1)
        self.num_blocks += pick == self.num_blocks
        x = self.cells.x[self.row, t - 1] if x is None else x
        seen = self.cells.seen[self.row, t - 1]
        # and of every entry's drawn column, (entries,)
        drawn = np.arange(len(self.row)) * capacity + pick[self.particle]
        new = []
        for stats, value in ((self.count, seen), (self.total, x), (self.total_sq, x * x)):
            new.append(stats.take(drawn) + value)
            stats.put(drawn, new[-1])
        for form, value in zip(self.form, student_t_form_array(*self.hyper, *new, self.lgamma)):
            form.put(drawn, value)

    def _double(self) -> None:
        """Double the capacity: empty blocks, whose forms are the cells' prior forms.

        Each array is allocated once at its new size and its old columns are
        copied in, the largest, ``form``, first, so the peak is the old
        arrays and the new ``form``.
        """
        capacity = self.sizes.shape[1]
        prior = np.array(student_t_form_array(*self.hyper, 0, 0.0, 0.0, self.lgamma))
        for name, empty in (("form", prior[..., None]), ("count", 0), ("total", 0.0),
                            ("total_sq", 0.0), ("sizes", 0)):
            old = getattr(self, name)
            new = np.empty((*old.shape[:-1], 2 * capacity), dtype=old.dtype)
            new[..., :capacity] = old
            new[..., capacity:] = empty
            setattr(self, name, new)

    def gather(self, slots: np.ndarray, picks: np.ndarray) -> None:
        """Make particle ``slots[i]`` a copy of particle ``picks[i]``, one of its own group's.

        Only the slots' rows and entries are copied, so resampling a few
        groups of a large set leaves the others' where they are.
        """
        for name in ("z", "num_blocks", "sizes"):
            stats = getattr(self, name)
            stats[slots] = stats[picks]
        slots, picks = self.entries(slots), self.entries(picks)
        for stats in (self.count, self.total, self.total_sq):
            stats[slots] = stats[picks]
        self.form[:, slots] = self.form[:, picks]
        self.scored = None

    def entries(self, particles: np.ndarray) -> np.ndarray:
        """The entries of ``particles``: each one's lag entries, then its emission entries."""
        return _ranges(*(a[:, particles].T.ravel() for a in (self.first, self.span)))


def smc_step(ps: ParticleSet, t: int, rng, group: int) -> np.ndarray:
    """Weigh ``group``'s particles at step t; returns the columns they draw, (J,).

    Multiplies each particle's weight by the one-step predictive of the
    observed cells and draws its regime from the optimal proposal.  The
    scores come from :meth:`ParticleSet.step_scores`, which scores every
    group at t once; the caller folds the draws in with
    :meth:`ParticleSet.assign` once every group has drawn.
    """
    rows = slice(group * ps.num_particles, (group + 1) * ps.num_particles)
    full, gain, widths = ps.step_scores(t)
    full = full[rows, : widths[group]]
    ps.log_weights[rows] += gain[rows]
    return (full + rng.gumbel(size=full.shape)).argmax(axis=1)


def maybe_resample(ps: ParticleSet, rng) -> bool:
    """Multinomial resampling of each group whose ESS drops below ``ESS_THRESHOLD * J``.

    ``rng`` is one Generator, or one per chain of ``ps``.  A chain's groups
    that trigger draw their (G', J) counts in one multinomial call from its
    Generator; a chain with none draws nothing.  Each such group folds its
    mean weight into its marginal-likelihood accumulator and resets its
    weights to uniform; the other groups are left as they are.  Returns
    whether any group resampled.
    """
    num = ps.num_particles
    log_sum, probs = ps.normalized_weights()
    low = np.flatnonzero(1.0 / np.sum(probs * probs, axis=1) < ESS_THRESHOLD * num)
    if not low.size:
        return False
    rngs = [rng] * len(ps.chain_rows) if isinstance(rng, np.random.Generator) else rng
    probs = probs[low]
    probs /= probs.sum(axis=1, keepdims=True)
    chain = ps.chain[low]
    cuts = np.flatnonzero(np.diff(chain)) + 1  # where the next chain's groups start
    counts = np.concatenate([
        rngs[c].multinomial(num, p) for c, p in zip(chain[np.r_[0, cuts]], np.split(probs, cuts))
    ])
    slots = (low[:, None] * num + np.arange(num)).ravel()
    ps.gather(slots, np.repeat(slots, counts.ravel()))
    ps.log_ml_acc[low] += log_sum[low] - math.log(num)
    ps.log_weights[slots] = 0.0
    return True


def smc_block_sample(groups, values, observed, lgamma, num_particles, rng) -> list[tuple]:
    """Run the filter over t = 1..T from the empty ``groups``; returns one ``(z, log_ml)`` each.

    ``lgamma`` is the fit's :class:`~trcrp.conjugate.LgammaTable`.  ``rng`` is
    one Generator, which makes the groups one chain, or one per group: the
    groups that share one are a chain and must be adjacent.  ``z`` is one of
    the group's particles' regime sequences, drawn by weight with one Gumbel
    draw over each chain's (G_c, J), and ``log_ml`` the estimate of the
    group's log marginal likelihood.  The groups themselves are left empty.
    Each step is one kernel call over (G*J, cells, K+1) entries, one
    :func:`smc_step` per group, and one fold of all the groups' draws, so the
    work is O(J T K N p) in O(T) kernel calls for the whole set; normalizers
    never need retroactive recomputation, which is what makes this linear in T.
    """
    rngs = [rng] * len(groups) if isinstance(rng, np.random.Generator) else list(rng)
    numbers = {}  # each Generator's chain, in the order of the groups
    ps = ParticleSet(groups, values, observed, lgamma, num_particles,
                     [numbers.setdefault(id(r), len(numbers)) for r in rngs])
    starts = ps.chain_rows // num_particles  # the first group of each chain
    chain_rngs = [rngs[g] for g in starts]
    num_steps = groups[0].num_steps
    for t in range(1, num_steps + 1):
        draws = [smc_step(ps, t, r, g) for g, r in enumerate(rngs)]
        ps.assign(t, np.concatenate(draws))
        if t < num_steps:
            maybe_resample(ps, chain_rngs)
    log_ml = ps.log_marginal_likelihood()
    weights = ps.log_weights.reshape(len(groups), num_particles)
    winner = np.concatenate([
        np.argmax(w + r.gumbel(size=w.shape), axis=1)
        for r, w in zip(chain_rngs, np.split(weights, starts[1:]))
    ])
    z = ps.z[winner + num_particles * np.arange(len(groups))]
    return [(row.tolist(), float(ml)) for row, ml in zip(z, log_ml)]
