"""Particle-learning block sampler for the regime sequences of chains' groups.

Given the outer partition, the groups' regime sequences are independent, so
one filter steps all of them: G groups of J particles each live in stacked
arrays, particle (g, j) at row g*J + j.  The groups may be several chains',
each chain's adjacent and drawing from its own Generator: the engine
initialises a fit's chains together in the calling process, in sets of up to
:data:`SET_ENTRIES` particle-cell entries.  Per particle: the regime labels
``z`` of the steps filtered so far, its block count ``num_blocks`` and block
sizes, its log weight, its group's log concentration, the count, sum and
sum of squares of every cell's observed values per block, ``count[p, c, k]``,
and the Student-t form of each (cell, block) predictive that these give,
``form[:, p, c, k]`` (:func:`~trcrp.conjugate.student_t_form_array`).
Group g's cells are its members' lag rows then their emission rows, gathered
from one :class:`~trcrp.model.CellLayout` over the members of all the groups,
the layout prefix passes read, and padded with never-observed rows up to the
widest group's lag and emission rows; their lgamma rows index the fit's (or
forecast's) :class:`~trcrp.conjugate.LgammaTable`.  Block k is label k+1, and
column ``num_blocks[p]`` is the particle's fresh block, with empty statistics.

A step scores all particles, cells and blocks from their forms with one
:func:`~trcrp.conjugate.student_t_logpdf_array` call, one ``log1p`` per
entry.  Each group's :func:`smc_step` then updates its particles' weights
from those scores and draws their regimes with one Gumbel argmax, and the
loop folds every particle's draw with one :meth:`ParticleSet.assign`.  Only
the drawn column's statistics change, so the fold rebuilds that column's
forms alone.  Resampling is an index gather within each group, and
``log_ml`` is kept per group.

A chain makes the Generator calls it makes when filtered alone: per step
one (J, K_c+1) Gumbel draw for each of its groups, with K_c the largest block
count among the chain's own particles, one ``multinomial`` call over its
groups whose ESS falls below the threshold, and one final (G_c, J) Gumbel
draw.  So its draws are those of a set of its own.  Its scores may differ in
the last bit: the lag sums and the step normalizers reduce over the set's
padded rows and width, and numpy sums 8 entries or more pairwise, in an
order that the padding moves.  Forecasts (:func:`trcrp.predict.forecast`)
reuse the particles as copies of fitted groups, one set for many groups of
equal hypers and member count across chains: each copy starts from its
group's statistics, scores the lag cells only and has its own row of cell
values, since a future lag reads that copy's own draws.

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
from .model import PrefixStats, cell_layout
from .util import NEG_INF

__all__ = ["NumericalError", "ParticleSet", "smc_step", "maybe_resample", "smc_block_sample"]

# resample when the effective sample size drops below this fraction of J
ESS_THRESHOLD = 0.5

# Particle-cell entries (particle rows times the widest group's cells) up to
# which the engine adds chains to one set.  A step costs a fixed ~140 us of
# numpy calls plus a share per entry.  Measured with perf_counter on one core
# (numpy 2.4, x86-64 with AVX-512), filtering the first 1-64 chains of one
# 6-series, window-3 panel at J = 8, the best of 7 interleaved runs: a step
# costs 660 ns per entry at 320 entries, 310 at 1,920, and 260-300 from 3,500
# up to 28,000.  From about 4,000 entries on, a step's time is linear in its
# entries, so a bigger set saves no more fixed cost; it only holds more memory.
SET_ENTRIES = 4096


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
    ``count``, ``total`` and ``total_sq`` are (G*J, cells, capacity),
    ``form`` is (4, G*J, cells, capacity), the loc, dof times squared scale,
    a' + 1/2 and constant of :func:`~trcrp.conjugate.student_t_form_array`
    for each entry, and ``sizes`` is (G*J, capacity).  The capacity doubles
    when a step is scored whose fresh block would fall outside it; the new
    blocks are empty and their forms the prior's.  ``cells`` is the
    :class:`~trcrp.model.CellLayout` of the groups' members over the steps of
    ``values``, and ``rows[g]`` the layout rows of group g's cells, with
    ``len(cells.index)`` for a padding row; ``x`` and ``seen``, (G, cells,
    T), hold the layout's arrays gathered by ``rows``, and ``hyper`` and
    ``lgamma`` its hypers and lgamma rows, (G*J, cells), gathered for each
    particle, which is what a fold reads.  Every particle of group g starts as
    a copy of it: its regime sequence, blocks, statistics and forms, which
    are empty (the prior's) for the filter's empty groups and those of the
    fitted group for a forecast.  ``scored`` holds the scores of the step
    scored last, which every group's :func:`smc_step` at that step reads.

    ``chain[g]`` is group g's chain, numbered 0..C-1 in order, so that a
    chain's groups are adjacent; by default all groups are chain 0.  The
    groups' hypers must be equal: the layout reads the first group's.
    """

    def __init__(self, groups, values, observed, lgamma, num_particles, chain=None):
        if num_particles < 1:
            raise ValueError("need at least one particle")
        chain = [0] * len(groups) if chain is None else list(chain)
        if chain[0] != 0 or any(b - a not in (0, 1) for a, b in zip(chain, chain[1:])):
            raise ValueError("chains must be numbered 0..C-1 in the order of their groups")
        if any(group.hypers != groups[0].hypers for group in groups):
            raise ValueError("the groups' hypers differ")
        self.chain = np.array(chain)
        # the first particle row of each chain, (C,)
        self.chain_rows = np.flatnonzero(np.diff(self.chain, prepend=-1)) * num_particles
        series = list(dict.fromkeys(n for group in groups for n in group.members))
        window = max(group.window for group in groups)
        self.cells = cells = cell_layout(series, groups[0].hypers, values, observed, window, lgamma)
        lags = [[(n, i) for n in g.members for i in range(1, g.window + 1)] for g in groups]
        emissions = [[(n, 0) for n in g.members] for g in groups]
        self.num_lags = max(map(len, lags))
        widest = max(map(len, emissions))
        pad = len(cells.index)  # a row that is never observed, appended to the layout's
        self.rows = np.array([
            [cells.index[c] for c in lag] + [pad] * (self.num_lags - len(lag))
            + [cells.index[c] for c in emission] + [pad] * (widest - len(emission))
            for lag, emission in zip(lags, emissions)
        ])
        num_groups = len(groups)
        self.num_particles = num_particles

        def gathered(a, fill):
            return np.concatenate([a, np.full_like(a[:1], fill)])[self.rows]

        self.x = gathered(cells.x, 0.0)  # (G, cells, T)
        self.seen = gathered(cells.seen, False)
        hyper = tuple(gathered(h, 1.0) for h in cells.hyper)  # (G, cells, 1)
        lgamma_row, ratio = gathered(cells.lgamma[0], 0), cells.lgamma[1]  # (G, cells, 1) rows
        self.group = np.repeat(np.arange(num_groups), num_particles)
        self.hyper = tuple(h[self.group, :, 0] for h in hyper)
        self.lgamma = lgamma_row[self.group, :, 0], ratio
        capacity = 4
        while capacity <= max(group.regimes.num_regimes for group in groups):
            capacity *= 2
        z = np.zeros((num_groups, self.x.shape[2]), dtype=np.int64)
        sizes = np.zeros((num_groups, capacity), dtype=np.int64)
        shape = (num_groups, self.rows.shape[1], capacity)
        count, total, total_sq = np.zeros(shape, dtype=np.int64), np.zeros(shape), np.zeros(shape)
        for g, group in enumerate(groups):
            counts = group.regimes.counts
            z[g, : group.num_steps] = group.regimes.z
            sizes[g, : len(counts)] = counts
            for r, (n, i) in [*enumerate(lags[g]), *enumerate(emissions[g], self.num_lags)]:
                for k, row in enumerate(group.cells[n]):
                    cell = row[i]
                    count[g, r, k], total[g, r, k], total_sq[g, r, k] = cell.count, cell.sum, cell.sum_sq
        form = np.array(student_t_form_array(*hyper, count, total, total_sq, (lgamma_row, ratio)))
        self.z, self.sizes, self.count, self.total, self.total_sq = (
            np.repeat(a, num_particles, axis=0) for a in (z, sizes, count, total, total_sq)
        )
        self.form = np.repeat(form, num_particles, axis=1)
        self.num_blocks = np.repeat([g.regimes.num_regimes for g in groups], num_particles)
        self.log_alpha = np.repeat([math.log(g.alpha) for g in groups], num_particles)
        self.log_weights = np.zeros(len(self.group))
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
        ``emission`` is false, which scores the lag cells only.  ``x`` is each
        particle's row of cell values at t, (G*J, cells); by default every
        particle reads its group's.  Particle p's column ``num_blocks[p]`` is
        its fresh block; its later columns have base -inf.
        """
        width = int(self.num_blocks.max()) + 1
        if width > self.sizes.shape[1]:
            self._double()
        rows = slice(None) if emission else slice(self.num_lags)
        lead = (len(self.rows), self.num_particles)
        form = self.form[:, :, rows, :width].reshape(4, *lead, -1, width)
        x = self.x[:, None, rows, t - 1, None] if x is None else x[:, rows].reshape(*lead, -1, 1)
        f = student_t_logpdf_array(form, x)
        seen = self.seen[:, None, rows, t - 1, None]
        factors = np.where(seen, f, 0.0).reshape(len(self), -1, width)
        with np.errstate(divide="ignore"):
            crp = np.log(self.sizes[:, :width])
        crp[np.arange(len(crp)), self.num_blocks] = self.log_alpha
        lags = self.num_lags
        base = crp + factors[:, :lags].sum(axis=1)
        return base, factors[:, lags:].sum(axis=1) if emission else None

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

        ``x`` is as in :meth:`log_weights_split`, with 0 at unobserved cells.
        Each cell adds its values in time order, so the sums have the bits of
        a group rebuilt from the particle's sequence.  An unobserved cell adds
        a count of 0 and a value of 0.  The drawn columns' forms are rebuilt
        from their new statistics; the other columns' statistics, and so
        their forms, are unchanged.  ``pick`` comes from a score at t, which
        made room for every particle's fresh block.
        """
        particles = np.arange(len(pick))
        cells, capacity = self.count.shape[1:]
        self.z[:, t - 1] = pick + 1
        block = particles * capacity + pick  # flat indices of the drawn blocks
        self.sizes.put(block, self.sizes.take(block) + 1)
        self.num_blocks += pick == self.num_blocks
        x = self.x[self.group, :, t - 1] if x is None else x
        seen = self.seen[self.group, :, t - 1]
        # and of every particle's drawn column, (G*J, cells)
        drawn = (particles[:, None] * cells + np.arange(cells)) * capacity + pick[:, None]
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

        Only the slots' rows are copied, so resampling a few groups of a
        large set leaves the others' rows where they are.
        """
        for name in ("z", "num_blocks", "sizes", "count", "total", "total_sq"):
            stats = getattr(self, name)
            stats[slots] = stats[picks]
        self.form[:, slots] = self.form[:, picks]
        self.scored = None


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
