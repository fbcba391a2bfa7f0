"""Particle-learning block sampler for the regime sequences of a chain's groups.

Given the outer partition, the groups' regime sequences are independent, so
one filter steps all of them: G groups of J particles each live in stacked
arrays, particle (g, j) at row g*J + j.  Per particle: the regime labels
``z`` of the steps filtered so far, its block count ``num_blocks`` and block
sizes, its log weight, its group's log concentration, the count, sum and
sum of squares of every cell's observed values per block, ``count[p, c, k]``,
and the Student-t form of each (cell, block) predictive that these give,
``form[:, p, c, k]`` (:func:`~trcrp.conjugate.student_t_form_array`).
Group g's cells are its members' lag rows then their emission rows, gathered
from one :class:`~trcrp.model.CellLayout` over the members of all the groups,
the layout prefix passes read, and padded with never-observed rows up to the
widest group's lag and emission rows.  Block k is label k+1, and column
``num_blocks[p]`` is the particle's fresh block, whose statistics are empty.

A step scores all particles, cells and blocks from their forms with one
:func:`~trcrp.conjugate.student_t_logpdf_array` call, one ``log1p`` per
entry, and folds the step's observed values into the drawn column of every
particle with one gather, whatever the number of groups.  Only that column's
statistics change, so the fold rebuilds that column's forms alone.  In
between, each group takes its own :func:`smc_step`, which updates its
particles' weights and draws their regimes with one Gumbel argmax.
Resampling is an index gather within each group, and ``log_ml`` is kept per
group.  Forecasts (:func:`trcrp.predict.forecast`) reuse the particles as
copies of one fitted group: they start from its statistics, score the lag
cells only and give each particle its own row of cell values, since a future
lag reads that copy's own draws.

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
    fitted group for a forecast.  ``cursor[g]`` is the last step group g drew
    and ``picks`` the columns drawn at it, folded in once every group has
    drawn (see :func:`smc_step`); ``folded`` is the last step folded in and
    ``behind`` counts the groups that have not drawn the next one.
    """

    def __init__(self, groups, values, observed, num_particles):
        if num_particles < 1:
            raise ValueError("need at least one particle")
        series = list(dict.fromkeys(n for group in groups for n in group.members))
        window = max(group.window for group in groups)
        self.cells = cells = cell_layout(series, groups[0].hypers, values, observed, window)
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
        # one group drops the group axes: numpy broadcasts three axes faster than four
        self.lead = (num_particles,) if num_groups == 1 else (num_groups, num_particles)
        self.per_group = (-1, 1) if num_groups == 1 else (num_groups, 1, -1, 1)

        def gathered(a, fill):
            if num_groups == 1:  # its rows are the layout's, in order
                return a[None]
            return np.concatenate([a, np.full_like(a[:1], fill)])[self.rows]

        self.x = gathered(cells.x, 0.0)  # (G, cells, T)
        self.seen = gathered(cells.seen, False)
        hyper = tuple(gathered(h, 1.0) for h in cells.hyper)  # (G, cells, 1)
        lgamma_row, ratio = cells.lgamma
        lgamma = gathered(lgamma_row, 0), ratio
        self.group = np.repeat(np.arange(num_groups), num_particles)
        self.hyper = tuple(h[self.group, :, 0] for h in hyper)
        self.lgamma = lgamma[0][self.group, :, 0], ratio
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
        form = np.array(student_t_form_array(*hyper, count, total, total_sq, lgamma))
        self.z, self.sizes, self.count, self.total, self.total_sq = (
            np.repeat(a, num_particles, axis=0) for a in (z, sizes, count, total, total_sq)
        )
        self.form = np.repeat(form, num_particles, axis=1)
        self.num_blocks = np.repeat([g.regimes.num_regimes for g in groups], num_particles)
        self.log_alpha = np.repeat([math.log(g.alpha) for g in groups], num_particles)
        self.log_weights = np.zeros(len(self.group))
        self.log_ml_acc = np.zeros(num_groups)
        self.cursor = [0] * num_groups  # each group's last drawn step
        self.folded = 0  # the last step folded into the statistics, min(cursor)
        self.behind = num_groups  # the groups still at ``folded``
        self.picks = np.zeros(len(self.group), dtype=np.int64)  # the columns drawn at the step
        self.scored = None  # (t, full log weights, weight increments) of the step scored last

    def __len__(self):
        return len(self.log_weights)

    def normalized_weights(self):
        """Per group: the log of the summed weights, (G,), and the weights over that sum, (G, J).

        Raises :class:`NumericalError` when a group's weights are all zero.
        """
        log_weights = np.asarray(self.log_weights, dtype=float).reshape(-1, self.num_particles)
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
        lead, per_group = self.lead, self.per_group
        form = self.form[:, :, rows, :width].reshape(4, *lead, -1, width)
        x = self.x[:, rows, t - 1].reshape(per_group) if x is None else x[:, rows].reshape(*lead, -1, 1)
        f = student_t_logpdf_array(form, x)
        seen = self.seen[:, rows, t - 1].reshape(per_group)
        factors = np.where(seen, f, 0.0).reshape(len(self), -1, width)
        with np.errstate(divide="ignore"):
            crp = np.log(self.sizes[:, :width])
        crp[np.arange(len(crp)), self.num_blocks] = self.log_alpha
        lags = self.num_lags
        base = crp + factors[:, :lags].sum(axis=1)
        return base, factors[:, lags:].sum(axis=1) if emission else None

    def step_scores(self, t: int):
        """(full log weights, weight increments) of every particle at step t.

        The full log weights are (G*J, K+1) and the increments, the log
        one-step predictives of the observed cells, (G*J,).  The first call at
        t scores all groups with one :meth:`log_weights_split` and both
        normalizers with one call; later calls at t return the same arrays.
        """
        if self.scored is None or self.scored[0] != t:
            base, emis = self.log_weights_split(t)
            full = base + emis
            lse = PrefixStats.log_normalizers(np.stack([full, base]))  # over the last axis
            self.scored = t, full, lse[0] - lse[1]
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
        """Double the capacity: empty blocks, whose forms are the cells' prior forms."""
        self.sizes = np.concatenate([self.sizes, np.zeros_like(self.sizes)], axis=1)
        for name in ("count", "total", "total_sq"):
            stats = getattr(self, name)
            setattr(self, name, np.concatenate([stats, np.zeros_like(stats)], axis=2))
        prior = np.array(student_t_form_array(*self.hyper, 0, 0.0, 0.0, self.lgamma))
        empty = np.broadcast_to(prior[..., None], self.form.shape)
        self.form = np.concatenate([self.form, empty], axis=3)

    def gather(self, picks: np.ndarray) -> None:
        """Make particle p a copy of particle ``picks[p]``, one of its own group's."""
        for name in ("z", "num_blocks", "sizes", "count", "total", "total_sq", "picks"):
            setattr(self, name, getattr(self, name)[picks])
        self.form = self.form.take(picks, axis=1)
        self.scored = None


def smc_step(ps: ParticleSet, t: int, rng, group: int | None = None) -> None:
    """Advance every particle of ``group``, or of every group when None, from t-1 to t.

    Samples each particle's regime from the optimal proposal and multiplies
    its weight by the one-step predictive of the observed cells.  The groups
    step in lockstep: the scores at t come from one
    :meth:`ParticleSet.step_scores` call for all of them, and the step that
    brings the last group to t folds every particle's observed cells at t
    into its statistics with one :meth:`ParticleSet.assign`.  Besides its
    particles' rows a call costs O(1) for one group: ``ps.behind`` counts the
    groups that have not drawn t.
    """
    cursor = ps.cursor
    stepping = range(len(cursor)) if group is None else (group,)
    if ps.folded != t - 1 or any(cursor[g] != t - 1 for g in stepping):
        raise ValueError(f"cursors at {cursor}, cannot step groups {list(stepping)} to {t}")
    full, gain = ps.step_scores(t)
    rows = slice(None)
    if group is not None:
        rows = slice(group * ps.num_particles, (group + 1) * ps.num_particles)
        full, gain = full[rows], gain[rows]
    ps.log_weights[rows] += gain
    ps.picks[rows] = (full + rng.gumbel(size=full.shape)).argmax(axis=1)
    for g in stepping:
        cursor[g] = t
    ps.behind -= len(stepping)
    if not ps.behind:
        ps.assign(t, ps.picks)
        ps.folded, ps.behind = t, len(cursor)


def maybe_resample(ps: ParticleSet, rng) -> bool:
    """Multinomial resampling of each group whose ESS drops below ``ESS_THRESHOLD * J``.

    The groups that trigger draw their (G', J) counts in one multinomial
    call.  Each folds its mean weight into its marginal-likelihood
    accumulator and resets its weights to uniform; the other groups are left
    as they are.  Returns whether any group resampled.
    """
    num = ps.num_particles
    log_sum, probs = ps.normalized_weights()
    low = np.flatnonzero(1.0 / np.sum(probs * probs, axis=1) < ESS_THRESHOLD * num)
    if not low.size:
        return False
    probs = probs[low]
    counts = rng.multinomial(num, probs / probs.sum(axis=1, keepdims=True))
    slots = (low[:, None] * num + np.arange(num)).ravel()
    picks = np.arange(len(ps))
    picks[slots] = np.repeat(slots, counts.ravel())
    ps.gather(picks)
    ps.log_ml_acc[low] += log_sum[low] - math.log(num)
    ps.log_weights = np.array(ps.log_weights, dtype=float)
    ps.log_weights[slots] = 0.0
    return True


def smc_block_sample(groups, values, observed, num_particles, rng) -> list[tuple[list[int], float]]:
    """Run the filter over t = 1..T from the empty ``groups``; returns one ``(z, log_ml)`` each.

    ``z`` is one of the group's particles' regime sequences, drawn by weight
    with one Gumbel draw over (G, J), and ``log_ml`` the estimate of the
    group's log marginal likelihood.  The groups themselves are left empty.
    Each step is one kernel call and one fold over (G*J, cells, K+1)
    entries, with one :func:`smc_step` per group between them, so the work is
    O(J T K N p) in O(T) kernel calls for the whole chain; normalizers never
    need retroactive recomputation, which is what makes this linear in T.
    """
    ps = ParticleSet(groups, values, observed, num_particles)
    num_steps = groups[0].num_steps
    for t in range(1, num_steps + 1):
        for g in range(len(groups)):
            smc_step(ps, t, rng, g)
        if t < num_steps:
            maybe_resample(ps, rng)
    log_ml = ps.log_marginal_likelihood()
    weights = ps.log_weights.reshape(len(groups), num_particles)
    winner = np.argmax(weights + rng.gumbel(size=weights.shape), axis=1)
    z = ps.z[winner + num_particles * np.arange(len(groups))]
    return [(row.tolist(), float(ml)) for row, ml in zip(z, log_ml)]
