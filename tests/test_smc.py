"""Particle-learning block sampler: weights, resampling, marginal likelihood.

Weights, resampling and the marginal-likelihood estimate are pinned on small
instances against enumeration, and the distribution of the returned
sequence against the enumerated posterior.
"""

import collections
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from conftest import hyper_tuples, make_panel, uniform_hypers
from oracles import (
    canonical_partition,
    canonical_sequences,
    naive_group_loglik,
    total_variation,
)
from trcrp import predict, smc
from trcrp.conjugate import LgammaTable, NigHyper, student_t_form_array
from trcrp.model import GroupModel, GroupStats, SeriesHypers, hyper_array
from trcrp.smc import (
    NumericalError,
    ParticleSet,
    maybe_resample,
    smc_block_sample,
    smc_step,
)


# filters per smc_block_sample call in the posterior oracles: the runs are
# independent groups of one batch
RUNS_PER_CALL = 1_000


def panel_data(panel):
    """The panel's values and mask and an lgamma table over its steps, as a filter takes them."""
    return panel.values, panel.observed, LgammaTable(panel.num_steps)


def empty_group(panel, hypers, members=(0,), alpha=1.0):
    return GroupModel(members, alpha, panel.num_steps, panel.window, hypers)


def step_all(ps, t, rng):
    """Step every group of ``ps`` to t and fold their draws in, as the filter does."""
    draws = [smc_step(ps, t, rng, g) for g in range(len(ps.log_ml_acc))]
    ps.assign(t, np.concatenate(draws))


def enumerate_log_marginal(panel, hypers, alpha):
    """Exact collapsed marginal likelihood of the panel data, z summed out."""
    tuples = hyper_tuples(hypers)
    series = list(range(panel.num_series))
    lls = [
        naive_group_loglik(z, series, alpha, tuples, panel)
        for z in canonical_sequences(panel.num_steps)
    ]
    return float(scipy.special.logsumexp(lls))


def test_fully_missing_row_leaves_weight_unchanged(rng):
    panel = make_panel([[0.0, 1.0, None, 2.0]], window=1)
    hypers = uniform_hypers(1, 1)
    ps = ParticleSet([empty_group(panel, hypers)], *panel_data(panel), 4)
    step_all(ps, 1, rng)
    before = list(ps.log_weights)
    step_all(ps, 2, rng)  # row at t=2 is missing
    assert ps.log_weights.tolist() == before
    assert np.isnan(panel.values[0, 2])  # nothing is imputed


def test_single_particle_weight_is_log_ml_estimate(rng):
    # J=1 never trips the ESS criterion, so the final weight is the whole
    # product of one-step predictives.
    panel = make_panel([list(rng.normal(size=5))], window=1)
    hypers = uniform_hypers(1, 1)
    ps = ParticleSet([empty_group(panel, hypers)], *panel_data(panel), 1)
    for t in range(1, 5):
        step_all(ps, t, rng)
        if t < 4:
            assert not maybe_resample(ps, rng)
    assert ps.log_marginal_likelihood() == pytest.approx(ps.log_weights[0], abs=1e-12)


@pytest.mark.parametrize(
    "values, window",
    [([[0.4, -0.3, 0.9]], 0), ([[0.0, 2.5, None, -2.0, 2.4]], 1)],
    ids=["observed", "missing-cell"],
)
def test_mean_weight_matches_enumerated_marginal_likelihood(values, window):
    rng = np.random.default_rng(11)
    panel = make_panel(values, window=window)
    hypers = uniform_hypers(1, window)
    exact = enumerate_log_marginal(panel, hypers, 1.0)
    reps = 100_000
    ps = ParticleSet([empty_group(panel, hypers)], *panel_data(panel), reps)
    for t in range(1, panel.num_steps + 1):
        step_all(ps, t, rng)  # no resampling: mean of raw weight products
    log_mean = scipy.special.logsumexp(ps.log_weights) - math.log(reps)
    assert abs(math.exp(log_mean - exact) - 1.0) < 0.01


def test_resample_skipped_on_equal_weights(rng):
    panel = make_panel([[0.0, 1.0, 2.0]], window=1)
    ps = ParticleSet([empty_group(panel, uniform_hypers(1, 1))], *panel_data(panel), 8)
    assert not maybe_resample(ps, rng)
    assert np.allclose(ps.normalized_weights()[1].sum(), 1.0, atol=1e-12)


def test_resample_collapses_to_dominant_particle(rng):
    panel = make_panel([[0.0, 1.0, 2.0]], window=1)
    ps = ParticleSet([empty_group(panel, uniform_hypers(1, 1))], *panel_data(panel), 6)
    step_all(ps, 1, rng)
    marker = ps.z[2].tolist()
    ps.log_weights = np.where(np.arange(6) == 2, 0.0, -1e9)
    assert maybe_resample(ps, rng)
    for z in ps.z:
        assert z.tolist() == marker
    assert ps.log_weights.tolist() == [0.0] * 6


def test_resample_all_zero_weights_raises(rng):
    panel = make_panel([[0.0, 1.0, 2.0]], window=1)
    ps = ParticleSet([empty_group(panel, uniform_hypers(1, 1))], *panel_data(panel), 3)
    ps.log_weights = np.full(3, -np.inf)
    with pytest.raises(NumericalError):
        maybe_resample(ps, rng)


def test_resampling_preserves_weighted_means():
    rng = np.random.default_rng(5)
    weights = np.array([0.05, 0.1, 0.4, 0.02, 0.33, 0.1])
    stat = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    target = float((weights * stat).sum())
    trials = 10_000
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        counts = rng.multinomial(len(weights), weights)
        value = float((counts * stat).sum() / len(weights))
        total += value
        total_sq += value * value
    mean = total / trials
    sd = math.sqrt(max(total_sq / trials - mean * mean, 1e-30) / trials)
    assert abs(mean - target) < 3.0 * sd + 1e-12


def test_block_sample_deterministic():
    panel = make_panel([[0.0, 0.5, 1.2, -0.3, 0.8]], window=1)
    hypers = uniform_hypers(1, 1)
    runs = [
        smc_block_sample([empty_group(panel, hypers)], *panel_data(panel),
                         16, np.random.default_rng(123))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_returned_partition_distribution_matches_posterior():
    # Aggregate over many independent runs; the winner of each run is drawn
    # by weight, so the aggregate should match the enumerated posterior.
    rng = np.random.default_rng(8)
    panel = make_panel([[0.6, 0.4, -1.1, 0.7]], window=0)
    hypers = uniform_hypers(1, 0)
    tuples = hyper_tuples(hypers)
    seqs = canonical_sequences(4)
    lls = np.array([naive_group_loglik(z, [0], 1.0, tuples, panel) for z in seqs])
    probs = np.exp(lls - scipy.special.logsumexp(lls))
    exact = dict(zip(seqs, probs))

    reps = 100_000
    counts = {z: 0 for z in seqs}
    groups = [empty_group(panel, hypers)] * RUNS_PER_CALL  # independent filters in one batch
    for _ in range(reps // RUNS_PER_CALL):
        for z, _ in smc_block_sample(groups, *panel_data(panel), 16, rng):
            counts[canonical_partition(z)] += 1
    empirical = {z: c / reps for z, c in counts.items()}
    assert total_variation(exact, empirical) < 0.03


def rebuilt_stats(ps, j, template, steps, panel):
    """The statistics a pass folds over a copy of ``template`` that holds
    particle j's sequence over steps 1..steps, the later steps unassigned."""
    group = GroupModel(template.members, template.alpha, template.num_steps, template.window,
                       template.hypers)
    z = ps.z[j, :steps].tolist()
    group.regimes.z[:steps] = z
    group.regimes.counts = [z.count(k) for k in range(1, max(z, default=0) + 1)]
    return GroupStats(group, panel.values, panel.observed)


# three members of a four-series panel, so the filter must skip a non-member
MEMBERS = (0, 1, 3)


def gappy_panel(rng, window):
    # missing member cells at t=1, mid-series and t=T
    values = [list(rng.normal(size=window + 8)) for _ in range(4)]
    values[0][window] = None
    values[1][window + 3] = None
    values[0][-1] = values[3][-1] = None
    return make_panel(values, window=window)


def mixed_hypers(num_series, window, shift=0.0):
    # a distinct hyper per series and cell, so a cell scored against the wrong
    # hyper shows; a shift moves every cell's m, a and b, for a group whose
    # hypers differ from another's
    return hyper_array([
        SeriesHypers(
            NigHyper(0.3 * n + shift, 1.0 + n, 2.0 + 0.5 * n + shift, 1.0 + 0.2 * n + shift),
            tuple(NigHyper(-0.2 * i + shift, 0.5 * i, 1.5 + i + n + shift, 2.0 + shift)
                  for i in range(1, window + 1)),
        )
        for n in range(num_series)
    ])


def filter_with_forced_resample(ps, rng, num_steps, check):
    """Run every step, calling ``check(t)`` before it; resample by force halfway."""
    for t in range(1, num_steps + 1):
        check(t)
        step_all(ps, t, rng)
        if t == num_steps // 2:
            ps.log_weights = np.where(np.arange(len(ps)) % 3 == 0, 0.0, -50.0)
            assert maybe_resample(ps, rng)
        elif t < num_steps:
            maybe_resample(ps, rng)
    check(num_steps + 1)


@pytest.mark.parametrize("window", [0, 2])
def test_batched_weights_match_group_weights(rng, window):
    # every particle's base row, and its base-plus-emission row, at every step
    # equal the scalar weights without and with emission of a group loaded
    # from the particle's sequence so far
    panel = gappy_panel(rng, window)
    template = GroupModel(MEMBERS, 0.7, panel.num_steps, window, mixed_hypers(4, window))
    ps = ParticleSet([template], *panel_data(panel), 9)

    def check(t):
        if t > panel.num_steps:
            return
        base, emis = ps.log_weights_split(t)
        for j in range(len(ps)):
            stats = rebuilt_stats(ps, j, template, t - 1, panel)
            want_base = stats.regime_log_weights(t, False)
            want_full = stats.regime_log_weights(t, True)
            k = stats.group.regimes.num_regimes
            assert ps.num_blocks[j] == k
            assert np.abs(base[j, : k + 1] - want_base).max() <= 1e-12
            assert np.abs((base + emis)[j, : k + 1] - want_full).max() <= 1e-12
            assert np.all(base[j, k + 1 :] == -np.inf)

    filter_with_forced_resample(ps, rng, panel.num_steps, check)


def test_particle_stats_match_panel_mask(rng):
    # every particle folds exactly the observed cells of the steps it has
    # assigned, before and after resampling
    for window in (0, 2):
        check_particle_stats(rng, window)


def check_particle_stats(rng, window):
    panel = gappy_panel(rng, window)
    template = GroupModel(MEMBERS, 1.0, panel.num_steps, window, mixed_hypers(4, window))
    ps = ParticleSet([template], *panel_data(panel), 12)

    cell_of = list(ps.cells.index)

    def check(t):
        for j in range(len(ps)):
            group_stats = rebuilt_stats(ps, j, template, t - 1, panel)
            k = group_stats.group.regimes.num_regimes
            entries = ps.entries([j])
            assert [cell_of[c] for c in ps.row[entries]] == cell_of  # every cell, once
            for e in entries:
                n, i = cell_of[ps.row[e]]
                for block in range(k):
                    cell = group_stats.cells[n][block][i]
                    assert ps.count[e, block] == cell.count
                    assert abs(ps.total[e, block] - cell.sum) < 1e-8
                    assert abs(ps.total_sq[e, block] - cell.sum_sq) < 1e-8
            for stats in (ps.count, ps.total, ps.total_sq):
                assert not stats[entries, k:].any()

    filter_with_forced_resample(ps, rng, panel.num_steps, check)
    assert template.regimes.num_regimes == 0  # the template group stays empty


def count_kernel_calls(monkeypatch):
    """Count the filter's calls of the form refresh and of the score, by name."""
    calls = collections.Counter()
    for name in ("student_t_form_array", "student_t_logpdf_array"):
        def counting(*args, _kernel=getattr(smc, name), _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(smc, name, counting)
    return calls


def test_step_makes_the_same_kernel_calls_for_any_particle_count(rng, monkeypatch):
    # batching guard: a step scores all particles with one set of array kernel
    # calls, so the count does not grow with J
    calls = count_kernel_calls(monkeypatch)
    panel = gappy_panel(rng, 2)
    hypers = mixed_hypers(4, 2)
    per_step = []
    # nor with the number of groups filtered together
    for split in ([MEMBERS], [(0,), (1, 3)], [(0,), (1,), (3,)]):
        templates = [empty_group(panel, hypers, members=members) for members in split]
        for num in (1, 8, 64):
            ps = ParticleSet(templates, *panel_data(panel), num)
            for t in range(1, 4):
                step_all(ps, t, rng)
            calls.clear()
            step_all(ps, 4, rng)
            per_step.append(dict(calls))
    assert per_step[0]["student_t_logpdf_array"] >= 1
    assert per_step == [per_step[0]] * 9


def test_returned_sequence_matches_posterior_with_lags_and_members():
    # Two members at window 1 with one missing cell, so the draw and the
    # weights go through the lag/emission split and the multi-cell fold.
    # For N runs over k = 15 sequences, E|p_hat_i - p_i| <=
    # sqrt(2 p_i (1 - p_i) / (pi N)) (half-normal mean), so E[TV] <=
    # 1/2 sum_i sqrt(2 p_i / (pi N)) <= 1/2 sqrt(2 k / (pi N)) by
    # Cauchy-Schwarz; the test allows three times that, 0.052 at N = 8,000.
    # The filter's own O(1/J) bias at J = 16 is far smaller: 10,000 runs
    # gave a distance of 0.009.
    rng = np.random.default_rng(4)
    panel = make_panel([[0.2, 0.6, 0.4, -1.1, 0.7], [-0.3, 0.5, None, -0.9, 1.2]], window=1)
    hypers = uniform_hypers(2, 1)
    seqs = canonical_sequences(4)
    lls = np.array([naive_group_loglik(z, [0, 1], 1.0, hyper_tuples(hypers), panel) for z in seqs])
    exact = dict(zip(seqs, np.exp(lls - scipy.special.logsumexp(lls))))

    reps = 8_000
    counts = {z: 0 for z in seqs}
    groups = [empty_group(panel, hypers, members=(0, 1))] * RUNS_PER_CALL
    for _ in range(reps // RUNS_PER_CALL):
        for z, _ in smc_block_sample(groups, *panel_data(panel), 16, rng):
            counts[canonical_partition(z)] += 1
    empirical = {z: c / reps for z, c in counts.items()}
    bound = 3 * 0.5 * math.sqrt(2 * len(seqs) / (math.pi * reps))
    assert total_variation(exact, empirical) <= bound


# Two groups of different widths in one batch, on one window-1 panel: a
# one-member window-0 group on series 0, whose prefix column it never reads,
# and a two-member window-1 group with a missing cell.
TWO_WIDTHS = [[9.0, 0.6, 0.4, -1.1, 0.7], [0.2, 0.6, 0.4, -1.1, 0.7], [-0.3, 0.5, None, -0.9, 1.2]]


def two_width_groups():
    panel = make_panel(TWO_WIDTHS, window=1)
    hypers = uniform_hypers(3, 1)
    groups = [GroupModel([0], 1.0, 4, 0, hypers), GroupModel([1, 2], 1.0, 4, 1, hypers)]
    # each group's data on its own panel, for enumeration
    own = [
        (make_panel([TWO_WIDTHS[0][1:]], window=0), [0], uniform_hypers(1, 0)),
        (make_panel(TWO_WIDTHS[1:], window=1), [0, 1], uniform_hypers(2, 1)),
    ]
    seqs = canonical_sequences(4)
    lls = [
        np.array([naive_group_loglik(z, members, 1.0, hyper_tuples(h), p) for z in seqs])
        for p, members, h in own
    ]
    return panel, groups, lls


def test_batched_groups_match_their_own_enumerated_posteriors():
    # The TV bound is the one derived in the single-group test above, at
    # N = 8,000 winners per group.
    panel, groups, lls = two_width_groups()
    seqs = canonical_sequences(4)
    reps = 8_000
    counts = [{z: 0 for z in seqs} for _ in groups]
    rng = np.random.default_rng(12)
    batch = groups * (RUNS_PER_CALL // 2)
    for _ in range(reps * len(groups) // len(batch)):
        for g, (z, _) in enumerate(smc_block_sample(batch, *panel_data(panel), 16, rng)):
            counts[g % len(groups)][canonical_partition(z)] += 1
    bound = 3 * 0.5 * math.sqrt(2 * len(seqs) / (math.pi * reps))
    for ll, count in zip(lls, counts):
        exact = dict(zip(seqs, np.exp(ll - scipy.special.logsumexp(ll))))
        assert total_variation(exact, {z: c / reps for z, c in count.items()}) <= bound


def test_batched_groups_mean_weights_match_their_marginal_likelihoods():
    panel, groups, lls = two_width_groups()
    reps = 20_000
    rng = np.random.default_rng(13)
    ps = ParticleSet(groups, *panel_data(panel), reps)
    for t in range(1, panel.num_steps + 1):
        step_all(ps, t, rng)  # no resampling: mean of raw weight products
    log_mean = scipy.special.logsumexp(ps.log_weights.reshape(len(groups), reps), axis=1)
    exact = [scipy.special.logsumexp(ll) for ll in lls]
    assert np.all(np.abs(np.exp(log_mean - math.log(reps) - exact) - 1.0) < 0.01)


def test_resampling_one_group_leaves_the_other_untouched(rng):
    panel, groups, _ = two_width_groups()
    ps = ParticleSet(groups, *panel_data(panel), 6)
    for t in (1, 2):
        step_all(ps, t, rng)
    ps.log_weights = np.concatenate([np.where(np.arange(6) == 2, 0.0, -1e9), np.linspace(0.0, 0.3, 6)])
    other = ps.particle >= 6
    rows = {name: slice(6, None) for name in ("z", "num_blocks", "sizes", "log_weights")}
    rows |= {name: other for name in ("count", "total", "total_sq")}
    before = {name: getattr(ps, name)[at].copy() for name, at in rows.items()}
    form = ps.form[:, other].copy()
    marker = ps.z[2].copy()
    assert maybe_resample(ps, rng)
    for name, at in rows.items():
        assert np.array_equal(getattr(ps, name)[at], before[name]), name
    assert np.array_equal(ps.form[:, other], form)
    assert all(np.array_equal(z, marker) for z in ps.z[:6])
    assert ps.log_weights[:6].tolist() == [0.0] * 6
    assert ps.log_ml_acc[0] != 0.0 and ps.log_ml_acc[1] == 0.0


def test_resampling_one_chain_draws_nothing_from_the_other(rng):
    # two chains of one group each in one set: only chain 1 falls below the
    # ESS threshold, so only its Generator makes one multinomial call
    panel, groups, _ = two_width_groups()
    ps = ParticleSet(groups, *panel_data(panel), 6, chain=[0, 1])
    for t in (1, 2):
        step_all(ps, t, rng)
    ps.log_weights = np.concatenate([np.linspace(0.0, 0.3, 6), np.where(np.arange(6) == 2, 0.0, -1e9)])
    rngs = [np.random.default_rng(21), np.random.default_rng(22)]
    untouched = rngs[0].bit_generator.state
    alone = np.random.default_rng(22)
    alone.multinomial(6, [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
    assert maybe_resample(ps, rngs)
    assert rngs[0].bit_generator.state == untouched
    assert rngs[1].bit_generator.state == alone.bit_generator.state
    assert ps.log_ml_acc[0] == 0.0 and ps.log_ml_acc[1] != 0.0


def test_a_chain_draws_gumbels_of_its_own_width():
    # chain 0's group opens blocks freely, chain 1's almost never: after a few
    # steps chain 1's particles hold fewer blocks than the set's widest, and
    # its group's step draws (J, K_1 + 1) Gumbels, K_1 its own largest count
    panel, groups, _ = two_width_groups()
    groups[0].alpha, groups[1].alpha = 1e3, 1e-9
    ps = ParticleSet(groups, *panel_data(panel), 5, chain=[0, 1])
    rng = np.random.default_rng(3)
    for t in (1, 2, 3):
        step_all(ps, t, rng)
    own = int(ps.num_blocks[5:].max())
    assert own < ps.num_blocks.max()
    chain_rng, alone = np.random.default_rng(4), np.random.default_rng(4)
    full, _, _ = ps.step_scores(4)
    draws = smc_step(ps, 4, chain_rng, 1)
    gumbel = alone.gumbel(size=(5, own + 1))
    assert chain_rng.bit_generator.state == alone.bit_generator.state
    assert np.array_equal(draws, (full[5:, : own + 1] + gumbel).argmax(axis=1))


@pytest.mark.parametrize("threshold", [smc.ESS_THRESHOLD, 2.0], ids=["ess", "every_step"])
def test_chains_filtered_in_one_set_draw_as_they_would_alone(monkeypatch, threshold):
    # each chain makes the Generator calls of its own set and returns the same
    # sequences; its estimates may move in the last bit (see the module notes).
    # A threshold of 2 resamples every group of every chain at every step.
    monkeypatch.setattr(smc, "ESS_THRESHOLD", threshold)
    rng = np.random.default_rng(6)
    panel = gappy_panel(rng, 2)
    hypers = mixed_hypers(4, 2)
    chains = [[(0, 3), (1,)], [(0, 1, 2, 3)], [(2,), (0,), (1, 3)]]

    def groups_of(split):
        return [GroupModel(members, 0.8, panel.num_steps, 2, hypers) for members in split]

    alone, rngs = [], []
    for c, split in enumerate(chains):
        rngs.append(np.random.default_rng(30 + c))
        alone.append(smc_block_sample(groups_of(split), *panel_data(panel), 6, rngs[-1]))
    together = [np.random.default_rng(30 + c) for c in range(len(chains))]
    group_rngs = [r for r, split in zip(together, chains) for _ in split]
    groups = [group for split in chains for group in groups_of(split)]
    draws = smc_block_sample(groups, *panel_data(panel), 6, group_rngs)
    assert [z for z, _ in draws] == [z for run in alone for z, _ in run]
    want = [ml for run in alone for _, ml in run]
    assert np.allclose([ml for _, ml in draws], want, rtol=1e-12, atol=0)
    assert [r.bit_generator.state for r in together] == [r.bit_generator.state for r in rngs]


def test_a_chains_groups_must_be_adjacent():
    panel, groups, _ = two_width_groups()
    rngs = [np.random.default_rng(c) for c in range(2)]
    with pytest.raises(ValueError, match="order of their groups"):
        smc_block_sample(groups + groups[:1], *panel_data(panel), 4, rngs + rngs[:1])


def test_group_steps_share_one_score_and_the_loop_folds(rng, monkeypatch):
    # smc_step weighs one group's particles from the scores every group shares
    # at t and returns their draws; smc_block_sample folds all the groups'
    # draws once per step
    calls = count_kernel_calls(monkeypatch)
    panel, groups, _ = two_width_groups()
    ps = ParticleSet(groups, *panel_data(panel), 5)
    calls.clear()
    before = ps.log_weights.copy()
    second = smc_step(ps, 1, rng, 1)
    assert second.shape == (5,)
    assert np.array_equal(ps.log_weights[:5], before[:5])
    assert (ps.log_weights[5:] != before[5:]).all()
    assert not ps.sizes.any()
    first = smc_step(ps, 1, rng, 0)
    assert calls == {"student_t_logpdf_array": 1}
    ps.assign(1, np.concatenate([first, second]))
    assert ps.sizes.sum(axis=1).tolist() == [1] * len(ps)

    # per step: one call of the score and of the fold, one smc_step per group;
    # the construction's and the capacity doublings' form calls are not counted
    def counting_step(*args, _step=smc.smc_step):
        calls["smc_step"] += 1
        return _step(*args)

    def counting_assign(*args, _assign=ParticleSet.assign):
        _assign(*args)
        calls["fold"] += 1
        per_step.append({name: calls.pop(name, 0) for name in counted})

    counted = ("smc_step", "student_t_logpdf_array", "fold")
    per_step = []
    monkeypatch.setattr(smc, "smc_step", counting_step)
    monkeypatch.setattr(ParticleSet, "assign", counting_assign)
    calls.clear()
    smc_block_sample(groups, *panel_data(panel), 5, rng)
    assert per_step == [{"smc_step": 2, "student_t_logpdf_array": 1, "fold": 1}] * panel.num_steps


def own_cells(group):
    """A group's cells in the order of its particles' entries: its members'
    lags, member by member, then their emissions."""
    lags = [(n, i) for n in group.members for i in range(1, group.window + 1)]
    return lags + [(n, 0) for n in group.members]


def test_grouped_particles_match_their_own_group(rng):
    # each particle's weights and statistics, at every step of a batch of two
    # groups of different widths, equal the scalar weights and the cells of
    # its own group loaded from its sequence so far; the set has no entry for
    # a cell the particle's group lacks.  The groups' hypers differ.
    panel = gappy_panel(rng, 2)
    templates = [
        GroupModel((0, 3), 0.7, panel.num_steps, 2, mixed_hypers(4, 2)),
        GroupModel((1,), 1.3, panel.num_steps, 2, mixed_hypers(4, 2, shift=0.7)),
    ]
    ps = ParticleSet(templates, *panel_data(panel), 9)
    cell_of = list(ps.cells.index)
    assert len(ps.row) == 9 * sum(len(own_cells(group)) for group in templates)

    def check(t):
        if t > panel.num_steps:
            return
        base, emis = ps.log_weights_split(t)
        for p in range(len(ps)):
            g = p // ps.num_particles
            group_stats = rebuilt_stats(ps, p, templates[g], t - 1, panel)
            want_base = group_stats.regime_log_weights(t, False)
            want_full = group_stats.regime_log_weights(t, True)
            k = group_stats.group.regimes.num_regimes
            assert ps.num_blocks[p] == k
            assert np.abs(base[p, : k + 1] - want_base).max() <= 1e-12
            assert np.abs((base + emis)[p, : k + 1] - want_full).max() <= 1e-12
            entries = ps.entries([p])
            assert [cell_of[c] for c in ps.row[entries]] == own_cells(templates[g])
            assert (ps.particle[entries] == p).all()
            for e in entries:
                stats = ps.count[e], ps.total[e], ps.total_sq[e]
                n, i = cell_of[ps.row[e]]
                cells = [row[i] for row in group_stats.cells[n]]
                assert stats[0][:k].tolist() == [s.count for s in cells]
                assert np.allclose(stats[1][:k], [s.sum for s in cells], rtol=0, atol=1e-8)
                assert np.allclose(stats[2][:k], [s.sum_sq for s in cells], rtol=0, atol=1e-8)

    filter_with_forced_resample(ps, rng, panel.num_steps, check)


def test_set_holds_each_groups_own_cells_and_draws_as_sets_of_one(rng):
    # a 1-member and a 4-member group at window 2, each its own chain, hold
    # J x 5 members x 3 cells entries; each draws byte for byte what a set of
    # it alone draws from the same Generator, with weights to 1e-12
    panel = gappy_panel(rng, 2)
    hypers = mixed_hypers(4, 2)
    groups = [empty_group(panel, hypers, members=m, alpha=1.3) for m in ((2,), (0, 1, 2, 3))]
    num = 6
    ps = ParticleSet(groups, *panel_data(panel), num, chain=[0, 1])
    assert len(ps.row) == len(ps.particle) == num * 5 * 3
    alone = [ParticleSet([group], *panel_data(panel), num) for group in groups]
    rngs, alone_rngs = ([np.random.default_rng(40 + g) for g in range(2)] for _ in range(2))
    for t in range(1, panel.num_steps + 1):
        draws = [smc_step(ps, t, r, g) for g, r in enumerate(rngs)]
        ps.assign(t, np.concatenate(draws))
        for g, (own, r) in enumerate(zip(alone, alone_rngs)):
            got = smc_step(own, t, r, 0)
            own.assign(t, got)
            assert got.tobytes() == draws[g].tobytes()
            assert np.abs(ps.log_weights[g * num : (g + 1) * num] - own.log_weights).max() <= 1e-12
            if t < panel.num_steps:
                maybe_resample(own, r)
        if t < panel.num_steps:
            maybe_resample(ps, rngs)
    for g, own in enumerate(alone):
        assert ps.z[g * num : (g + 1) * num].tobytes() == own.z.tobytes()
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in alone_rngs]


def test_group_without_lag_cells_has_crp_base(rng):
    # a window-0 group next to a window-2 group has no lag entry: its base,
    # scored with and without emissions, is its CRP weights alone
    panel = gappy_panel(rng, 2)
    hypers = mixed_hypers(4, 2)
    groups = [GroupModel((0, 3), 0.7, panel.num_steps, 0, hypers),
              GroupModel((1,), 1.3, panel.num_steps, 2, hypers)]
    ps = ParticleSet(groups, *panel_data(panel), 5)
    assert ps.num_lags == 5 * 2

    def check(t):
        if t > panel.num_steps:
            return
        for emission in (True, False):
            base, _ = ps.log_weights_split(t, emission=emission)
            with np.errstate(divide="ignore"):
                crp = np.log(ps.sizes[:5, : base.shape[1]])
            crp[np.arange(5), ps.num_blocks[:5]] = math.log(0.7)
            assert np.array_equal(base[:5], crp)

    filter_with_forced_resample(ps, rng, panel.num_steps, check)


def fresh_forms(ps, groups):
    """Every entry's Student-t forms rebuilt from its statistics and its
    own group's NIG cell, (4, entries, capacity)."""
    cell_of = list(ps.cells.index)
    nigs = [
        groups[p // ps.num_particles].hypers[n, i].tolist()
        for p, (n, i) in zip(ps.particle.tolist(), (cell_of[r] for r in ps.row.tolist()))
    ]
    hyper = [np.array(field)[:, None] for field in zip(*nigs)]
    lgamma = LgammaTable(ps.cells.x.shape[1]).rows(hyper[2])
    return np.array(student_t_form_array(*hyper, ps.count, ps.total, ps.total_sq, lgamma))


def test_stored_forms_equal_fresh_forms_at_every_step(rng):
    # two groups of different widths, windows and hypers, forced resampling,
    # and concentrations high enough that the block capacity doubles
    panel = gappy_panel(rng, 2)
    templates = [
        GroupModel((0, 3), 40.0, panel.num_steps, 2, mixed_hypers(4, 2)),
        GroupModel((1,), 40.0, panel.num_steps, 1, mixed_hypers(4, 2, shift=0.7)),
    ]
    ps = ParticleSet(templates, *panel_data(panel), 7)
    capacity = ps.count.shape[1]

    def check(t):
        assert np.array_equal(ps.form, fresh_forms(ps, templates)), t

    filter_with_forced_resample(ps, rng, panel.num_steps, check)
    assert ps.count.shape[1] > capacity


def test_set_starts_from_its_fitted_groups_stats(rng):
    # a set folds its start state from its own cells in one pass; it equals
    # the statistics a pass over each group folds, over the panel and over a
    # forecast's extended steps, whose labels are 0.  Each particle holds
    # its own group's cells and no other.
    panel = gappy_panel(rng, 2)
    hypers = mixed_hypers(4, 2)
    narrow = GroupModel((2,), 1.3, panel.num_steps, 2, hypers)
    narrow.load_sequence([1, 2, 2, 1, 1, 2, 2, 1])
    wide = GroupModel(MEMBERS, 0.7, panel.num_steps, 2, hypers)
    wide.load_sequence([1, 1, 2, 1, 3, 2, 4, 1])
    future = np.concatenate([np.where(panel.observed, panel.values, 0.0), rng.normal(size=(4, 3))], axis=1)
    every = np.concatenate([panel.observed, np.ones((4, 3), dtype=bool)], axis=1)
    for values, observed in ((panel.values, panel.observed), (future, every)):
        ps = ParticleSet([narrow, wide], values, observed, LgammaTable(values.shape[1] - 2), 3)
        cells = list(ps.cells.index)
        for g, group in enumerate((narrow, wide)):
            folded = GroupStats(group, panel.values, panel.observed).cells
            for j in range(3):
                entries = ps.entries([3 * g + j])
                assert [cells[c] for c in ps.row[entries]] == own_cells(group)
                for e in entries:
                    n, i = cells[ps.row[e]]
                    got = list(zip(*(a[e].tolist() for a in (ps.count, ps.total, ps.total_sq))))
                    want = [(row[i].count, row[i].sum, row[i].sum_sq) for row in folded[n]]
                    assert got == want + [(0, 0.0, 0.0)] * (len(got) - len(want))


def test_set_over_empty_groups_keeps_float_totals(rng):
    # bincount over no values returns int64 sums, which would make every
    # later fold integer arithmetic
    panel = gappy_panel(rng, 2)
    groups = [empty_group(panel, mixed_hypers(4, 2), members=m) for m in ((0,), (1, 3))]
    ps = ParticleSet(groups, *panel_data(panel), 4)
    assert ps.count.dtype == np.int64
    assert ps.total.dtype == ps.total_sq.dtype == ps.form.dtype == np.float64
    assert not (ps.count.any() or ps.total.any() or ps.total_sq.any())


def test_forecast_forms_equal_fresh_forms_at_every_step(rng, monkeypatch):
    # a forecast set starts from fitted groups' statistics and folds each
    # copy's own draws, padding copies too; the groups' hypers differ
    panel = gappy_panel(rng, 2)
    group = GroupModel(MEMBERS, 0.7, panel.num_steps, 2, mixed_hypers(4, 2))
    group.load_sequence([1, 1, 2, 1, 3, 2, 4, 1])
    other = GroupModel((1, 2), 1.3, panel.num_steps, 2, mixed_hypers(4, 2, shift=0.7))
    other.load_sequence([1, 2, 2, 1, 1, 3, 3, 1])
    horizon = 6
    known = panel.values.shape[1]
    values = np.zeros((4, known + horizon))
    values[:, :known] = np.where(panel.observed, panel.values, 0.0)
    observed = np.ones(values.shape, dtype=bool)
    observed[:, :known] = panel.observed
    checked = []
    score, assign = ParticleSet.log_weights_split, ParticleSet.assign

    def checked_score(ps, *args, **kwargs):
        assert np.array_equal(ps.form, fresh_forms(ps, [group, other]))
        checked.append(ps.num_blocks.max())
        return score(ps, *args, **kwargs)

    def checked_assign(ps, *args, **kwargs):
        assign(ps, *args, **kwargs)
        assert np.array_equal(ps.form, fresh_forms(ps, [group, other]))

    monkeypatch.setattr(ParticleSet, "log_weights_split", checked_score)
    monkeypatch.setattr(ParticleSet, "assign", checked_assign)
    lgamma = LgammaTable(panel.num_steps + horizon)
    predict._forecast_set([group, other], values, observed, lgamma, [5, 3], rng)
    assert len(checked) == horizon and checked[0] == 4


def test_groups_of_different_hypers_share_a_set_and_draw_as_sets_of_one():
    # a 1-member and a 3-member group whose NIG cells all differ, each its own
    # chain, share one set; at every step each draws byte for byte what a set
    # of it alone draws from the same Generator, and its sequences and log_ml
    # end byte-equal.  Every width stays below 8 columns, where a step's
    # normalizers add one column at a time.
    rng = np.random.default_rng(14)
    panel = gappy_panel(rng, 2)
    groups = [
        empty_group(panel, mixed_hypers(4, 2), members=(2,), alpha=0.9),
        empty_group(panel, mixed_hypers(4, 2, shift=0.7), members=MEMBERS, alpha=0.6),
    ]
    num, steps = 6, panel.num_steps
    ps = ParticleSet(groups, *panel_data(panel), num, chain=[0, 1])
    # each emission entry holds its own group's m
    emission = slice(ps.num_lags, None)
    assert ps.hyper[0][emission].tolist() == [0.3 * 2] * num + [0.3 * n + 0.7 for n in MEMBERS] * num
    alone = [ParticleSet([group], *panel_data(panel), num) for group in groups]
    rngs, alone_rngs = ([np.random.default_rng(50 + g) for g in range(2)] for _ in range(2))
    for t in range(1, steps + 1):
        draws = [smc_step(ps, t, r, g) for g, r in enumerate(rngs)]
        ps.assign(t, np.concatenate(draws))
        for g, (own, r) in enumerate(zip(alone, alone_rngs)):
            got = smc_step(own, t, r, 0)
            own.assign(t, got)
            assert got.tobytes() == draws[g].tobytes()
            if t < steps:
                maybe_resample(own, r)
        if t < steps:
            maybe_resample(ps, rngs)
    assert ps.num_blocks.max() < 7
    log_ml = ps.log_marginal_likelihood()
    for g, own in enumerate(alone):
        assert ps.z[g * num : (g + 1) * num].tobytes() == own.z.tobytes()
        assert log_ml[g : g + 1].tobytes() == own.log_marginal_likelihood().tobytes()
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in alone_rngs]
