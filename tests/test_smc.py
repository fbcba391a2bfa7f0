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
from trcrp.model import GroupModel, SeriesHypers
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
    draws = [smc_step(ps, t, rng, g) for g in range(len(ps.rows))]
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


def rebuilt_group(ps, j, template, steps, panel):
    """A group holding particle j's sequence over steps 1..steps, loaded with add_regime/_fold."""
    group = template.empty_clone()
    z = ps.z[j, :steps].tolist()
    for _ in range(max(z, default=0)):
        group.add_regime()
    group.regimes.z[:steps] = z
    for k in z:
        group.regimes.counts[k - 1] += 1
    group._fold(group.members, range(1, steps + 1), panel.values, panel.observed)
    return group


# three members of a four-series panel, so the filter must skip a non-member
MEMBERS = (0, 1, 3)


def gappy_panel(rng, window):
    # missing member cells at t=1, mid-series and t=T
    values = [list(rng.normal(size=window + 8)) for _ in range(4)]
    values[0][window] = None
    values[1][window + 3] = None
    values[0][-1] = values[3][-1] = None
    return make_panel(values, window=window)


def mixed_hypers(num_series, window):
    # a distinct hyper per series and cell, so a cell scored against the wrong
    # hyper shows
    return [
        SeriesHypers(
            NigHyper(0.3 * n, 1.0 + n, 2.0 + 0.5 * n, 1.0 + 0.2 * n),
            tuple(NigHyper(-0.2 * i, 0.5 * i, 1.5 + i + n, 2.0) for i in range(1, window + 1)),
        )
        for n in range(num_series)
    ]


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
            group = rebuilt_group(ps, j, template, t - 1, panel)
            want_base = group.regime_log_weights(t, panel.values, panel.observed, False)
            want_full = group.regime_log_weights(t, panel.values, panel.observed, True)
            k = group.regimes.num_regimes
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

    def check(t):
        for j in range(len(ps)):
            group = rebuilt_group(ps, j, template, t - 1, panel)
            k = group.regimes.num_regimes
            for c, (n, i) in enumerate(ps.cells.index):
                for block in range(k):
                    cell = group.cells[n][block][i]
                    assert ps.count[j, c, block] == cell.count
                    assert abs(ps.total[j, c, block] - cell.sum) < 1e-8
                    assert abs(ps.total_sq[j, c, block] - cell.sum_sq) < 1e-8
            for stats in (ps.count, ps.total, ps.total_sq):
                assert not stats[j, :, k:].any()

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
    names = ("z", "num_blocks", "sizes", "count", "total", "total_sq", "log_weights")
    before = {name: getattr(ps, name)[6:].copy() for name in names}
    marker = ps.z[2].copy()
    assert maybe_resample(ps, rng)
    for name in names:
        assert np.array_equal(getattr(ps, name)[6:], before[name]), name
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


def test_grouped_particles_match_their_own_group(rng):
    # each particle's weights and statistics, at every step of a batch of two
    # groups of different widths, equal the scalar weights and the cells of
    # its own group loaded from its sequence so far; padding rows stay empty
    panel = gappy_panel(rng, 2)
    hypers = mixed_hypers(4, 2)
    templates = [
        GroupModel((0, 3), 0.7, panel.num_steps, 2, hypers),
        GroupModel((1,), 1.3, panel.num_steps, 2, hypers),
    ]
    ps = ParticleSet(templates, *panel_data(panel), 9)
    cell_of = {c: cell for cell, c in ps.cells.index.items()}

    def check(t):
        if t > panel.num_steps:
            return
        base, emis = ps.log_weights_split(t)
        for p in range(len(ps)):
            g = ps.group[p]
            group = rebuilt_group(ps, p, templates[g], t - 1, panel)
            want_base = group.regime_log_weights(t, panel.values, panel.observed, False)
            want_full = group.regime_log_weights(t, panel.values, panel.observed, True)
            k = group.regimes.num_regimes
            assert ps.num_blocks[p] == k
            assert np.abs(base[p, : k + 1] - want_base).max() <= 1e-12
            assert np.abs((base + emis)[p, : k + 1] - want_full).max() <= 1e-12
            for r, c in enumerate(ps.rows[g]):
                stats = ps.count[p, r], ps.total[p, r], ps.total_sq[p, r]
                if c not in cell_of:
                    assert not any(s.any() for s in stats)
                    continue
                n, i = cell_of[c]
                cells = [row[i] for row in group.cells[n]]
                assert stats[0][:k].tolist() == [s.count for s in cells]
                assert np.allclose(stats[1][:k], [s.sum for s in cells], rtol=0, atol=1e-8)
                assert np.allclose(stats[2][:k], [s.sum_sq for s in cells], rtol=0, atol=1e-8)

    filter_with_forced_resample(ps, rng, panel.num_steps, check)


def fresh_forms(ps):
    """Every particle's Student-t forms rebuilt from its statistics and its
    group's layout rows, (4, G*J, cells, capacity)."""
    def padded(a, fill):
        return np.concatenate([a, np.full_like(a[:1], fill)])[ps.rows[ps.group]]

    hyper = (padded(h, 1.0) for h in ps.cells.hyper)
    row, ratio = ps.cells.lgamma
    lgamma = padded(row, 0), ratio
    return np.array(student_t_form_array(*hyper, ps.count, ps.total, ps.total_sq, lgamma))


def test_stored_forms_equal_fresh_forms_at_every_step(rng):
    # two groups of different widths (padding rows), forced resampling, and
    # concentrations high enough that the block capacity doubles
    panel = gappy_panel(rng, 2)
    hypers = mixed_hypers(4, 2)
    templates = [
        GroupModel((0, 3), 40.0, panel.num_steps, 2, hypers),
        GroupModel((1,), 40.0, panel.num_steps, 1, hypers),
    ]
    ps = ParticleSet(templates, *panel_data(panel), 7)
    capacity = ps.count.shape[2]

    def check(t):
        assert np.array_equal(ps.form, fresh_forms(ps)), t

    filter_with_forced_resample(ps, rng, panel.num_steps, check)
    assert ps.count.shape[2] > capacity


def test_forecast_forms_equal_fresh_forms_at_every_step(rng, monkeypatch):
    # a forecast set starts from fitted groups' statistics and folds each
    # copy's own draws, padding copies too
    panel = gappy_panel(rng, 2)
    hypers = mixed_hypers(4, 2)
    group = GroupModel(MEMBERS, 0.7, panel.num_steps, 2, hypers)
    group.load_sequence([1, 1, 2, 1, 3, 2, 4, 1], panel.values, panel.observed)
    other = GroupModel((1, 2, 3), 1.3, panel.num_steps, 2, hypers)
    other.load_sequence([1, 2, 2, 1, 1, 3, 3, 1], panel.values, panel.observed)
    horizon = 6
    known = panel.values.shape[1]
    values = np.zeros((4, known + horizon))
    values[:, :known] = np.where(panel.observed, panel.values, 0.0)
    observed = np.ones(values.shape, dtype=bool)
    observed[:, :known] = panel.observed
    checked = []
    score, assign = ParticleSet.log_weights_split, ParticleSet.assign

    def checked_score(ps, *args, **kwargs):
        assert np.array_equal(ps.form, fresh_forms(ps))
        checked.append(ps.num_blocks.max())
        return score(ps, *args, **kwargs)

    def checked_assign(ps, *args, **kwargs):
        assign(ps, *args, **kwargs)
        assert np.array_equal(ps.form, fresh_forms(ps))

    monkeypatch.setattr(ParticleSet, "log_weights_split", checked_score)
    monkeypatch.setattr(ParticleSet, "assign", checked_assign)
    lgamma = LgammaTable(panel.num_steps + horizon)
    predict._forecast_set([group, other], values, observed, lgamma, [5, 3], rng)
    assert len(checked) == horizon and checked[0] == 4
