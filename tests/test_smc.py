"""Particle-learning block sampler: weights, resampling, marginal likelihood.

Weights, resampling and the marginal-likelihood estimate are pinned on small
instances against enumeration, and the distribution of the returned
sequence against the enumerated posterior.
"""

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
from trcrp import smc
from trcrp.conjugate import NigHyper
from trcrp.model import GroupModel, SeriesHypers
from trcrp.smc import (
    NumericalError,
    ParticleSet,
    maybe_resample,
    smc_block_sample,
    smc_step,
)


def empty_group(panel, hypers, members=(0,), alpha=1.0):
    return GroupModel(members, alpha, panel.num_steps, panel.window, hypers)


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
    ps = ParticleSet(empty_group(panel, hypers), panel.values, panel.observed, 4)
    smc_step(ps, 1, rng)
    before = list(ps.log_weights)
    smc_step(ps, 2, rng)  # row at t=2 is missing
    assert ps.log_weights.tolist() == before
    assert np.isnan(panel.values[0, 2])  # nothing is imputed


def test_single_particle_weight_is_log_ml_estimate(rng):
    # J=1 never trips the ESS criterion, so the final weight is the whole
    # product of one-step predictives.
    panel = make_panel([list(rng.normal(size=5))], window=1)
    hypers = uniform_hypers(1, 1)
    ps = ParticleSet(empty_group(panel, hypers), panel.values, panel.observed, 1)
    for t in range(1, 5):
        smc_step(ps, t, rng)
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
    ps = ParticleSet(empty_group(panel, hypers), panel.values, panel.observed, reps)
    for t in range(1, panel.num_steps + 1):
        smc_step(ps, t, rng)  # no resampling: mean of raw weight products
    log_mean = scipy.special.logsumexp(ps.log_weights) - math.log(reps)
    assert abs(math.exp(log_mean - exact) - 1.0) < 0.01


def test_resample_skipped_on_equal_weights(rng):
    panel = make_panel([[0.0, 1.0, 2.0]], window=1)
    ps = ParticleSet(empty_group(panel, uniform_hypers(1, 1)), panel.values, panel.observed, 8)
    assert not maybe_resample(ps, rng)
    assert np.allclose(ps.normalized_weights().sum(), 1.0, atol=1e-12)


def test_resample_collapses_to_dominant_particle(rng):
    panel = make_panel([[0.0, 1.0, 2.0]], window=1)
    ps = ParticleSet(empty_group(panel, uniform_hypers(1, 1)), panel.values, panel.observed, 6)
    smc_step(ps, 1, rng)
    marker = ps.z[2].tolist()
    ps.log_weights = [0.0 if j == 2 else -1e9 for j in range(6)]
    assert maybe_resample(ps, rng)
    for z in ps.z:
        assert z.tolist() == marker
    assert ps.log_weights.tolist() == [0.0] * 6


def test_resample_all_zero_weights_raises(rng):
    panel = make_panel([[0.0, 1.0, 2.0]], window=1)
    ps = ParticleSet(empty_group(panel, uniform_hypers(1, 1)), panel.values, panel.observed, 3)
    ps.log_weights = [float("-inf")] * 3
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
        smc_block_sample(empty_group(panel, hypers), panel.values, panel.observed,
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
    group = empty_group(panel, hypers)
    for _ in range(reps):
        z, _ = smc_block_sample(group, panel.values, panel.observed, 16, rng)
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
        smc_step(ps, t, rng)
        if t == num_steps // 2:
            ps.log_weights = np.where(np.arange(len(ps)) % 3 == 0, 0.0, -50.0)
            assert maybe_resample(ps, rng)
        elif t < num_steps:
            maybe_resample(ps, rng)
    check(num_steps + 1)


@pytest.mark.parametrize("window", [0, 2])
def test_batched_weights_match_group_weights(rng, window):
    # every particle's (base, emission) row at every step equals the scalar
    # weights of a group loaded from the particle's sequence so far
    panel = gappy_panel(rng, window)
    template = GroupModel(MEMBERS, 0.7, panel.num_steps, window, mixed_hypers(4, window))
    ps = ParticleSet(template, panel.values, panel.observed, 9)

    def check(t):
        if t > panel.num_steps:
            return
        base, emis = ps.log_weights_split(t)
        for j in range(len(ps)):
            group = rebuilt_group(ps, j, template, t - 1, panel)
            want_base, want_emis = group.regime_log_weights_split(
                t, panel.values, panel.observed, True
            )
            k = group.regimes.num_regimes
            assert ps.num_blocks[j] == k
            assert np.abs(base[j, : k + 1] - want_base).max() <= 1e-12
            assert np.abs(emis[j, : k + 1] - want_emis).max() <= 1e-12
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
    ps = ParticleSet(template, panel.values, panel.observed, 12)

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


def test_step_makes_the_same_kernel_calls_for_any_particle_count(rng, monkeypatch):
    # batching guard: a step scores all particles with one set of array kernel
    # calls, so the count does not grow with J
    kernel = smc.predictive_logpdf_array
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(smc, "predictive_logpdf_array", counting)
    panel = gappy_panel(rng, 2)
    template = empty_group(panel, mixed_hypers(4, 2), members=MEMBERS)
    per_step = []
    for num in (1, 8, 64):
        ps = ParticleSet(template, panel.values, panel.observed, num)
        for t in range(1, 4):
            smc_step(ps, t, rng)
        calls.clear()
        smc_step(ps, 4, rng)
        per_step.append(len(calls))
    assert per_step[0] >= 1
    assert per_step == [per_step[0]] * 3


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
    group = empty_group(panel, hypers, members=(0, 1))
    for _ in range(reps):
        z, _ = smc_block_sample(group, panel.values, panel.observed, 16, rng)
        counts[canonical_partition(z)] += 1
    empirical = {z: c / reps for z, c in counts.items()}
    bound = 3 * 0.5 * math.sqrt(2 * len(seqs) / (math.pi * reps))
    assert total_variation(exact, empirical) <= bound
