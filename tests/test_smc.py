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
from trcrp.model import GroupModel
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
    assert ps.log_weights == before
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
    marker = ps.groups[2]
    ps.log_weights = [0.0 if j == 2 else -1e9 for j in range(6)]
    assert maybe_resample(ps, rng)
    for group in ps.groups:
        assert group.regimes.z == marker.regimes.z
    assert ps.log_weights == [0.0] * 6


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


def test_particle_stats_match_panel_mask(rng):
    # every particle folds exactly the observed cells of the steps it has
    # assigned, before and after resampling
    values = [list(rng.normal(size=8)) for _ in range(3)]
    values[0][1] = None  # t=1
    values[1][4] = None  # mid-series
    values[0][7] = values[1][7] = None  # t=T
    panel = make_panel(values, window=1)
    group = empty_group(panel, uniform_hypers(3, 1), members=(0, 1))
    ps = ParticleSet(group, panel.values, panel.observed, 12)
    for t in range(1, panel.num_steps + 1):
        smc_step(ps, t, rng)
        if t < panel.num_steps:
            maybe_resample(ps, rng)
        for particle in ps.groups:
            assert particle.stats_deviation(panel.values, panel.observed) < 1e-8
    assert group.regimes.num_regimes == 0  # the template group stays empty
