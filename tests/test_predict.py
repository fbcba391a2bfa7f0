"""Forecasting, imputation, and dependence probabilities over sample sets."""

import json
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from conftest import make_panel, uniform_hypers
from oracles import (
    forecast_summary,
    naive_posterior,
    rollout_forecast,
    seen,
    student_t,
    value,
)
from test_model import build_state
from trcrp import predict, smc
from trcrp.conjugate import NigHyper
from trcrp.engine import RunConfig, fit
from trcrp.model import SeriesHypers
from trcrp.predict import (
    ForecastResult,
    SampleSet,
    dependence_matrix,
    forecast,
    impute,
)
from trcrp.smc import NumericalError, ParticleSet


def single_chain_samples(rng, values, z, window=1, assignments=None, hypers=None,
                         num_series=None):
    panel = make_panel(values, window=window)
    num_series = num_series or panel.num_series
    hypers = hypers or uniform_hypers(num_series, window)
    assignments = assignments or [1] * num_series
    groups = max(assignments)
    zs = z if isinstance(z[0], list) else [list(z)] * groups
    state = build_state(panel, hypers, zs, assignments)
    return SampleSet(panel=panel, chains=[state]), state


def test_forecast_tracks_sticky_regime_mean():
    # one regime, overwhelming emission evidence at 4.0, near-zero new-regime mass
    rng = np.random.default_rng(0)
    values = [[4.0] + list(4.0 + 0.01 * rng.standard_normal(30))]
    hypers = uniform_hypers(1, 1, m=4.0, V=0.01, a=50.0, b=0.5)
    samples, state = single_chain_samples(rng, values, [1] * 30, hypers=hypers)
    state.groups[0].alpha = 1e-12
    result = forecast(samples, horizon=1, draws=400, seed=1)
    pred = student_t(hypers[0].emission, state.groups[0].cells[0][0][0])
    sd = math.sqrt(pred.scale_sq * pred.dof / (pred.dof - 2))
    assert abs(result.draws[:, 0, 0].mean() - 4.0) < 3 * sd


def test_forecast_deterministic_given_seed(rng):
    values = [list(rng.normal(size=12)), list(rng.normal(size=12))]
    samples, _ = single_chain_samples(rng, values, [1, 2] * 5 + [1], num_series=2)
    a = forecast(samples, horizon=4, draws=20, seed=77)
    b = forecast(samples, horizon=4, draws=20, seed=77)
    assert np.array_equal(a.draws, b.draws)


def test_forecast_rejects_bad_horizon(rng):
    values = [list(rng.normal(size=6))]
    samples, _ = single_chain_samples(rng, values, [1] * 5)
    with pytest.raises(ValueError):
        forecast(samples, horizon=0, draws=5, seed=0)


def test_forecast_skips_missing_final_lag_cell(rng):
    # the lag cell of step T+1 is missing, so it contributes no cohesion
    # factor: the horizon-1 forecast is the CRP-weighted (4 : 5 : alpha)
    # mixture of the emission predictives of regime 1, regime 2 and a fresh one
    low = [0.1, -0.2, 0.15, -0.05]
    high = [10.1, 9.9, 10.2, 9.8]
    values = [[0.0] + low + high + [None]]
    hypers = uniform_hypers(1, 1, m=5.0, V=100.0)
    samples, _ = single_chain_samples(rng, values, [1] * 4 + [2] * 5, hypers=hypers)
    draws = forecast(samples, horizon=1, draws=4000, seed=6).draws[:, 0, 0]

    h = hypers[0].emission
    components = []
    for weight, data in ((4.0, low), (5.0, high), (1.0, [])):
        m, v, a, b = naive_posterior(h.m, h.V, h.a, h.b, data)
        scale = math.sqrt(b * (1 + v) / a)
        components.append((weight / 10.0, scipy.stats.t(df=2 * a, loc=m, scale=scale)))

    def mixture_cdf(x):
        return sum(w * dist.cdf(x) for w, dist in components)

    assert scipy.stats.kstest(draws, mixture_cdf).pvalue > 0.01
    assert abs((draws > 5.0).mean() - (1.0 - mixture_cdf(5.0))) < 0.03


def ks_bound(alpha, n, m=None):
    """Bound that the KS distance of n draws exceeds with probability at most alpha.

    One sample: the Dvoretzky-Kiefer-Wolfowitz inequality (Massart's
    constant), P(D > eps) <= 2 exp(-2 n eps^2).  Two samples of n and m
    draws: the same tail with n m / (n + m) in place of n, the Kolmogorov
    limit of the two-sample statistic.
    """
    size = n if m is None else n * m / (n + m)
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * size))


def test_horizon_two_forecast_matches_scalar_rollout():
    # Two groups at window 2 over values that alternate low and high.  Series
    # 0's value at T is missing, so its lag-1 cell at T+1 and its lag-2 cell
    # at T+2 are skipped; its lag-1 cells are tight and read each draw's own
    # step-1 value at T+2.  Every other lag cell is broad, so those regimes
    # follow the CRP counts the rollout folds in.  Each series' step-2 minus
    # step-1 difference is compared too, which a draw reading another draw's
    # lags would change.
    gen = np.random.default_rng(3)
    steps = 4
    alternating = np.where(np.arange(2 + steps) % 2, 4.0, 0.0)
    values = (alternating + gen.normal(0.0, 0.3, (3, 2 + steps))).tolist()
    values[0][-1] = None
    panel = make_panel(values, window=2)
    tight, broad = NigHyper(2.0, 4.0, 2.0, 0.1), NigHyper(2.0, 4.0, 2.0, 50.0)
    hypers = [SeriesHypers(tight, (tight, broad))] + [SeriesHypers(tight, (broad, broad))] * 2
    z = [1, 2] * (steps // 2)
    chains = [build_state(panel, hypers, [z, z], outer) for outer in ([1, 1, 2], [1, 2, 2])]
    samples = SampleSet(panel=panel, chains=chains)
    draws = 4000
    got = forecast(samples, horizon=2, draws=draws, seed=1).draws
    want = rollout_forecast(samples, horizon=2, draws=draws, seed=2)
    got, want = (np.concatenate([d, d[:, :, 1:] - d[:, :, :1]], axis=2) for d in (got, want))
    # 1e-3 in all, split over the nine (series, column) pairs
    bound = ks_bound(1e-3 / got[0].size, draws, draws)
    for n in range(3):
        for h in range(3):
            stat = scipy.stats.ks_2samp(got[:, n, h], want[:, n, h]).statistic
            assert stat < bound, (n, h, stat, bound)


@pytest.mark.parametrize("set_entries", [10**9, 6000], ids=["whole_buckets", "split_buckets"])
def test_forecast_of_shared_sets_matches_scalar_rollout(monkeypatch, set_entries):
    # Five chains at window 2 put groups of one and two members, under two
    # different hypers, into shared particle sets; the chains' draw counts
    # differ, so the sets pad some groups' copies.  At 10**9 entries each
    # (hypers, member count) bucket is one set; at 6000 a set holds at most
    # two groups of ~800 copies, so the buckets split.
    gen = np.random.default_rng(4)
    steps = 4
    alternating = np.where(np.arange(2 + steps) % 2, 4.0, 0.0)
    values = (alternating + gen.normal(0.0, 0.3, (3, 2 + steps))).tolist()
    values[1][-1] = None
    panel = make_panel(values, window=2)
    tight, broad = NigHyper(2.0, 4.0, 2.0, 0.1), NigHyper(2.0, 4.0, 2.0, 50.0)
    shifted = NigHyper(-3.0, 4.0, 3.0, 0.5)
    kinds = {
        "a": [SeriesHypers(tight, (tight, broad))] + [SeriesHypers(tight, (broad, broad))] * 2,
        "b": [SeriesHypers(shifted, (tight, broad))] * 3,
    }
    z, w = [1, 2, 1, 2], [1, 1, 2, 3]
    chains = [
        build_state(panel, kinds[kind], zs, outer)
        for kind, zs, outer in (
            ("a", [z, w], [1, 1, 2]),
            ("a", [w, z], [1, 2, 2]),
            ("a", [z, w, z], [1, 2, 3]),
            ("b", [w, z], [1, 1, 2]),
            ("b", [z, z, w], [1, 2, 3]),
        )
    ]
    samples = SampleSet(panel=panel, chains=chains)
    monkeypatch.setattr(smc, "SET_ENTRIES", set_entries)
    built = []
    forecast_set = predict._forecast_set

    def recording(groups, values, observed, lgamma, copies, rng):
        built.append(list(copies))
        return forecast_set(groups, values, observed, lgamma, copies, rng)

    monkeypatch.setattr(predict, "_forecast_set", recording)
    draws = 4000
    got = forecast(samples, horizon=2, draws=draws, seed=1).draws
    want = rollout_forecast(samples, horizon=2, draws=draws, seed=2)
    # four buckets, each one set unless split
    assert len(built) == 4 if set_entries == 10**9 else len(built) > 4
    assert any(len(copies) > 1 and len(set(copies)) > 1 for copies in built)
    got, want = (np.concatenate([d, d[:, :, 1:] - d[:, :, :1]], axis=2) for d in (got, want))
    # 1e-3 in all, split over the nine (series, column) pairs
    bound = ks_bound(1e-3 / got[0].size, draws, draws)
    for n in range(3):
        for h in range(3):
            stat = scipy.stats.ks_2samp(got[:, n, h], want[:, n, h]).statistic
            assert stat < bound, (n, h, stat, bound)


def test_forecast_builds_one_set_per_member_count(monkeypatch):
    # an SMC-only fit's chains share their initial hypers, so with few
    # copies each member count is one set across all chains and groups
    gen = np.random.default_rng(5)
    panel = make_panel(gen.normal(0.0, 1.0, (6, 25)).tolist(), window=1)
    samples = fit(panel, RunConfig(window=1, chains=4, burnin=0, particles=4, seed=3))
    sizes = [len(group.members) for chain in samples.chains for group in chain.groups]
    assert len(set(sizes)) < len(sizes)
    builds = []

    def counting(*args, **kwargs):
        builds.append(args[0])
        return ParticleSet(*args, **kwargs)

    monkeypatch.setattr(predict, "ParticleSet", counting)
    forecast(samples, horizon=3, draws=100, seed=0)
    assert len(builds) == len(set(sizes))


def test_imputation_matches_exact_mixture_over_chains():
    # each missing cell's draws follow the equal-weight mixture over chains of
    # the emission predictive of the regime the chain gave its step
    gen = np.random.default_rng(8)
    values = gen.normal(0.0, 1.0, size=(3, 11)).tolist()
    values[1][4:8] = [v + 5.0 for v in values[1][4:8]]
    for n, c in ((0, 3), (1, 5), (2, 10), (2, 6)):
        values[n][c] = None
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(3, 1, m=1.0, V=2.0, a=0.5, b=0.5)
    plans = [
        ([[1, 1, 2, 2, 2, 2, 1, 1, 3, 3], [1] * 10], [1, 1, 2]),
        ([[1, 2] * 5], [1, 1, 1]),
        ([[1] * 10, [1, 1, 1, 2, 2, 2, 2, 1, 1, 1], [1, 2, 3, 1, 2, 3, 1, 2, 3, 1]], [1, 2, 3]),
    ]
    samples = SampleSet(panel=panel, chains=[build_state(panel, hypers, *plan) for plan in plans])
    draws = 20_000
    result = impute(samples, draws=draws, seed=5)
    h = hypers[0].emission
    bound = ks_bound(1e-3 / len(result.cells), draws)
    for row, (n, t) in zip(result.draws, result.cells):
        components = []
        for zs, assignments in plans:
            z = zs[assignments[n] - 1]
            steps = [s for s in range(1, 11) if z[s - 1] == z[t - 1] and seen(panel, n, s)]
            data = [value(panel, n, s) for s in steps]
            m, v, a, b = naive_posterior(h.m, h.V, h.a, h.b, data)
            components.append(scipy.stats.t(df=2 * a, loc=m, scale=math.sqrt(b * (1 + v) / a)))

        def mixture_cdf(x):
            return sum(dist.cdf(x) for dist in components) / len(components)

        stat = scipy.stats.kstest(row, mixture_cdf).statistic
        assert stat < bound, ((n, t), stat, bound)


def test_forecast_draw_keeps_one_chain_across_groups():
    # the chains' priors pin every predictive near +10 and -10; the series sit
    # in different groups, so a draw that mixed chains would mix signs
    values = [[0.1, -0.2, 0.3, 0.0, 0.2], [-0.1, 0.2, 0.1, -0.3, 0.0]]
    panel = make_panel(values, window=1)
    z = [1, 1, 2, 1]
    chains = [
        build_state(panel, uniform_hypers(2, 1, m=m, V=1e-6, a=1000.0, b=1.0), [z, z], [1, 2])
        for m in (10.0, -10.0)
    ]
    draws = forecast(SampleSet(panel=panel, chains=chains), horizon=3, draws=200, seed=4).draws
    signs = np.sign(draws).reshape(200, -1)
    assert (signs == signs[:, :1]).all()
    assert set(signs[:, 0]) == {-1.0, 1.0}


def test_degenerate_predictives_raise_without_warnings():
    # the panel of test_cli::test_non_finite_predictive_draws_exit_4, fitted
    # as that test fits it: its emission predictives have about 1e-5 degrees
    # of freedom, so both queries must raise, with no numpy warning on the way
    rows = [[1.0] * 12, [0.5] + [None] * 11]
    panel = make_panel(rows, window=1)
    samples = fit(panel, RunConfig(window=1, chains=2, burnin=3, particles=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError):
            forecast(samples, horizon=10, draws=10, seed=0)
        with pytest.raises(NumericalError):
            impute(samples, draws=10, seed=0)


def test_forecast_summary_shape(rng):
    values = [list(rng.normal(size=8))]
    samples, _ = single_chain_samples(rng, values, [1] * 7)
    summary = forecast(samples, horizon=3, draws=50, seed=2).summary()
    entry = summary["s1"]
    assert len(entry["mean"]) == 3
    assert all(q05 <= q95 for q05, q95 in zip(entry["q05"], entry["q95"]))


@pytest.mark.parametrize("shape", [(1, 1, 1), (7, 1, 3), (50, 3, 1), (40, 4, 6)])
def test_forecast_summary_matches_per_series_summary(shape):
    draws = np.random.default_rng(sum(shape)).standard_t(3.0, size=shape)
    result = ForecastResult(tuple(f"s{n}" for n in range(shape[1])), shape[2], draws)
    assert json.dumps(result.summary()) == json.dumps(forecast_summary(result))


def test_impute_degenerate_regime_recovers_constant():
    values = [[2.0] + [2.0] * 10 + [None] + [2.0] * 4]
    rng = np.random.default_rng(1)
    hypers = uniform_hypers(1, 1, m=2.0, V=0.01, a=60.0, b=0.5)
    samples, _ = single_chain_samples(rng, values, [1] * 15, hypers=hypers)
    result = impute(samples, draws=800, seed=4)
    assert result.cells == [(0, 11)]
    mean = result.draws[0].mean()
    assert abs(mean - 2.0) < 0.05 * 2.0 + 0.05


def test_impute_fully_observed_is_empty(rng):
    values = [list(rng.normal(size=7))]
    samples, _ = single_chain_samples(rng, values, [1] * 6)
    result = impute(samples, draws=10, seed=0)
    assert result.cells == []
    assert result.draws.shape == (0, 10)
    assert result.summary() == {}


def test_impute_only_missing_cells(rng):
    values = [[0.0, 1.0, None, 3.0], [0.5, None, 1.5, None]]
    samples, _ = single_chain_samples(rng, values, [1, 1, 2], num_series=2)
    result = impute(samples, draws=5, seed=0)
    assert result.cells == [(0, 2), (1, 1), (1, 3)]


def test_impute_mean_converges_to_mixture_mean(rng):
    values = [[0.0] + list(rng.normal(size=10)), [0.0] + list(rng.normal(size=10))]
    values[0][4] = None
    panel_values = values
    hypers = uniform_hypers(2, 1)
    panel = make_panel(panel_values, window=1)
    chains = []
    for z in ([1, 1, 2, 1, 2, 1, 1, 2, 1, 2], [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]):
        chains.append(build_state(panel, hypers, [list(z)], [1, 1]))
    samples = SampleSet(panel=panel, chains=chains)
    draws = 10_000
    result = impute(samples, draws=draws, seed=9)
    (cell_idx,) = [i for i, c in enumerate(result.cells) if c == (0, 4)]
    locs = []
    var = 0.0
    for chain in chains:
        k = chain.groups[0].regimes.z[3]
        pred = student_t(hypers[0].emission, chain.groups[0].cells[0][k - 1][0])
        locs.append(pred.loc)
        var += pred.scale_sq * pred.dof / (pred.dof - 2.0)
    target = float(np.mean(locs))
    sd = math.sqrt(var / 2 + np.var(locs))
    got = result.draws[cell_idx].mean()
    assert abs(got - target) < 3.0 * sd / math.sqrt(draws) + 0.05


def test_dependence_single_chain(rng):
    values = [list(rng.normal(size=6)) for _ in range(3)]
    samples, _ = single_chain_samples(
        rng, values, [[1, 2, 1, 2, 1], [1] * 5], assignments=[1, 2, 1], num_series=3
    )
    matrix = dependence_matrix(samples)
    assert matrix[0, 2] == 1.0
    assert matrix[0, 1] == 0.0
    assert matrix[1, 1] == 1.0


def test_dependence_symmetric_and_averages_exactly(rng):
    values = [list(rng.normal(size=6)) for _ in range(2)]
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(2, 1)
    merged = build_state(panel, hypers, [[1, 2, 1, 2, 1]], [1, 1])
    split = build_state(panel, hypers, [[1] * 5, [1, 2, 1, 2, 1]], [1, 2])
    for frac, chains in ((1.0, [merged, merged]), (0.5, [merged, split])):
        samples = SampleSet(panel=panel, chains=list(chains))
        matrix = dependence_matrix(samples)
        assert matrix[0, 1] == frac
        assert matrix[1, 0] == frac


def test_dependence_matrix_matches_hand_count(rng):
    values = [list(rng.normal(size=5)) for _ in range(5)]
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(5, 1)
    plans = ([1, 1, 2, 2, 3], [1, 1, 2, 3, 3], [1, 2, 2, 3, 1])
    chains = [build_state(panel, hypers, [[1] * 4] * 3, plan) for plan in plans]
    # pairs sharing a group: (0,1) (2,3) | (0,1) (3,4) | (1,2) (0,4)
    hits = np.array([
        [3, 2, 0, 0, 1],
        [2, 3, 1, 0, 0],
        [0, 1, 3, 1, 0],
        [0, 0, 1, 3, 1],
        [1, 0, 0, 1, 3],
    ])
    got = dependence_matrix(SampleSet(panel=panel, chains=chains))
    assert np.array_equal(got, hits / 3)


def test_dependence_matrix_shape_and_range(rng):
    values = [list(rng.normal(size=6)) for _ in range(3)]
    samples, _ = single_chain_samples(
        rng, values, [[1, 2, 1, 2, 1], [1] * 5], assignments=[1, 2, 1], num_series=3
    )
    matrix = dependence_matrix(samples)
    assert matrix.shape == (3, 3)
    assert np.allclose(matrix, matrix.T)
    assert np.allclose(np.diag(matrix), 1.0)
    assert ((matrix >= 0) & (matrix <= 1)).all()


def test_dependence_matrix_single_series(rng):
    values = [list(rng.normal(size=5))]
    samples, _ = single_chain_samples(rng, values, [1] * 4)
    assert np.array_equal(dependence_matrix(samples), np.array([[1.0]]))
