"""Single-site MH: proposal distribution, exact acceptance ratio, sweeps.

The ratio itself is pinned against log-joint differencing plus the proposal
correction, which is the identity that makes the chain exact, and one whole
full-MH sweep is checked to leave an enumerated posterior invariant.
"""

import copy
import math
from collections import Counter

import numpy as np
import pytest

from conftest import hyper_tuples, make_panel, uniform_hypers
from oracles import canonical_partition, enumerate_posterior, naive_group_loglik, total_variation
from trcrp.mcmc import (
    NEW_REGIME,
    MhConfig,
    acceptance_log_ratio,
    propose_z,
    sweep_z,
    transition_site,
)
from trcrp.conjugate import NigHyper
from trcrp.model import GroupModel, SeriesHypers, cell_layout, log_joint
from trcrp.util import logsumexp
from test_model import build_group, build_state


def lag_cells(group, panel):
    """The emission-free layout a full-MH sweep builds for ``group``."""
    return cell_layout(
        group.members, group.hypers, panel.values, panel.observed, group.window, emission=False
    )


def group_loglik_for(panel, hypers, z, alpha=1.0, members=None):
    members = members if members is not None else list(range(panel.num_series))
    return naive_group_loglik(z, members, alpha, hyper_tuples(hypers), panel)


def test_propose_single_step_returns_new_regime(rng):
    panel = make_panel([[0.0, 1.0]], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1])
    group.unassign(1, panel.values, panel.observed)
    branch, logprob, weights = propose_z(group, 1, panel.values, panel.observed, rng)
    assert branch == NEW_REGIME
    assert logprob == pytest.approx(0.0, abs=1e-12)
    assert len(weights) == 1


def test_propose_symmetric_regimes_weigh_equally(rng):
    # constant history: both regimes end up with identical stats and counts
    panel = make_panel([[1.0, 1.0, 1.0, 1.0, 1.0, 2.0]], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1, 2, 1, 2])
    _, _, weights = propose_z(group, 5, panel.values, panel.observed, rng)
    assert weights[0] == pytest.approx(weights[1], abs=1e-10)


def test_proposal_distribution_matches_direct_evaluation(rng):
    values = [list(rng.normal(size=8)), list(rng.normal(size=8))]
    values[0][5] = None
    panel = make_panel(values, window=2)
    hypers = uniform_hypers(2, 2, m=0.1, V=1.2, a=1.9, b=0.8)
    tuples = hyper_tuples(hypers)
    z = [1, 1, 2, 1, 2, 1]
    t_site = 4
    group = build_group(panel, hypers, z, alpha=0.9)
    group.unassign(t_site, panel.values, panel.observed)
    _, _, weights = propose_z(group, t_site, panel.values, panel.observed, rng)
    impl = np.exp(np.array(weights) - logsumexp(weights))

    # direct: evaluate CRP(k | z minus t) * cohesion * observed emission from raw data
    from oracles import naive_predictive_logpdf

    others = [zz for i, zz in enumerate(z, start=1) if i != t_site]
    labels = sorted(set(others), key=lambda lab: [i for i, zz in enumerate(z, 1) if zz == lab][0])
    direct = []
    p = panel.window
    for opt in labels + ["new"]:
        if opt == "new":
            w = math.log(0.9)
        else:
            w = math.log(others.count(opt))
        for n in (0, 1):
            em, lags = tuples[n]
            for i in range(1, p + 1):
                if panel.is_observed(n, t_site - i):
                    data = [
                        panel.value(n, tt - i)
                        for tt in range(1, panel.num_steps + 1)
                        if tt != t_site and z[tt - 1] == opt and panel.is_observed(n, tt - i)
                    ] if opt != "new" else []
                    w += naive_predictive_logpdf(*lags[i - 1], data, panel.value(n, t_site - i))
            if panel.is_observed(n, t_site):
                data = [
                    panel.value(n, tt)
                    for tt in range(1, panel.num_steps + 1)
                    if tt != t_site and z[tt - 1] == opt and panel.is_observed(n, tt)
                ] if opt != "new" else []
                w += naive_predictive_logpdf(*em, data, panel.value(n, t_site))
        direct.append(w)
    direct = np.exp(np.array(direct) - logsumexp(list(direct)))
    # the scratch labels follow first appearance, same ordering as `labels`
    assert 0.5 * np.abs(impl - direct).sum() < 1e-10


def test_acceptance_identity_proposal_is_zero(rng):
    panel = make_panel([list(rng.normal(size=6))], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1, 2, 1, 2, 1])
    group.unassign(3, panel.values, panel.observed)
    assert acceptance_log_ratio(group, 3, 1, 1, lag_cells(group, panel)) == 0.0


def test_acceptance_last_step_is_zero(rng):
    panel = make_panel([list(rng.normal(size=6))], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1, 2, 1, 2, 1])
    group.unassign(5, panel.values, panel.observed)
    assert acceptance_log_ratio(group, 5, 1, 2, lag_cells(group, panel)) == 0.0


def exact_log_ratio(panel, hypers, z, t_site, z_new_label, alpha=1.0):
    """Oracle: joint difference plus proposal correction, all from raw data."""
    z_old = list(z)
    z_alt = list(z)
    z_alt[t_site - 1] = z_new_label
    delta_joint = group_loglik_for(panel, hypers, z_alt, alpha) - group_loglik_for(
        panel, hypers, z_old, alpha
    )
    # proposal weights over the shared conditional (independence proposal)
    group = build_group(panel, hypers, z_old, alpha=alpha)
    group.unassign(t_site, panel.values, panel.observed)
    base, emis = group.regime_log_weights_split(t_site, panel.values, panel.observed, True)
    weights = [b + e for b, e in zip(base, emis)]
    # map original labels to the group's post-removal labels
    def weight_of(label):
        remaining = [zz for i, zz in enumerate(z_old, 1) if i != t_site]
        if label in remaining:
            # labels stay contiguous; removal happened only if old label vanished
            order = []
            for zz in remaining:
                if zz not in order:
                    order.append(zz)
            return weights[sorted(order).index(label)]
        return weights[-1]

    return delta_joint + weight_of(z_old[t_site - 1]) - weight_of(z_new_label)


def check_every_site_and_target(panel, hypers, z, alpha):
    """acceptance_log_ratio equals the differencing oracle at every site and target."""
    for t_site in range(1, len(z) + 1):
        current = z[t_site - 1]
        others = set(z[: t_site - 1] + z[t_site:])
        for target in sorted(others | {max(z) + 1}):
            if target == current:
                continue
            group = build_group(panel, hypers, z, alpha=alpha)
            old_label, removed = group.unassign(t_site, panel.values, panel.observed)
            branch_old = NEW_REGIME if removed else old_label
            # translate target into the post-removal labeling
            remaining = [zz for i, zz in enumerate(z, 1) if i != t_site]
            if target in remaining:
                order = []
                for zz in remaining:
                    if zz not in order:
                        order.append(zz)
                branch_new = sorted(order).index(target) + 1
            else:
                branch_new = NEW_REGIME
            got = acceptance_log_ratio(
                group, t_site, branch_old, branch_new, lag_cells(group, panel)
            )
            want = exact_log_ratio(panel, hypers, z, t_site, target, alpha=alpha)
            assert got == pytest.approx(want, abs=1e-8), (t_site, target)


def test_acceptance_matches_log_joint_differencing(rng):
    values = [list(rng.normal(size=4))]
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(1, 1, m=0.0, V=1.0, a=1.5, b=0.9)
    check_every_site_and_target(panel, hypers, [1, 2, 1], alpha=1.0)


def test_acceptance_matches_differencing_multiseries_missing(rng):
    for window in (2, 0):
        values = [list(rng.normal(size=4 + window)), list(rng.normal(size=4 + window))]
        values[0][window + 1] = None
        values[1][window + 3] = None
        panel = make_panel(values, window=window)
        hypers = uniform_hypers(2, window, m=0.4, V=0.7, a=2.2, b=1.1)
        check_every_site_and_target(panel, hypers, [1, 1, 2, 1], alpha=0.6)


def test_sweep_degenerate_single_regime_stays_put():
    panel = make_panel([[1.0] * 8], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1] * 7, alpha=1e-12)
    rng = np.random.default_rng(3)
    sweep_z(group, panel.values, panel.observed, rng, MhConfig(full_mh=True))
    assert group.regimes.z == [1] * 7


def test_sweep_keeps_stats_consistent(rng):
    values = [list(rng.normal(size=12)), list(rng.normal(size=12))]
    values[0][7] = None
    panel = make_panel(values, window=1)
    group = build_group(panel, uniform_hypers(2, 1), [1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1])
    for mode in (False, True):
        sweep_z(group, panel.values, panel.observed, rng, MhConfig(full_mh=mode))
        assert group.stats_deviation(panel.values, panel.observed) < 1e-8
        group.regimes.check()


def test_sweep_leaves_canonical_statistics():
    # one-step subtraction drifts in the last bits; the sweep ends with a
    # rebuild from the data in time order, so the deviation is exactly zero
    rng = np.random.default_rng(3)
    values = [list(rng.normal(scale=3.0, size=42)) for _ in range(2)]
    panel = make_panel(values, window=2)
    group = build_group(panel, uniform_hypers(2, 2), [1, 2, 3] * 13 + [1])
    sweep_z(group, panel.values, panel.observed, rng, MhConfig(full_mh=False))
    assert group.stats_deviation(panel.values, panel.observed) == 0.0


def test_heuristic_mode_accepts_everything(rng):
    panel = make_panel([list(rng.normal(size=10))], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1, 1, 2, 1, 2, 1, 1, 2, 1])
    stats = sweep_z(group, panel.values, panel.observed, rng, MhConfig(full_mh=False))
    assert stats["accepted"] == stats["sites"] == 9


def test_full_mode_cost_grows_quadratically():
    # A full-MH sweep costs O(T^2) (two prefix passes per site); no test
    # measures that growth. This is a smoke run of one full sweep at T=100.
    rng = np.random.default_rng(0)
    xs = np.sin(np.arange(101) / 5.0) + rng.normal(scale=0.1, size=101)
    panel = make_panel([list(xs)], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1] * 100)
    sweep_z(group, panel.values, panel.observed, rng, MhConfig(full_mh=True))
    assert group.stats_deviation(panel.values, panel.observed) < 1e-8


@pytest.mark.parametrize("window", [0, 1])
def test_full_sweep_leaves_enumerated_posterior_invariant(window):
    # Start N chains from independent draws of the exact posterior over the 52
    # partitions of T=5 steps and apply one full-MH sweep to each: if the
    # sweep leaves the posterior invariant, the N end states are iid draws
    # from it.  Then E[TV] <= sum_k sqrt(p_k (1 - p_k) / N) / 2, and since one
    # draw moves TV by at most 1/N, McDiarmid gives
    # P(TV > E[TV] + eps) <= exp(-2 N eps^2); eps is set for 1e-6.  Window 1
    # makes the normalizer ratios matter: always-accept sweeps on this panel
    # exceed the bound about 4x; window 0 has no cohesion and checks the
    # proposal with its missing cell.
    num_draws = 4000
    rows = [[0.0, 2.5, 0.2, 2.7, 2.4, 0.1], [1.0, -1.2, 0.9, -0.8, -1.1, 1.2]]
    values = [row[1 - window :] for row in rows]
    values[1][window + 2] = None
    panel = make_panel(values, window=window)
    cell = SeriesHypers(NigHyper(0.0, 4.0, 2.0, 0.2), (NigHyper(0.0, 4.0, 3.0, 0.05),) * window)
    hypers = [cell, cell]
    alpha = 2.0
    posterior, _ = enumerate_posterior(panel, [0, 1], alpha, hyper_tuples(hypers))
    sequences = list(posterior)
    probs = np.array([posterior[z] for z in sequences])
    rng = np.random.default_rng(window)
    ends = Counter()
    for i in rng.choice(len(sequences), size=num_draws, p=probs / probs.sum()):
        group = build_group(panel, hypers, list(sequences[i]), alpha=alpha)
        sweep_z(group, panel.values, panel.observed, rng, MhConfig(full_mh=True))
        ends[canonical_partition(group.regimes.z)] += 1
    tv = total_variation({z: c / num_draws for z, c in ends.items()}, posterior)
    mean_tv = 0.5 * np.sqrt(probs * (1 - probs) / num_draws).sum()
    assert tv <= mean_tv + math.sqrt(math.log(1e6) / (2 * num_draws))
