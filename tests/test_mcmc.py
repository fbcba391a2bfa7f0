"""Single-site MH: proposal distribution, exact acceptance ratio, sweeps.

The ratio itself is pinned against log-joint differencing plus the proposal
correction, which is the identity that makes the chain exact, and one whole
full-MH sweep is checked to leave an enumerated posterior invariant.  The
sweep table's incremental ratio is pinned bit for bit against the two-pass
reference in ``oracles``, at every site and target and over a whole sweep.
"""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import hyper_tuples, make_panel, uniform_hypers
from oracles import (
    canonical_partition,
    enumerate_posterior,
    logsumexp,
    naive_group_loglik,
    naive_predictive_logpdf,
    seen,
    total_variation,
    two_pass_log_ratio,
    two_pass_sweep_z,
    value,
)
import trcrp.mcmc
import trcrp.model
from trcrp.mcmc import (
    NEW_REGIME,
    MhConfig,
    SweepTable,
    acceptance_log_ratio,
    propose_z,
    sweep_z,
)
from trcrp.conjugate import LgammaTable, NigHyper
from trcrp.model import SeriesHypers
from test_model import build_group


def lgamma_of(panel):
    """A new lgamma table over the panel's steps, as a chain holds one."""
    return LgammaTable(panel.num_steps)


def unassign_site(group, t, panel):
    """The group's :class:`SweepTable`, then time t unassigned from both; returns
    the table and t's old branch, as a full-MH sweep holds them at site t."""
    table = SweepTable(group, panel.values, panel.observed, lgamma_of(panel))
    old_label, removed = group.unassign(t, panel.values, panel.observed)
    if removed:
        table.drop(old_label)
    return table, NEW_REGIME if removed else old_label


def group_loglik_for(panel, hypers, z, alpha=1.0, members=None):
    members = members if members is not None else list(range(panel.num_series))
    return naive_group_loglik(z, members, alpha, hyper_tuples(hypers), panel)


def test_propose_single_step_returns_new_regime(rng):
    panel = make_panel([[0.0, 1.0]], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1])
    group.unassign(1, panel.values, panel.observed)
    branch = propose_z(group, 1, panel.values, panel.observed, rng)
    weights = group.regime_log_weights(1, panel.values, panel.observed, True)
    assert branch == NEW_REGIME
    assert weights[-1] - logsumexp(weights) == pytest.approx(0.0, abs=1e-12)
    assert len(weights) == 1


def test_propose_symmetric_regimes_weigh_equally(rng):
    # constant history: both regimes end up with identical stats and counts
    panel = make_panel([[1.0, 1.0, 1.0, 1.0, 1.0, 2.0]], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1, 2, 1, 2])
    weights = group.regime_log_weights(5, panel.values, panel.observed, True)
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
    weights = group.regime_log_weights(t_site, panel.values, panel.observed, True)
    impl = np.exp(np.array(weights) - logsumexp(weights))

    # direct: evaluate CRP(k | z minus t) * cohesion * observed emission from raw data
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
                if seen(panel, n, t_site - i):
                    data = [
                        value(panel, n, tt - i)
                        for tt in range(1, panel.num_steps + 1)
                        if tt != t_site and z[tt - 1] == opt and seen(panel, n, tt - i)
                    ] if opt != "new" else []
                    w += naive_predictive_logpdf(*lags[i - 1], data, value(panel, n, t_site - i))
            if seen(panel, n, t_site):
                data = [
                    value(panel, n, tt)
                    for tt in range(1, panel.num_steps + 1)
                    if tt != t_site and z[tt - 1] == opt and seen(panel, n, tt)
                ] if opt != "new" else []
                w += naive_predictive_logpdf(*em, data, value(panel, n, t_site))
        direct.append(w)
    direct = np.exp(np.array(direct) - logsumexp(list(direct)))
    # the scratch labels follow first appearance, same ordering as `labels`
    assert 0.5 * np.abs(impl - direct).sum() < 1e-10


def test_acceptance_identity_proposal_is_zero(rng):
    panel = make_panel([list(rng.normal(size=6))], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1, 2, 1, 2, 1])
    table, _ = unassign_site(group, 3, panel)
    assert acceptance_log_ratio(table, 3, 1, 1) == 0.0


def test_acceptance_last_step_is_zero(rng):
    panel = make_panel([list(rng.normal(size=6))], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1, 2, 1, 2, 1])
    table, _ = unassign_site(group, 5, panel)
    assert acceptance_log_ratio(table, 5, 1, 2) == 0.0


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
    weights = group.regime_log_weights(t_site, panel.values, panel.observed, True)
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
            table, branch_old = unassign_site(group, t_site, panel)
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
            got = acceptance_log_ratio(table, t_site, branch_old, branch_new)
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
    sweep_z(group, panel.values, panel.observed, rng, MhConfig(full_mh=True), lgamma_of(panel))
    assert group.regimes.z == [1] * 7


def test_sweep_keeps_stats_consistent(rng):
    values = [list(rng.normal(size=12)), list(rng.normal(size=12))]
    values[0][7] = None
    panel = make_panel(values, window=1)
    group = build_group(panel, uniform_hypers(2, 1), [1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1])
    for mode in (False, True):
        sweep_z(group, panel.values, panel.observed, rng, MhConfig(full_mh=mode), lgamma_of(panel))
        assert group.stats_deviation(panel.values, panel.observed) < 1e-8
        group.regimes.check()


def test_sweep_leaves_canonical_statistics():
    # one-step subtraction drifts in the last bits; the sweep ends with a
    # rebuild from the data in time order, so the deviation is exactly zero
    rng = np.random.default_rng(3)
    values = [list(rng.normal(scale=3.0, size=42)) for _ in range(2)]
    panel = make_panel(values, window=2)
    group = build_group(panel, uniform_hypers(2, 2), [1, 2, 3] * 13 + [1])
    sweep_z(group, panel.values, panel.observed, rng, MhConfig(full_mh=False), lgamma_of(panel))
    assert group.stats_deviation(panel.values, panel.observed) == 0.0


def test_heuristic_mode_accepts_everything(rng):
    panel = make_panel([list(rng.normal(size=10))], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1, 1, 2, 1, 2, 1, 1, 2, 1])
    config = MhConfig(full_mh=False)
    stats = sweep_z(group, panel.values, panel.observed, rng, config, lgamma_of(panel))
    assert stats["accepted"] == stats["sites"] == 9


def count_ratio_entries(monkeypatch, group, panel, seed):
    """Entries the predictive kernel scores inside the ratio, per ratio call,
    over one full-MH sweep of ``group``."""
    entries, calls = [], [0]
    inside = [False]

    def kernel(original):
        def counted(*args, **kwargs):
            if inside[0]:
                entries.append(np.broadcast(*args[4:8]).size)
            return original(*args, **kwargs)

        return counted

    ratio = trcrp.mcmc.acceptance_log_ratio

    def counted_ratio(*args):
        calls[0] += 1
        inside[0] = True
        try:
            return ratio(*args)
        finally:
            inside[0] = False

    # the prefix pass's kernel, which also scores the ratio's columns
    monkeypatch.setattr(
        trcrp.model, "predictive_logpdf_array", kernel(trcrp.model.predictive_logpdf_array)
    )
    monkeypatch.setattr(trcrp.mcmc, "acceptance_log_ratio", counted_ratio)
    rng = np.random.default_rng(seed)
    sweep_z(group, panel.values, panel.observed, rng, MhConfig(), lgamma_of(panel))
    monkeypatch.undo()
    assert calls[0] > 10
    return sum(entries) / calls[0]


def test_full_sweep_kernel_entries_do_not_grow_with_regime_count(monkeypatch):
    # The same T=60 panel swept from about 2 and from about 10 planted
    # regimes.  A prefix pass per completed sequence scores every step of
    # all K+1 columns, so its entries per ratio call grow linearly in K+1
    # (3.1x from the first panel to the second); the table rescores at most
    # two columns at the steps after the site, whatever K is.
    rng = np.random.default_rng(4)
    panel = make_panel([list(rng.normal(size=61)), list(rng.normal(size=61))], window=1)
    hypers = uniform_hypers(2, 1)
    few = [1] * 30 + [2] * 30
    many = [k for k in range(1, 11) for _ in range(6)]
    per_call = [
        count_ratio_entries(monkeypatch, build_group(panel, hypers, z), panel, seed=0)
        for z in (few, many)
    ]
    assert 1 / 1.5 < per_call[1] / per_call[0] < 1.5, per_call


def walk_sites(panel, hypers, z, alpha, decide):
    """Walk a :class:`SweepTable` through every site of ``z``, checking each
    ratio against the two-pass reference at every target before applying
    ``decide(t, targets)``: a target to accept, or None to keep t.  After
    every site the walked table must hold the log weights of a table built
    fresh from the group as it stands, and its normalizers at the steps after
    t; rows up to t keep the old sequence's bits, which numpy may sum
    differently over another width.  Returns the group, the table and the
    count of each kind of step taken."""
    group = build_group(panel, hypers, z, alpha=alpha)
    table = SweepTable(group, panel.values, panel.observed, lgamma_of(panel))
    seen_kinds = Counter()
    for t in range(1, len(z) + 1):
        old_label, removed = group.unassign(t, panel.values, panel.observed)
        branch_old = NEW_REGIME if removed else old_label
        if removed:
            table.drop(old_label)
        targets = [*range(1, group.regimes.num_regimes + 1), NEW_REGIME]
        targets.remove(branch_old)
        for target in targets:
            got = acceptance_log_ratio(table, t, branch_old, target)
            assert got == two_pass_log_ratio(group, t, branch_old, target, table.cells), (t, target)
        branch = decide(t, targets)
        if branch is None:
            branch = branch_old
        elif t < group.num_steps:
            acceptance_log_ratio(table, t, branch_old, branch)  # the accepted proposal's columns
        kind = ("emptied " if removed else "") + ("fresh" if branch == NEW_REGIME else "existing")
        seen_kinds[kind + (" moved" if branch != branch_old else " kept")] += 1
        k = group.add_regime() if branch == NEW_REGIME else branch
        group.assign(t, k, panel.values, panel.observed)
        table.settle(t, branch != branch_old)
        fresh = SweepTable(group, panel.values, panel.observed, lgamma_of(panel))
        assert np.array_equal(table.base, fresh.base), t
        assert np.array_equal(table.normalizers[t:], fresh.normalizers[t:]), t
        if removed and branch == branch_old and k != old_label:
            seen_kinds["re-created under a new label"] += 1
    return group, table, seen_kinds


def test_incremental_ratio_equals_two_pass_reference_at_every_site_and_target():
    # window 2, two series, missing cells; singletons at t = 4, 6 and 9, so
    # regimes empty at sites whose move is accepted and at sites whose move
    # is rejected, and the rejected ones come back as the last label
    rng = np.random.default_rng(8)
    values = [list(rng.normal(size=14)), list(rng.normal(size=14))]
    values[0][4] = None
    values[1][9] = None
    values[1][12] = None
    panel = make_panel(values, window=2)
    hypers = uniform_hypers(2, 2, m=0.2, V=0.9, a=1.7, b=0.6)
    z = [1, 2, 1, 3, 2, 4, 1, 2, 5, 1, 2, 1]
    plan = {1: NEW_REGIME, 3: 2, 5: NEW_REGIME, 6: 1, 8: 1, 11: NEW_REGIME, 12: 2}

    def decide(t, targets):
        return plan[t] if plan.get(t) in targets else None

    group, table, kinds = walk_sites(panel, hypers, z, 0.8, decide)
    assert kinds["existing moved"] and kinds["fresh moved"] and kinds["emptied existing moved"]
    assert kinds["re-created under a new label"] >= 1
    # the walked table holds the log weights a fresh table gives the final sequence
    fresh = SweepTable(group, panel.values, panel.observed, lgamma_of(panel))
    assert np.array_equal(table.base, fresh.base)


def test_table_built_at_a_site_equals_the_sweep_table_after_the_removal():
    # a sweep builds its table at its first ratio call, with t unassigned; it
    # must hold what a table built before t's removal holds after drop, also
    # when t was a singleton (t = 4 and 6) whose column goes last
    rng = np.random.default_rng(6)
    values = [list(rng.normal(size=9)), list(rng.normal(size=9))]
    values[1][4] = None
    panel = make_panel(values, window=2)
    hypers = uniform_hypers(2, 2, m=0.1, V=0.8, a=1.9, b=0.7)
    z = [1, 2, 1, 3, 2, 4, 1]
    for t in range(1, len(z) + 1):
        group = build_group(panel, hypers, z, alpha=0.9)
        table, branch_old = unassign_site(group, t, panel)
        built = SweepTable(
            group, panel.values, panel.observed, lgamma_of(panel), site=(t, branch_old)
        )
        assert np.array_equal(built.base, table.base), t
        assert np.array_equal(built.normalizers, table.normalizers), t
        for target in [*range(1, group.regimes.num_regimes + 1), NEW_REGIME]:
            if target != branch_old:
                want = two_pass_log_ratio(group, t, branch_old, target, built.cells)
                assert acceptance_log_ratio(built, t, branch_old, target) == want, (t, target)


def test_full_sweep_builds_its_table_at_the_first_ratio_call(monkeypatch):
    built, ratios = [], []

    class Counted(SweepTable):
        def __init__(self, *args, **kwargs):
            built.append(len(ratios))
            super().__init__(*args, **kwargs)

    ratio = trcrp.mcmc.acceptance_log_ratio

    def counted_ratio(*args):
        ratios.append(1)
        return ratio(*args)

    monkeypatch.setattr(trcrp.mcmc, "SweepTable", Counted)
    monkeypatch.setattr(trcrp.mcmc, "acceptance_log_ratio", counted_ratio)
    # one regime under a vanishing concentration: no proposal moves, no table
    panel = make_panel([[1.0] * 8], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1] * 7, alpha=1e-12)
    rng = np.random.default_rng(3)
    sweep_z(group, panel.values, panel.observed, rng, MhConfig(), lgamma_of(panel))
    assert built == ratios == []
    rng = np.random.default_rng(2)
    panel = make_panel([list(rng.normal(scale=0.6, size=22))], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1, 2] * 10 + [1], alpha=1.5)
    rng = np.random.default_rng(5)
    sweep_z(group, panel.values, panel.observed, rng, MhConfig(), lgamma_of(panel))
    assert built == [0] and len(ratios) > 1


SINGLETONS = [1 + (t // 4) % 5 for t in range(40)]
SINGLETONS[8], SINGLETONS[22], SINGLETONS[30] = 6, 7, 8


@pytest.mark.parametrize(
    "z, alpha, seed",
    [(SINGLETONS, 1.5, 5), ([1] * 40, 200.0, 2)],
    ids=["planted_singletons", "table_outgrown"],
)
def test_full_sweep_matches_two_pass_sweep(monkeypatch, z, alpha, seed):
    # Overlapping regimes keep the sampler moving: many accepts, some
    # rejects, fresh regimes.  The planted singletons at t = 9, 23 and 31
    # empty, and some come back as the last label; from one regime under a
    # large concentration, the table gains many fresh regimes' columns.
    # Every ratio the sweep takes is also checked against the two-pass
    # ratio of the group as it stands.
    rng = np.random.default_rng(2)
    values = [list(rng.normal(scale=0.6, size=42)) for _ in range(2)]
    values[0][10] = None
    values[1][25] = None
    panel = make_panel(values, window=2)
    hypers = uniform_hypers(2, 2, m=0.0, V=0.5, a=2.0, b=0.5)
    incremental = build_group(panel, hypers, z, alpha=alpha)
    reference = build_group(panel, hypers, z, alpha=alpha)
    ratio = trcrp.mcmc.acceptance_log_ratio
    checked = []

    def checked_ratio(table, t, branch_old, branch_new):
        got = ratio(table, t, branch_old, branch_new)
        checked.append(got == two_pass_log_ratio(table.group, t, branch_old, branch_new, table.cells))
        return got

    monkeypatch.setattr(trcrp.mcmc, "acceptance_log_ratio", checked_ratio)
    stats = sweep_z(
        incremental, panel.values, panel.observed, np.random.default_rng(seed), MhConfig(),
        lgamma_of(panel),
    )
    assert len(checked) > 10 and all(checked)
    accepted = two_pass_sweep_z(reference, panel.values, panel.observed, np.random.default_rng(seed))
    assert 0 < stats["moved"] and stats["accepted"] < stats["sites"]
    assert stats["accepted"] == accepted
    assert incremental.regimes.z == reference.regimes.z
    for n in incremental.members:
        for row_a, row_b in zip(incremental.cells[n], reference.cells[n], strict=True):
            assert [(s.count, s.sum, s.sum_sq) for s in row_a] == [
                (s.count, s.sum, s.sum_sq) for s in row_b
            ]


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
        sweep_z(group, panel.values, panel.observed, rng, MhConfig(full_mh=True), lgamma_of(panel))
        ends[canonical_partition(group.regimes.z)] += 1
    tv = total_variation({z: c / num_draws for z, c in ends.items()}, posterior)
    mean_tv = 0.5 * np.sqrt(probs * (1 - probs) / num_draws).sum()
    assert tv <= mean_tv + math.sqrt(math.log(1e6) / (2 * num_draws))
