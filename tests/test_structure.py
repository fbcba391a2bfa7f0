"""Outer-cluster moves: proposal weights, exact acceptance ratios, sweeps.

The acceptance-ratio oracle builds the post-move state independently,
differences the full log joint, and adds the forward/reverse proposal
densities with the auxiliary singleton slot pinned; the implementation's
ratio must match to 1e-8 for every move type, including the
dimension-changing ones.
"""

import math
from itertools import permutations

import numpy as np
import pytest

import trcrp.structure as structure
from conftest import make_panel, uniform_hypers
from oracles import canonical_sequences, logsumexp
from test_model import build_state
from trcrp.model import (
    GroupModel,
    cell_layout,
    crp_log_weights,
    log_joint,
    prefix_stats,
    sequence_loglik,
)
from trcrp.structure import (
    ClusterProposal,
    accept_c,
    cluster_log_ratio,
    propose_c,
    sweep_c,
)
from trcrp.util import log_gamma11_pdf

FRESH = 0  # the oracle's label for a proposal's fresh slot


def data_of(state):
    """The hypers, data, window and lgamma table that ``sequence_loglik`` takes for ``state``."""
    return state.hypers, state.values, state.observed, state.panel.window, state.lgamma


def lag_loglik(z, members, alpha, hypers, values, observed, window, lgamma):
    """``sequence_loglik`` without emission terms: the density of the lag-reweighted
    sequence prior that a fresh slot is drawn from."""
    cells = cell_layout(members, hypers, values, observed, window, lgamma, emission=False)
    return prefix_stats(z, cells).subset_loglik(members, alpha, emission=False)


def label(state, proposal, group):
    """The oracle's label of a proposal's destination or current group: its
    1-based index in ``state.groups``, or FRESH for a slot that is not a group."""
    for m, g in enumerate(state.groups, start=1):
        if g is group:
            return m
    assert group is proposal.slot
    return FRESH


def state_description(state):
    return (
        state.alpha0,
        list(state.assignments),
        [(g.alpha, list(g.regimes.z)) for g in state.groups],
    )


def apply_move_description(desc, n, target, slot_z, slot_alpha):
    """Post-move (alpha0, assignments, groups) without touching the sampler."""
    alpha0, assignments, groups = desc
    assignments = list(assignments)
    groups = [list(g) for g in groups]
    current = assignments[n]
    singleton = assignments.count(current) == 1
    if target == FRESH:
        groups.append([slot_alpha, list(slot_z)])
        assignments[n] = len(groups)
    else:
        assignments[n] = target
    if singleton:
        del groups[current - 1]
        assignments = [c - 1 if c > current else c for c in assignments]
    return (alpha0, assignments, [tuple(g) for g in groups])


def build_from_description(panel, hypers, desc):
    alpha0, assignments, groups = desc
    return build_state(
        panel,
        hypers,
        [list(z) for _, z in groups],
        list(assignments),
        alpha0=alpha0,
        alphas=[a for a, _ in groups],
    )


def direct_weight_vector(state, n, slot_loglik):
    """Independent evaluation of the proposal weights for series n."""
    weights = []
    targets = []
    current = state.assignments[n]
    for m, group in enumerate(state.groups, start=1):
        others = len(group.members) - (1 if m == current else 0)
        if others == 0:
            continue
        fit = sequence_loglik(group.regimes.z, [n], group.alpha, *data_of(state))
        targets.append(m)
        weights.append(math.log(others) + fit)
    targets.append(FRESH)
    weights.append(math.log(state.alpha0) + slot_loglik)
    return targets, weights


def exact_log_ratio(panel, hypers, state, proposal):
    """Joint differencing plus proposal correction with the slot pinned."""
    n = proposal.series
    current = label(state, proposal, proposal.current)
    target = label(state, proposal, proposal.target)
    cur_singleton = state.assignments.count(current) == 1
    if target == current or (target == FRESH and cur_singleton):
        return 0.0
    desc = state_description(state)
    slot = proposal.slot
    post_desc = apply_move_description(desc, n, target, slot.regimes.z, slot.alpha)
    before = log_joint(state)
    post_state = build_from_description(panel, hypers, post_desc)
    after = log_joint(post_state)

    # forward proposal
    log_g_fwd = proposal.log_weights[proposal.targets.index(proposal.target)] - logsumexp(
        proposal.log_weights
    )
    if not cur_singleton:
        log_g_fwd += log_gamma11_pdf(proposal.slot.alpha) + proposal.slot_log_density

    # reverse proposal: move n back to its old group from the post state
    if target == FRESH:
        # n now sits alone; the reverse reuses its own sequence, no draw
        rev_slot_loglik = sequence_loglik(
            proposal.slot.regimes.z, [n], proposal.slot.alpha, *data_of(post_state)
        )
        back = current if current <= len(post_state.groups) else FRESH
        rev_targets, rev_weights = direct_weight_vector(post_state, n, rev_slot_loglik)
        log_g_rev = rev_weights[rev_targets.index(current)] - logsumexp(rev_weights)
    elif cur_singleton:
        # old group vanished: the reverse move must redraw exactly (alpha_cur, z_cur)
        # and pick the fresh slot
        old_alpha, old_z = desc[2][current - 1]
        rev_slot_loglik = sequence_loglik(old_z, [n], old_alpha, *data_of(post_state))
        rev_density = log_gamma11_pdf(old_alpha) + lag_loglik(
            old_z, [n], old_alpha, *data_of(post_state)
        )
        rev_targets, rev_weights = direct_weight_vector(post_state, n, rev_slot_loglik)
        log_g_rev = rev_density + rev_weights[rev_targets.index(FRESH)] - logsumexp(rev_weights)
    else:
        # both directions draw an aux slot; pin the reverse one to the forward
        # draw so the aux densities cancel
        rev_slot_loglik = sequence_loglik(
            proposal.slot.regimes.z, [n], proposal.slot.alpha, *data_of(post_state)
        )
        rev_targets, rev_weights = direct_weight_vector(post_state, n, rev_slot_loglik)
        log_g_rev = (
            log_gamma11_pdf(proposal.slot.alpha)
            + proposal.slot_log_density
            + rev_weights[rev_targets.index(current)]
            - logsumexp(rev_weights)
        )
    return (after - before) + log_g_rev - log_g_fwd


def make_two_series_state(rng, merged, window=1, steps=3):
    values = [list(rng.normal(size=steps + window)), list(rng.normal(1.5, 1.0, size=steps + window))]
    panel = make_panel(values, window=window)
    hypers = uniform_hypers(2, window, m=0.2, V=1.1, a=1.8, b=0.9)
    if merged:
        state = build_state(panel, hypers, [[1, 2, 1]], [1, 1], alpha0=0.7, alphas=[0.9])
    else:
        state = build_state(
            panel, hypers, [[1, 1, 2], [1, 2, 2]], [1, 2], alpha0=0.7, alphas=[0.9, 1.2]
        )
    return panel, hypers, state


# -- partial loglik ---------------------------------------------------------------


def test_partial_loglik_empty_subset_self_normalizes(rng):
    panel = make_panel([list(rng.normal(size=5))], window=1)
    hypers = uniform_hypers(1, 1)
    state = build_state(panel, hypers, [[1, 1, 2, 1]], [1], alphas=[0.8])
    values = [
        sequence_loglik(z, [], 0.8, *data_of(state))
        for z in canonical_sequences(panel.num_steps)
    ]
    assert logsumexp(values) == pytest.approx(0.0, abs=1e-10)


def test_partial_loglik_series_terms_add_across_subsets(rng):
    values = [list(rng.normal(size=6)) for _ in range(3)]
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(3, 1)
    state = build_state(panel, hypers, [[1, 2, 1, 2, 1]], [1, 1, 1])
    z = state.groups[0].regimes.z

    def series_terms(members):
        # cohesion and emission terms at the assigned regimes: weights minus CRP mass
        scratch = GroupModel(members, 1.0, panel.num_steps, panel.window, state.hypers)
        label_map = {}
        total = 0.0
        for t, zt in enumerate(z, start=1):
            full = scratch.regime_log_weights(t, panel.values, panel.observed, True)
            crp = crp_log_weights(scratch.regimes.counts, scratch.alpha)
            k = label_map.get(zt)
            slot = (k - 1) if k is not None else len(full) - 1
            total += full[slot] - crp[slot]
            if k is None:
                k = scratch.add_regime()
                label_map[zt] = k
            scratch.assign(t, k, panel.values, panel.observed)
        return total

    parts_01, parts_0, parts_1 = series_terms([0, 1]), series_terms([0]), series_terms([1])
    assert parts_01 == pytest.approx(parts_0 + parts_1, abs=1e-9)


def test_partial_loglik_matches_log_joint_restriction(rng):
    panel, hypers, state = make_two_series_state(rng, merged=True)
    group = state.groups[0]
    got = sequence_loglik(group.regimes.z, group.members, group.alpha, *data_of(state))
    # log_joint minus its prior and partition-mass terms
    want = log_joint(state) - (
        -state.alpha0
        - group.alpha
        + math.log(state.alpha0)
        + math.lgamma(2)
        - (math.lgamma(state.alpha0 + 2) - math.lgamma(state.alpha0))
    )
    assert got == pytest.approx(want, abs=1e-10)


def test_single_series_state_outer_mass_is_constant(rng):
    panel = make_panel([list(rng.normal(size=5))], window=1)
    hypers = uniform_hypers(1, 1)
    state = build_state(panel, hypers, [[1, 2, 1, 1]], [1], alpha0=2.3, alphas=[0.8])
    group_term = sequence_loglik(state.groups[0].regimes.z, [0], 0.8, *data_of(state))
    assert log_joint(state) == pytest.approx(
        -2.3 - 0.8 + group_term, abs=1e-10
    )


# -- proposal ----------------------------------------------------------------------


def test_propose_single_series_is_noop(rng):
    panel = make_panel([list(rng.normal(size=5))], window=1)
    hypers = uniform_hypers(1, 1)
    state = build_state(panel, hypers, [[1, 1, 2, 1]], [1])
    proposal = propose_c(state, 0, rng, {})
    assert proposal.target is proposal.slot is proposal.current
    accepted, moved, log_r = accept_c(state, proposal, rng, {})
    assert accepted and not moved and log_r == 0.0
    assert state.assignments == [1]


def test_propose_weights_match_direct_evaluation(rng):
    values = [list(rng.normal(size=7)) for _ in range(3)]
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(3, 1)
    state = build_state(
        panel, hypers, [[1, 2, 1, 1, 2, 1], [1, 1, 2, 1, 2, 2]], [1, 1, 2], alphas=[0.9, 1.1]
    )
    proposal = propose_c(state, 0, rng, {})
    targets, weights = direct_weight_vector(state, 0, proposal.slot_loglik)
    assert targets == [label(state, proposal, g) for g in proposal.targets]
    impl = np.exp(np.array(proposal.log_weights) - logsumexp(proposal.log_weights))
    direct = np.exp(np.array(weights) - logsumexp(weights))
    assert 0.5 * np.abs(impl - direct).sum() < 1e-10


def test_symmetric_series_weigh_symmetrically(rng):
    row = list(rng.normal(size=6))
    panel = make_panel([row, list(row)], window=1)
    hypers = uniform_hypers(2, 1)
    state = build_state(panel, hypers, [[1, 2, 1, 1, 2]], [1, 1])
    p0 = propose_c(state, 0, np.random.default_rng(1), {})
    p1 = propose_c(state, 1, np.random.default_rng(1), {})
    # identical data: the existing-group weight must agree under the swap
    group = state.groups[0]
    assert p0.member_logliks[group] == pytest.approx(p1.member_logliks[group], abs=1e-12)


def gappy_state(window):
    """Three series in two groups, one cell missing, distinct hypers per series."""
    rng = np.random.default_rng(8)
    values = [list(rng.normal(size=7 + window)) for _ in range(3)]
    values[0][window + 2] = None
    panel = make_panel(values, window=window)
    hypers = [
        uniform_hypers(1, window, m=0.2 * n, V=0.6 + n, a=1.4 + 0.5 * n, b=0.8 + 0.3 * n)[0]
        for n in range(3)
    ]
    state = build_state(
        panel, hypers, [[1, 2, 1, 1, 3, 2, 1], [1, 1, 2, 2, 1, 1, 2]], [1, 1, 2],
        alpha0=1.3, alphas=[0.8, 1.1],
    )
    return panel, state


@pytest.mark.parametrize("window", [0, 2])
def test_slot_density_is_bit_equal_to_sequence_loglik(window):
    # a fresh slot (series 0 and 1 share a group) and a reused one (series 2 sits alone)
    panel, state = gappy_state(window)
    for n in range(3):
        proposal = propose_c(state, n, np.random.default_rng(n), {})
        slot = proposal.slot
        assert slot.members == [n]
        assert (slot is state.group_of(n)) == (n == 2)
        assert len(slot.regimes.z) == panel.num_steps and min(slot.regimes.z) == 1
        args = (slot.regimes.z, [n], slot.alpha, *data_of(state))
        assert proposal.slot_log_density == lag_loglik(*args)
        assert proposal.slot_loglik == sequence_loglik(*args)


def test_accepted_fresh_move_appends_the_sampled_group():
    panel, state = gappy_state(2)
    proposal = force_proposal(state, 0, FRESH, np.random.default_rng(4))
    accepted, moved, _ = accept_c(state, proposal, np.random.default_rng(5), {}, heuristic=True)
    assert accepted and moved
    assert state.groups[-1] is proposal.slot
    assert state.assignments == [3, 1, 2]
    assert proposal.slot.stats_deviation(panel.values, panel.observed) == 0.0
    state.check_consistency()


# -- acceptance ratio ---------------------------------------------------------------


def force_proposal(state, n, target, rng):
    """Draw proposals until the sampler picks the requested target."""
    for _ in range(500):
        proposal = propose_c(state, n, rng, {})
        if label(state, proposal, proposal.target) == target:
            return proposal
    raise AssertionError(f"never proposed target {target}")


def test_ratio_merged_to_fresh_matches_differencing(rng):
    panel, hypers, state = make_two_series_state(rng, merged=True)
    for n in (0, 1):
        proposal = force_proposal(state, n, FRESH, rng)
        got = cluster_log_ratio(state, proposal, {})
        want = exact_log_ratio(panel, hypers, state, proposal)
        assert got == pytest.approx(want, abs=1e-8)


def test_ratio_singleton_to_existing_matches_differencing(rng):
    panel, hypers, state = make_two_series_state(rng, merged=False)
    for n in (0, 1):
        other = 2 if n == 0 else 1
        proposal = force_proposal(state, n, other, rng)
        got = cluster_log_ratio(state, proposal, {})
        want = exact_log_ratio(panel, hypers, state, proposal)
        assert got == pytest.approx(want, abs=1e-8)


def test_ratio_existing_to_existing_matches_differencing(rng):
    values = [list(rng.normal(size=5)) for _ in range(3)]
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(3, 1, m=0.1, V=0.9, a=2.1, b=1.3)
    state = build_state(
        panel, hypers, [[1, 2, 1, 1], [1, 1, 2, 1]], [1, 1, 2], alpha0=1.4, alphas=[0.8, 1.0]
    )
    proposal = force_proposal(state, 0, 2, rng)
    got = cluster_log_ratio(state, proposal, {})
    want = exact_log_ratio(panel, hypers, state, proposal)
    assert got == pytest.approx(want, abs=1e-8)


def test_ratio_nonsingleton_to_fresh_matches_differencing(rng):
    values = [list(rng.normal(size=5)) for _ in range(3)]
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(3, 1)
    state = build_state(
        panel, hypers, [[1, 2, 1, 1], [1, 1, 2, 1]], [1, 1, 2], alpha0=1.4, alphas=[0.8, 1.0]
    )
    proposal = force_proposal(state, 1, FRESH, rng)
    got = cluster_log_ratio(state, proposal, {})
    want = exact_log_ratio(panel, hypers, state, proposal)
    assert got == pytest.approx(want, abs=1e-8)


def test_self_move_is_accepted_noop(rng):
    panel, hypers, state = make_two_series_state(rng, merged=True)
    proposal = force_proposal(state, 0, 1, rng)
    before = state_description(state)
    accepted, moved, log_r = accept_c(state, proposal, rng, {})
    assert accepted and not moved and log_r == 0.0
    assert state_description(state) == before


def test_accepted_moves_keep_state_consistent(rng):
    values = [list(rng.normal(size=8)) for _ in range(4)]
    values[2][5] = None
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(4, 1)
    state = build_state(
        panel, hypers, [[1, 2, 1, 1, 2, 1, 1]], [1, 1, 1, 1], alphas=[1.0]
    )
    rng2 = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng2.integers(4))
        proposal = propose_c(state, n, rng2, {})
        accept_c(state, proposal, rng2, {})
        state.check_consistency()


# -- group tables -------------------------------------------------------------------


@pytest.mark.parametrize("window", [0, 2])
def test_table_subset_loglik_is_bit_equal_to_sequence_loglik(window):
    rng = np.random.default_rng(21)
    values = [list(rng.normal(size=7 + window)) for _ in range(3)]
    values[1][window + 3] = None
    panel = make_panel(values, window=window)
    hypers = [
        uniform_hypers(1, window, m=0.1 * n, V=0.8 + n, a=1.5 + 0.3 * n, b=0.7 + n)[0]
        for n in range(3)
    ]
    state = build_state(panel, hypers, [[1, 2, 1, 3, 2, 1, 1]], [1, 1, 1], alphas=[0.9])
    z = state.groups[0].regimes.z
    table = prefix_stats(z, cell_layout(range(3), *data_of(state)))
    subsets = [list(p) for r in range(4) for p in permutations(range(3), r)]
    assert len(subsets) == 16
    for series in subsets:
        for emission in (False, True):
            want = (sequence_loglik if emission else lag_loglik)(z, series, 0.9, *data_of(state))
            assert table.subset_loglik(series, 0.9, emission=emission) == want


def test_sweep_tables_follow_groups_through_renumbering(monkeypatch):
    # Series 0 sits alone with data that fit group 2; when it leaves, group 2 is
    # renumbered to 1, so a table keyed by label would score the wrong sequence.
    rng = np.random.default_rng(5)
    base = np.sin(np.arange(10) / 1.5)
    values = [list(base + rng.normal(scale=0.05, size=10)) for _ in range(3)]
    values[2][6] = None
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(3, 1)
    state = build_state(
        panel, hypers, [[1, 2, 1, 2, 1, 1, 2, 1, 2], [1, 2, 1, 1, 2, 2, 1, 2, 1]], [1, 2, 2],
        alpha0=0.5, alphas=[1.0, 0.7],
    )
    checked = []

    def checking_accept(state, proposal, rng, tables, heuristic=False):
        left_alone = len(proposal.current.members) == 1
        result = real_accept(state, proposal, rng, tables, heuristic=heuristic)
        if result[1]:
            checked.append(left_alone)
            for group in state.groups:
                table = structure._table(state, tables, group)
                want = sequence_loglik(
                    group.regimes.z, group.members, group.alpha, *data_of(state)
                )
                assert table.subset_loglik(group.members, group.alpha) == want
        return result

    real_accept = structure.accept_c
    monkeypatch.setattr(structure, "accept_c", checking_accept)
    sweep_rng = np.random.default_rng(0)
    for _ in range(10):
        sweep_c(state, sweep_rng)
    assert any(checked), "no singleton left its group"


def test_sweep_single_group_stays_merged_with_tiny_alpha0():
    # coherent data + alpha0 -> 0: singleton proposals never win
    rng = np.random.default_rng(4)
    base = np.sin(np.arange(14) / 2.0)
    values = [list(base + rng.normal(scale=0.05, size=14)) for _ in range(3)]
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(3, 1)
    state = build_state(panel, hypers, [[1, 2] * 6 + [1]], [1, 1, 1], alpha0=1e-8)
    for _ in range(50):
        sweep_c(state, rng)
        assert len(state.groups) == 1


def test_sweep_acceptance_decisions_invariant_to_relabeling(rng):
    values = [list(rng.normal(size=6)) for _ in range(2)]
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(2, 1)
    z = [1, 2, 1, 1, 2]
    z_swapped = [2, 1, 2, 2, 1]
    state_a = build_state(panel, hypers, [z], [1, 1], alphas=[0.9])
    state_b = build_state(panel, hypers, [z_swapped], [1, 1], alphas=[0.9])
    pa = force_proposal(state_a, 0, FRESH, np.random.default_rng(12))
    group_a, group_b = state_a.groups[0], state_b.groups[0]
    pb = ClusterProposal(
        series=0, current=group_b, target=pa.slot,
        slot=pa.slot, slot_log_density=pa.slot_log_density, slot_loglik=pa.slot_loglik,
        member_logliks={group_b: pa.member_logliks[group_a]}, log_weights=list(pa.log_weights),
        targets=[group_b, pa.slot],
    )
    assert cluster_log_ratio(state_a, pa, {}) == pytest.approx(
        cluster_log_ratio(state_b, pb, {}), abs=1e-10
    )
