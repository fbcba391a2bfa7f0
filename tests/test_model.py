import math

import numpy as np
import pytest

from conftest import cell_logpdf, hyper_tuples, make_panel, uniform_hypers
from oracles import (
    canonical_partition,
    canonical_sequences,
    exact_crp_log_mass,
    logsumexp,
    naive_group_loglik,
    naive_log_joint,
    total_variation,
    value,
)
import trcrp.conjugate as conjugate
from trcrp.conjugate import (
    LgammaTable,
    NigHyper,
    NigStats,
    predictive_logpdf_raw,
    student_t_form,
)
from trcrp.mcmc import NEW_REGIME, propose_z
from trcrp.model import (
    COLUMN_PASS_ROWS,
    ChainState,
    GroupModel,
    PrefixStats,
    SeriesHypers,
    cell_layout,
    crp_log_weights,
    log_joint,
    prefix_columns,
    sequence_loglik,
    simulate,
)


def build_group(panel, hypers, z, members=None, alpha=1.0):
    members = members if members is not None else list(range(panel.num_series))
    hyper_map = {n: hypers[n] for n in range(panel.num_series)}
    group = GroupModel(members, alpha, panel.num_steps, panel.window, hyper_map)
    for _ in range(max(z)):
        group.add_regime()
    for t, k in enumerate(z, start=1):
        group.assign(t, k, panel.values, panel.observed)
    return group


def build_state(panel, hypers, z_by_group, assignments, alpha0=1.0, alphas=None):
    alphas = alphas if alphas is not None else [1.0] * len(z_by_group)
    state = ChainState.create(panel, alpha0, assignments, alphas, hypers)
    for group, z in zip(state.groups, z_by_group):
        for _ in range(max(z)):
            group.add_regime()
        for t, k in enumerate(z, start=1):
            group.assign(t, k, panel.values, panel.observed)
    return state


# -- CRP weights ------------------------------------------------------------


def test_crp_weights_first_customer():
    assert crp_log_weights([], 1.0) == [0.0]


def test_crp_weights_counts():
    w = np.exp(crp_log_weights([2, 1], 1.0))
    assert np.allclose(w / w.sum(), [0.5, 0.25, 0.25])


def test_crp_weights_large_alpha_prefers_new_table():
    w = np.exp(crp_log_weights([2, 1], 1e9))
    assert w[-1] / w.sum() > 0.9999


# -- reweighted weights -------------------------------------------------------


def test_reweighted_equals_crp_at_p0(rng):
    panel = make_panel([list(rng.normal(size=8)), list(rng.normal(size=8))], window=0)
    hypers = uniform_hypers(2, 0)
    group = build_group(panel, hypers, [1, 2, 1, 1, 2, 3, 1, 2], alpha=0.7)
    scratch = group.empty_clone()
    for t in range(1, 6):
        want = crp_log_weights(scratch.regimes.counts, 0.7)
        got = scratch.regime_log_weights(t, panel.values, panel.observed, False)
        assert got == want
        k = group.regimes.z[t - 1]
        while scratch.regimes.num_regimes < k:
            scratch.add_regime()
        scratch.assign(t, k, panel.values, panel.observed)


def test_reweighted_symmetric_regimes_get_equal_weight():
    # two regimes with identical lag histories and counts
    panel = make_panel([[0.5, 1.0, 1.0, 1.0, 1.0, 2.0]], window=1)
    hypers = uniform_hypers(1, 1)
    group = build_group(panel, hypers, [1, 2, 1, 2], alpha=1.0)
    # lag histories per regime: regime 1 saw lags {0.5, 1.0}, regime 2 saw {1.0, 1.0}
    # build instead with identical histories:
    panel2 = make_panel([[1.0, 1.0, 1.0, 1.0, 1.0, 2.0]], window=1)
    group2 = build_group(panel2, uniform_hypers(1, 1), [1, 2, 1, 2], alpha=1.0)
    w = group2.regime_log_weights(5, panel2.values, panel2.observed, False)
    assert w[0] == pytest.approx(w[1], abs=1e-12)


def test_reweighted_weights_normalize(rng):
    panel = make_panel([list(rng.normal(size=10))], window=2)
    hypers = uniform_hypers(1, 2)
    group = build_group(panel, hypers, [1, 1, 2, 1, 2, 3, 1, 1], alpha=1.3)
    scratch = group.empty_clone()
    for t, k in enumerate(group.regimes.z, start=1):
        w = scratch.regime_log_weights(t, panel.values, panel.observed, False)
        log_b = -logsumexp(w)
        assert sum(math.exp(x + log_b) for x in w) == pytest.approx(1.0, abs=1e-12)
        while scratch.regimes.num_regimes < k:
            scratch.add_regime()
        scratch.assign(t, k, panel.values, panel.observed)


def test_reweighted_weights_evaluate_no_emission_terms(monkeypatch):
    # both cells at t=3 are observed; one of the four lag cells is not
    panel = make_panel([[0.1, 0.5, 0.9, -0.2, 0.7], [0.3, 0.2, 0.4, None, 1.1]], window=2)
    lag = NigHyper(0.0, 1.0, 2.0, 1.0)
    emission = NigHyper(0.5, 2.0, 3.0, 1.5)  # told apart from the lag cells by its values
    hypers = [SeriesHypers(emission, (lag, lag)) for _ in range(2)]
    group = build_group(panel, hypers, [1, 2, 1])
    group.unassign(3, panel.values, panel.observed)
    built = []
    original = conjugate.student_t_form

    def counting(*args):
        built.append(args[:4])
        return original(*args)

    monkeypatch.setattr(conjugate, "student_t_form", counting)
    group.regime_log_weights(3, panel.values, panel.observed, False)
    num_blocks = group.regimes.num_regimes + 1
    assert built.count((emission.m, emission.V, emission.a, emission.b)) == 0
    assert len(built) == num_blocks * 3  # one form per observed lag cell and block


# -- step normalizer -----------------------------------------------------------


def test_normalizer_p0_is_crp_normalizer(rng):
    panel = make_panel([list(rng.normal(size=6))], window=0)
    group = build_group(panel, uniform_hypers(1, 0), [1, 1, 2, 1, 2, 1], alpha=0.9)
    scratch = group.empty_clone()
    for t, k in enumerate(group.regimes.z, start=1):
        log_b = -logsumexp(scratch.regime_log_weights(t, panel.values, panel.observed, False))
        assert log_b == pytest.approx(-math.log(t - 1 + 0.9), abs=1e-12)
        while scratch.regimes.num_regimes < k:
            scratch.add_regime()
        scratch.assign(t, k, panel.values, panel.observed)


def test_normalizer_single_regime_tiny_alpha_inverts_cohesion():
    panel = make_panel([[0.2, 0.4, 0.6, 0.8, 1.0]], window=1)
    hypers = uniform_hypers(1, 1)
    group = build_group(panel, hypers, [1, 1, 1], alpha=1e-300)
    scratch = group.empty_clone()
    for t in (1, 2, 3):
        if t > 1:
            log_b = -logsumexp(scratch.regime_log_weights(t, panel.values, panel.observed, False))
            coh = cell_logpdf(
                hypers[0].cohesion[0], scratch.cells[0][0][1], value(panel, 0, t - 1)
            )
            count_term = math.log(scratch.regimes.counts[0])
            assert log_b == pytest.approx(-(coh + count_term), abs=1e-10)
        while scratch.regimes.num_regimes < 1:
            scratch.add_regime()
        scratch.assign(t, 1, panel.values, panel.observed)


# -- step predictive ------------------------------------------------------------


def step_predictive(group, t, panel):
    """Log one-step predictive of the observed cells at t, regime summed out."""
    full = group.regime_log_weights(t, panel.values, panel.observed, True)
    base = group.regime_log_weights(t, panel.values, panel.observed, False)
    return logsumexp(full) - logsumexp(base)


def test_predictive_vacuous_when_nothing_observed():
    panel = make_panel([[0.0, 1.0, None, 2.0]], window=1)
    group = build_group(panel, uniform_hypers(1, 1), [1, 1, 1])
    scratch = group.empty_clone()
    scratch.add_regime()
    scratch.assign(1, 1, panel.values, panel.observed)
    assert step_predictive(scratch, 2, panel) == pytest.approx(0.0, abs=1e-12)


def test_predictive_collapses_to_emission_with_one_regime():
    panel = make_panel([[0.3, 1.0, 1.2, 0.9]], window=1)
    hypers = uniform_hypers(1, 1)
    group = build_group(panel, hypers, [1, 1, 1], alpha=1e-300)
    scratch = group.empty_clone()
    scratch.add_regime()
    scratch.assign(1, 1, panel.values, panel.observed)
    scratch.assign(2, 1, panel.values, panel.observed)
    got = step_predictive(scratch, 3, panel)
    s = scratch.cells[0][0][0]
    want = cell_logpdf(hypers[0].emission, s, value(panel, 0, 3))
    assert got == pytest.approx(want, abs=1e-10)


def test_predictive_first_step_is_prior_student_t():
    panel = make_panel([[1.7]], window=0)
    hypers = uniform_hypers(1, 0, m=0.0, V=1.0, a=1.0, b=1.0)
    group = GroupModel([0], 1.0, 1, 0, {0: hypers[0]})
    got = step_predictive(group, 1, panel)
    want = cell_logpdf(hypers[0].emission, NigStats(), 1.7)
    assert got == pytest.approx(want, abs=1e-12)


# -- sequence loglik vs oracle ---------------------------------------------------


def test_sequence_loglik_matches_naive_oracle(rng):
    values = [list(rng.normal(size=7)), list(rng.normal(size=7))]
    values[0][3] = None
    values[1][5] = None
    panel = make_panel(values, window=2)
    hypers = uniform_hypers(2, 2, m=0.3, V=1.5, a=2.0, b=1.2)
    for z in ((1, 1, 2, 1, 2), (1, 2, 3, 1, 2), (1, 1, 1, 1, 1)):
        got = sequence_loglik(
            z, [0, 1], 0.8, {n: hypers[n] for n in (0, 1)},
            panel.values, panel.observed, panel.window, LgammaTable(panel.num_steps),
        )
        want = naive_group_loglik(z, [0, 1], 0.8, hyper_tuples(hypers), panel)
        assert got == pytest.approx(want, abs=1e-9)
    with pytest.raises(ValueError, match="unassigned step 3"):
        sequence_loglik(
            (1, 1, 0, 1, 2), [0, 1], 0.8, {n: hypers[n] for n in (0, 1)},
            panel.values, panel.observed, panel.window, LgammaTable(panel.num_steps),
        )


def test_prefix_columns_keep_their_bits_from_every_first_step(rng):
    # window 2 with missing cells; the membership is no sequence's one-hot:
    # step 6 moved from the first column to the second, and a fresh column
    # that holds step 6 too
    values = [list(rng.normal(size=14)), list(rng.normal(size=14))]
    values[0][4] = None
    values[1][9] = None
    values[1][12] = None
    panel = make_panel(values, window=2)
    hypers = uniform_hypers(2, 2, m=0.2, V=0.9, a=1.7, b=0.6)
    lgamma = LgammaTable(panel.num_steps)
    cells = cell_layout([0, 1], hypers, panel.values, panel.observed, panel.window, lgamma)
    assert not cells.seen.all()
    z = np.array([1, 2, 1, 3, 2, 1, 1, 2, 3, 1, 2, 1])
    member = z[:, None] == np.array([1, 2, 3, 0])
    member[5] = [False, True, False, True]
    whole = prefix_columns(member, cells, 0)
    assert all(a.shape == (cells.x.shape[0], len(z), 4) for a in whole)
    for first in range(len(z) + 1):
        part = prefix_columns(member, cells, first)
        for got, want in zip(part, whole):
            assert np.array_equal(got, want[:, first:]), first


@pytest.mark.parametrize("width", range(1, 13))
@pytest.mark.parametrize(
    "shape", [(COLUMN_PASS_ROWS - 1,), (COLUMN_PASS_ROWS,), (30, 60), (2, 2000)]
)
def test_log_normalizers_match_the_plain_expression(rng, width, shape):
    # log weights with empty blocks (-inf) in every column, the first included
    base = rng.normal(scale=30.0, size=shape + (width,))
    empty = rng.random(base.shape) < 0.3
    empty[..., -1] = False  # the fresh block always has weight alpha
    base[empty] = -np.inf
    hi = base.max(axis=-1)
    want = hi + np.log(np.sum(np.exp(base - hi[..., None]), axis=-1))
    assert np.array_equal(PrefixStats.log_normalizers(base), want)


def test_log_joint_smallest_instance():
    panel = make_panel([[2.5]], window=0)
    hypers = uniform_hypers(1, 0, m=0.0, V=1.0, a=1.0, b=1.0)
    state = build_state(panel, hypers, [[1]], [1], alpha0=1.0, alphas=[1.0])
    got = log_joint(state)
    # Gamma(1,1) priors on both concentrations, trivial partition mass (0),
    # trivial assignment mass (0), prior emission predictive at x_1.
    want = -1.0 - 1.0 + cell_logpdf(hypers[0].emission, NigStats(), 2.5)
    assert got == pytest.approx(want, abs=1e-12)


def test_log_joint_invariant_under_regime_relabeling(rng):
    panel = make_panel([list(rng.normal(size=9))], window=1)
    hypers = uniform_hypers(1, 1)
    z_a = [1, 2, 1, 2, 1, 1, 2, 2]
    z_b = [2, 1, 2, 1, 2, 2, 1, 1]
    state_a = build_state(panel, hypers, [z_a], [1])
    state_b = build_state(panel, hypers, [z_b], [1])
    assert log_joint(state_a) == pytest.approx(log_joint(state_b), abs=1e-12)


def test_log_joint_matches_naive(rng):
    values = [list(rng.normal(size=8)) for _ in range(3)]
    values[1][4] = None
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(3, 1, m=0.2, V=2.0, a=1.5, b=0.7)
    z1, z2 = [1, 1, 2, 1, 2, 1, 1], [1, 2, 2, 1, 1, 2, 3]
    state = build_state(
        panel, hypers, [z1, z2], [1, 2, 1], alpha0=0.8, alphas=[1.1, 0.6]
    )
    got = log_joint(state)
    want = naive_log_joint(
        (0.8, [1, 2, 1], [(1.1, z1), (0.6, z2)]), panel, hyper_tuples(hypers)
    )
    assert got == pytest.approx(want, abs=1e-8)


def test_log_joint_sequential_decomposition(rng):
    """log_joint = priors + sum_t [log q_t + log posterior-weight of z_t].

    The one-step predictive marginalizes the step's regime; adding back the
    normalized weight of the regime the state actually holds recovers the
    joint exactly.
    """
    values = [list(rng.normal(size=7)), list(rng.normal(size=7))]
    values[0][4] = None
    panel = make_panel(values, window=1)
    hypers = uniform_hypers(2, 1)
    z = [1, 1, 2, 1, 2, 2]
    state = build_state(panel, hypers, [z], [1, 1], alpha0=1.0, alphas=[0.9])
    group = state.groups[0]

    scratch = group.empty_clone()
    label_map = {}
    total = -state.alpha0 - group.alpha  # Gamma(1,1) priors
    total += math.log(state.alpha0) + math.lgamma(2) - (
        math.lgamma(state.alpha0 + 2) - math.lgamma(state.alpha0)
    )
    for t, zt in enumerate(z, start=1):
        base = scratch.regime_log_weights(t, panel.values, panel.observed, False)
        full = scratch.regime_log_weights(t, panel.values, panel.observed, True)
        q_t = logsumexp(full) - logsumexp(base)
        k = label_map.get(zt)
        idx = (k - 1) if k is not None else len(base) - 1
        r_t = full[idx] - logsumexp(full)
        total += q_t + r_t
        if k is None:
            k = scratch.add_regime()
            label_map[zt] = k
        scratch.assign(t, k, panel.values, panel.observed)
    assert log_joint(state) == pytest.approx(total, abs=1e-8)


def test_log_joint_finite_on_random_states(rng):
    for _ in range(10):
        values = [list(rng.normal(size=9)) for _ in range(2)]
        panel = make_panel(values, window=1)
        hypers = uniform_hypers(2, 1)
        z = [int(k) for k in rng.integers(1, 3, size=8)]
        z = list(canonical_partition(z))
        state = build_state(panel, hypers, [z], [1, 1])
        assert math.isfinite(log_joint(state))


# -- simulate -------------------------------------------------------------------


def test_simulate_degenerate_alpha_single_regime(rng):
    hypers = uniform_hypers(1, 0)
    res = simulate(12, 0, np.zeros((1, 0)), hypers, rng, alpha=1e-300, assignments=[1])
    assert res.group_z[0] == [1] * 12


def test_simulate_deterministic_given_seed():
    hypers = uniform_hypers(2, 1)
    a = simulate(10, 1, np.zeros((2, 1)), hypers, np.random.default_rng(42), alpha=1.0,
                 assignments=[1, 1])
    b = simulate(10, 1, np.zeros((2, 1)), hypers, np.random.default_rng(42), alpha=1.0,
                 assignments=[1, 1])
    assert np.array_equal(a.panel.values, b.panel.values)
    assert a.group_z == b.group_z


def test_simulate_matches_crp_partition_size_law_at_p0():
    hypers = uniform_hypers(1, 0)
    alpha = 1.0
    exact = {}
    for z in canonical_sequences(4):
        exact[max(z)] = exact.get(max(z), 0.0) + math.exp(exact_crp_log_mass(z, alpha))
    rng = np.random.default_rng(7)
    counts = {k: 0 for k in exact}
    reps = 10_000
    for _ in range(reps):
        res = simulate(4, 0, np.zeros((1, 0)), hypers, rng, alpha=alpha, assignments=[1])
        counts[max(res.group_z[0])] += 1
    empirical = {k: c / reps for k, c in counts.items()}
    assert total_variation(exact, empirical) < 0.02


# -- bookkeeping ------------------------------------------------------------------


def test_stats_deviation_after_manual_churn(rng):
    values = [list(rng.normal(size=10))]
    values[0][6] = None
    panel = make_panel(values, window=2)
    group = build_group(panel, uniform_hypers(1, 2), [1, 1, 2, 1, 2, 1, 2, 2])
    for t in (3, 5, 2, 8):
        k, removed = group.unassign(t, panel.values, panel.observed)
        if removed:
            group.add_regime()
            group.assign(t, group.regimes.num_regimes, panel.values, panel.observed)
        else:
            group.assign(t, k, panel.values, panel.observed)
    assert group.stats_deviation(panel.values, panel.observed) < 1e-10
    group.regimes.check()


def _three_series_two_groups(rng):
    panel = make_panel([list(rng.normal(size=5)) for _ in range(3)], window=1)
    return build_state(panel, uniform_hypers(3, 1), [[1, 2, 1, 1], [1, 1, 2, 2]], [1, 2, 1])


def test_check_consistency_rejects_a_stale_form(rng):
    state = _three_series_two_groups(rng)
    group = state.groups[0]
    group.regime_log_weights(3, state.values, state.observed, True)  # builds every form
    state.check_consistency()
    cell = group.cells[0][0][1]
    h = state.hypers[0].cell(1)
    assert cell.hyper is h
    # the form of other statistics, as if the cell had changed and not been marked
    cell.form = student_t_form(h.m, h.V, h.a, h.b, cell.count + 1, cell.sum, cell.sum_sq)
    with pytest.raises(AssertionError, match="stale Student-t form"):
        state.check_consistency()


def plain_regime_log_weights(group, t, values, observed, emission):
    """:meth:`GroupModel.regime_log_weights` summed from one
    :func:`predictive_logpdf_raw` call per entry, in the same order."""
    p = group.window
    col = p + t - 1
    empty = [NigStats() for _ in range(p + 1)]
    weights = []
    for k, w in enumerate(crp_log_weights(group.regimes.counts, group.alpha)):
        e = 0.0
        for n in group.members:
            row = group.cells[n][k] if k < group.regimes.num_regimes else empty
            for i in range(0 if emission else 1, p + 1):
                if observed[n, col - i]:
                    h, s = group.hypers[n].cell(i), row[i]
                    x = float(values[n, col - i])
                    f = predictive_logpdf_raw(h.m, h.V, h.a, h.b, s.count, s.sum, s.sum_sq, x)
                    if i:
                        w += f
                    else:
                        e += f
        weights.append(w + e)
    return weights


def test_cached_forms_score_as_the_scalar_kernel_through_a_walk(rng):
    values = [list(rng.normal(size=14)) for _ in range(4)]
    values[1][5] = values[0][9] = values[3][2] = None
    panel = make_panel(values, window=2)
    z = [[1, 2, 1, 1, 3, 2, 1, 2, 2, 1, 3, 1], [1, 1, 2, 1, 2, 2, 1, 1, 2, 1, 1, 2]]
    state = build_state(panel, uniform_hypers(4, 2), z, [1, 1, 2, 2])
    group = state.groups[0]

    def check(t):
        for emission in (True, False):
            got = group.regime_log_weights(t, panel.values, panel.observed, emission)
            assert got == plain_regime_log_weights(group, t, panel.values, panel.observed, emission)
        group.check_forms()

    for step in range(60):
        if step == 20:  # a hyper move: every form of series 1's lag-2 cells is out of date
            state.hypers[1] = state.hypers[1].replace_cell(2, NigHyper(0.4, 0.7, 3.0, 2.5))
        if step == 40:  # series 3 joins the walked group with empty cached rows
            state.groups[1].drop_member(3)
            group.add_member(3, panel.values, panel.observed)
        t = int(rng.integers(1, panel.num_steps + 1))
        group.unassign(t, panel.values, panel.observed)
        check(t)
        branch = propose_z(group, t, panel.values, panel.observed, rng)
        k = group.add_regime() if branch == NEW_REGIME else branch
        group.assign(t, k, panel.values, panel.observed)
        check(int(rng.integers(1, panel.num_steps + 1)))
    state.check_consistency()


@pytest.mark.parametrize(
    "break_partition, message",
    [
        (lambda groups: groups[1].members.append(0), "do not partition"),  # 0 in two groups
        (lambda groups: groups[0].members.remove(2), "do not partition"),  # 2 in no group
        (lambda groups: groups[1].members.clear(), "empty group"),
    ],
    ids=["series_in_two_groups", "series_in_no_group", "empty_group"],
)
def test_check_consistency_rejects_a_broken_partition(rng, break_partition, message):
    state = _three_series_two_groups(rng)
    state.check_consistency()
    assert state.assignments == [1, 2, 1]
    break_partition(state.groups)
    with pytest.raises(AssertionError, match=message):
        state.check_consistency()
