import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_posterior, naive_predictive_logpdf, posterior_params, student_t, value
from conftest import cell_logpdf, make_panel
from trcrp.conjugate import (
    LgammaTable,
    NigHyper,
    NigStats,
    lgamma_rows,
    marginal_loglik,
    predictive_logpdf_array,
    predictive_logpdf_raw,
)
from trcrp.model import GroupModel, GroupStats, SeriesHypers, crp_log_weights

UNIT = NigHyper(0.0, 1.0, 1.0, 1.0)


def stats_of(*values):
    s = NigStats()
    for v in values:
        s.incorporate(v)
    return s


def test_posterior_empty_identity():
    post = posterior_params(UNIT, NigStats())
    assert (post.m, post.V, post.a, post.b) == (0.0, 1.0, 1.0, 1.0)


def test_posterior_single_observation():
    post = posterior_params(UNIT, stats_of(2.0))
    assert post.m == pytest.approx(1.0)
    assert post.V == pytest.approx(0.5)
    assert post.a == pytest.approx(1.5)
    assert post.b == pytest.approx(2.0)


def test_posterior_two_observations():
    post = posterior_params(UNIT, stats_of(2.0, -2.0))
    assert post.m == pytest.approx(0.0)
    assert post.V == pytest.approx(1.0 / 3.0)
    assert post.a == pytest.approx(2.0)
    assert post.b == pytest.approx(5.0)


def test_posterior_matches_naive_on_random_cases(rng):
    for _ in range(200):
        hyper = NigHyper(
            rng.normal() * 5,
            float(rng.uniform(0.05, 20)),
            float(rng.uniform(0.2, 10)),
            float(rng.uniform(0.2, 10)),
        )
        data = list(rng.normal(rng.normal() * 3, rng.uniform(0.1, 5), size=rng.integers(0, 12)))
        s = stats_of(*data)
        post = posterior_params(hyper, s)
        m_p, v_p, a_p, b_p = naive_posterior(hyper.m, hyper.V, hyper.a, hyper.b, data)
        assert post.m == pytest.approx(m_p, abs=1e-10)
        assert post.V == pytest.approx(v_p, abs=1e-12)
        assert post.a == pytest.approx(a_p)
        assert post.b == pytest.approx(b_p, rel=1e-9)


def test_predictive_prior_is_student_t2_at_zero():
    got = cell_logpdf(UNIT, NigStats(), 0.0)
    want = scipy.stats.t.logpdf(0.0, df=2.0, loc=0.0, scale=math.sqrt(2.0))
    assert got == pytest.approx(want, abs=1e-12)


def test_predictive_symmetric_when_centered():
    s = stats_of(1.5, -1.5)
    for c in (0.3, 1.0, 4.2):
        assert cell_logpdf(UNIT, s, c) == pytest.approx(
            cell_logpdf(UNIT, s, -c), abs=1e-12
        )


def _array_predictive(hyper, stats, x):
    return float(
        predictive_logpdf_array(
            hyper.m, hyper.V, hyper.a, hyper.b, stats.count, stats.sum, stats.sum_sq, x,
            lgamma=lgamma_rows(hyper.a, stats.count),
        )
    )


@pytest.mark.parametrize(
    "predictive",
    [cell_logpdf, _array_predictive],
    ids=["predictive_logpdf_raw", "predictive_logpdf_array"],
)
def test_predictive_matches_scipy_on_random_cases(rng, predictive):
    for _ in range(200):
        hyper = NigHyper(
            rng.normal() * 4,
            float(rng.uniform(0.05, 10)),
            float(rng.uniform(0.3, 8)),
            float(rng.uniform(0.3, 8)),
        )
        data = list(rng.normal(1.0, 2.0, size=rng.integers(0, 9)))
        x = float(rng.normal() * 6)
        got = predictive(hyper, stats_of(*data), x)
        want = naive_predictive_logpdf(hyper.m, hyper.V, hyper.a, hyper.b, data, x)
        assert got == pytest.approx(want, abs=1e-8)


def test_lgamma_rows_call_lgamma_once_per_distinct_argument(monkeypatch):
    # the keys a + c/2 and a + c/2 + 1/2 overlap, within one a and across
    # the a that differ by a multiple of 1/2; the table keeps the bits of a
    # per-key reference
    a0 = np.array([[2.0, 1.5], [2.0, 3.25]])
    max_count = 7
    lgamma = math.lgamma
    calls = []

    def counting(x):
        calls.append(x)
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", counting)
    row, table = lgamma_rows(a0, max_count)
    monkeypatch.undo()
    distinct = sorted(set(a0.ravel().tolist()))
    keys = [a + 0.5 * c for a in distinct for c in range(max_count + 1)]
    assert sorted(calls) == sorted(set(keys) | {k + 0.5 for k in keys})
    want = [[lgamma(a + 0.5 * c + 0.5) - lgamma(a + 0.5 * c) for c in range(max_count + 1)] for a in distinct]
    assert np.array_equal(table, np.array(want))
    assert [distinct[r] for r in row.ravel()] == a0.ravel().tolist()


# shapes that overlap in their keys a + c/2 (1.5, 2.0 and 3.5 differ by
# multiples of 1/2), grid-like logspace points and one far-off shape
TABLE_SHAPES = [1.5, 2.0, 3.5, 0.7, 1e-5] + np.geomspace(0.02, 40.0, 7).tolist()


def per_call_rows(a0, max_count):
    """The rows of ``a0`` as one :func:`lgamma_rows` call builds them, (..., max_count + 1)."""
    row, table = lgamma_rows(a0, max_count)
    return table[row]


@pytest.mark.parametrize("order", ["at_once", "ascending", "descending", "batches"])
def test_lgamma_table_rows_equal_rows_built_per_call(order):
    # whatever order and batch sizes fill it, the table hands out the rows
    # that a per-call build gives, for scalar, flat and (cells, 1) queries
    max_count = 9
    rng = np.random.default_rng(4)
    if order == "at_once":
        batches = [TABLE_SHAPES]
    elif order == "ascending":
        batches = [[a] for a in sorted(TABLE_SHAPES)]
    elif order == "descending":
        batches = [[a] for a in sorted(TABLE_SHAPES, reverse=True)]
    else:
        shuffled = rng.permutation(TABLE_SHAPES).tolist()
        # repeats within a batch and shapes already held
        batches = [shuffled[:3] * 2, shuffled[1:6], shuffled[6:7], shuffled[5:], shuffled]
    table = LgammaTable(max_count)
    for batch in batches:
        for query in (batch, np.reshape(batch, (-1, 1)), batch[0]):
            row, ratio = table.rows(query)
            assert np.shape(row) == np.shape(query)
            assert np.array_equal(ratio[row], per_call_rows(query, max_count))
    assert sorted(table.index) == sorted(TABLE_SHAPES)
    row, ratio = table.rows(TABLE_SHAPES)
    assert len(ratio) == len(TABLE_SHAPES)
    assert np.array_equal(ratio[row], per_call_rows(TABLE_SHAPES, max_count))


def test_lgamma_table_pairs_read_the_same_values_after_it_grows():
    # each shape is smaller than the ones held before it, and the buffer
    # fills and is reallocated several times; a pair taken at any point
    # reads its shapes' rows after all of that growth
    max_count = 6
    table = LgammaTable(max_count)
    pairs = []
    for a in [*sorted(TABLE_SHAPES, reverse=True), 0.3, 0.25, 1e-7]:
        query = [[a], [TABLE_SHAPES[0]]]
        pairs.append((*table.rows(query), per_call_rows(query, max_count)))
    for row, ratio, want in pairs:
        assert np.array_equal(ratio[row], want)


def test_predictive_integrates_to_one(rng):
    for _ in range(15):
        hyper = NigHyper(
            rng.normal() * 2,
            float(rng.uniform(0.1, 5)),
            float(rng.uniform(0.6, 6)),
            float(rng.uniform(0.3, 6)),
        )
        data = list(rng.normal(0.5, 1.5, size=rng.integers(0, 7)))
        s = stats_of(*data)
        pred = student_t(hyper, s)
        total, err = scipy.integrate.quad(
            lambda x: math.exp(cell_logpdf(hyper, s, x)),
            pred.loc - 400 * math.sqrt(pred.scale_sq),
            pred.loc + 400 * math.sqrt(pred.scale_sq),
            limit=300,
        )
        assert abs(total - 1.0) < 1e-6


def test_incorporate_basic():
    s = stats_of(3.0)
    assert (s.count, s.sum, s.sum_sq) == (1, 3.0, 9.0)


def test_unincorporate_inverts_incorporate(rng):
    s = stats_of(*rng.normal(size=6))
    before = (s.count, s.sum, s.sum_sq)
    x = 2.7182
    s.incorporate(x)
    s.unincorporate(x)
    assert s.count == before[0]
    assert abs(s.sum - before[1]) < 1e-9
    assert abs(s.sum_sq - before[2]) < 1e-9


def test_unincorporate_empty_raises():
    with pytest.raises(ValueError):
        NigStats().unincorporate(1.0)


def test_incremental_matches_batch_after_many_ops(rng):
    s = NigStats()
    active = []
    for _ in range(10_000):
        if active and rng.random() < 0.45:
            idx = int(rng.integers(len(active)))
            s.unincorporate(active.pop(idx))
        else:
            x = float(rng.normal() * 3 + 1)
            active.append(x)
            s.incorporate(x)
    assert s.count == len(active)
    assert abs(s.sum - sum(active)) < 1e-8
    assert abs(s.sum_sq - sum(x * x for x in active)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.floats(-50, 50), min_size=0, max_size=10),
    seed=st.integers(0, 2**16),
)
def test_chain_rule_is_permutation_invariant(data, seed):
    rng = np.random.default_rng(seed)
    perm = list(rng.permutation(len(data)))

    def chained(order):
        s = NigStats()
        total = 0.0
        for idx in order:
            total += cell_logpdf(UNIT, s, data[idx])
            s.incorporate(data[idx])
        return total

    assert abs(chained(range(len(data))) - chained(perm)) < 1e-8


def test_posterior_composes_over_batches(rng):
    hyper = NigHyper(0.7, 2.0, 1.5, 0.8)
    batch_a = list(rng.normal(size=5))
    batch_b = list(rng.normal(2.0, 0.5, size=4))
    merged = posterior_params(hyper, stats_of(*batch_a, *batch_b))
    staged = posterior_params(posterior_params(hyper, stats_of(*batch_a)), stats_of(*batch_b))
    assert merged.m == pytest.approx(staged.m, abs=1e-10)
    assert merged.V == pytest.approx(staged.V, abs=1e-12)
    assert merged.a == pytest.approx(staged.a)
    assert merged.b == pytest.approx(staged.b, rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    m=st.floats(-20, 20),
    V=st.floats(0.01, 50),
    a=st.floats(0.1, 50),
    b=st.floats(0.01, 50),
    data=st.lists(st.floats(-100, 100), max_size=8),
)
def test_predictive_scale_always_positive(m, V, a, b, data):
    hyper = NigHyper(m, V, a, b)
    stats = stats_of(*data)
    assert student_t(hyper, stats).scale_sq > 0
    assert math.isfinite(cell_logpdf(hyper, stats, 0.0))


def test_marginal_loglik_telescopes(rng):
    hyper = NigHyper(-0.3, 1.4, 2.2, 0.9)
    data = list(rng.normal(1.0, 2.0, size=7))
    s = NigStats()
    total = 0.0
    for x in data:
        total += cell_logpdf(hyper, s, x)
        s.incorporate(x)
    assert marginal_loglik(hyper, s) == pytest.approx(total, abs=1e-10)


def lag_stats(panel, cohesion, z):
    """A pass's statistics over a one-series group on ``panel`` with lag cells
    ``cohesion`` and sequence ``z``."""
    hypers = {0: SeriesHypers(UNIT, cohesion)}
    group = GroupModel([0], 1.0, panel.num_steps, panel.window, hypers)
    group.load_sequence(z)
    return GroupStats(group, panel.values, panel.observed)


def test_cohesion_empty_window_is_zero():
    panel = make_panel([[0.3, -1.2, 0.8, 2.0]], window=0)
    stats = lag_stats(panel, (), [1, 2, 1, 1])
    got = stats.regime_log_weights(3, False)
    assert got == crp_log_weights(stats.group.regimes.counts, stats.group.alpha)


def test_cohesion_unobserved_lags_contribute_nothing():
    # both lag cells of the last step are missing: its weights are the CRP's
    panel = make_panel([[0.5, 1.5, 1.0, 2.0, None, None, 7.0]], window=2)
    stats = lag_stats(panel, (UNIT, UNIT), [1, 2, 1, 2, 1])
    got = stats.regime_log_weights(5, False)
    assert got == crp_log_weights(stats.group.regimes.counts, stats.group.alpha)


def test_cohesion_factorizes():
    hypers = (UNIT, NigHyper(1.0, 2.0, 3.0, 4.0))
    panel = make_panel([[1.0, 2.0, -1.0, 0.5, -0.5, 3.0]], window=2)
    group_stats = lag_stats(panel, hypers, [1, 1, 2, 2])
    # at t = 1 both lags lie in the prefix; at t = 4 they are times 3 and 2
    for t in (1, 4):
        weights = group_stats.regime_log_weights(t, False)
        for k in (1, 2):
            stats = group_stats.cells[0][k - 1]
            want = math.log(group_stats.group.regimes.counts[k - 1]) + sum(
                cell_logpdf(hypers[i - 1], stats[i], value(panel, 0, t - i))
                for i in (1, 2)
            )
            assert weights[k - 1] == pytest.approx(want, abs=1e-12)


def test_predictive_draw_moments(rng):
    hyper = NigHyper(3.0, 0.5, 6.0, 2.0)
    s = stats_of(*rng.normal(3.0, 0.4, size=30))
    pred = student_t(hyper, s)
    draws = np.array([pred.sample(rng) for _ in range(4000)])
    assert draws.mean() == pytest.approx(pred.loc, abs=0.1)


def test_large_shape_matches_naive_oracle_and_telescopes():
    a = 1234.5678
    stats = stats_of(0.2, 0.8)
    got = predictive_logpdf_raw(0.3, 1.5, a, 2.0, stats.count, stats.sum, stats.sum_sq, 0.7)
    want = naive_predictive_logpdf(0.3, 1.5, a, 2.0, [0.2, 0.8], 0.7)
    assert got == pytest.approx(want, abs=1e-9)
    hyper = NigHyper(0.3, 1.5, a + 3.0, 2.0)
    assert marginal_loglik(hyper, stats) == pytest.approx(
        cell_logpdf(hyper, NigStats(), 0.2) + cell_logpdf(hyper, stats_of(0.2), 0.8),
        abs=1e-9,
    )
