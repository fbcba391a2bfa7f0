"""Grid construction rules and griddy-Gibbs conditionals."""

import copy
import json
import math

import numpy as np
import pytest

import trcrp.conjugate as conjugate
import trcrp.hypers as hypers_mod
from conftest import ROBUSTNESS_PANELS, hyper_tuples, make_panel, robustness_panel
from oracles import (
    full_factors,
    naive_log_joint,
    per_move_hyper_sweep,
    per_series_grid_points,
    per_series_grids_payload,
    slot_sums,
)
from test_model import build_state
from trcrp.conjugate import lgamma_rows
from trcrp.engine import RunConfig, fit, init_chains, run_sweeps
from trcrp.hypers import (
    GRID_SIZE,
    NIG_FIELDS,
    Grids,
    build_grids,
    grids_payload,
    hyper_sweep,
    initial_hypers,
)
from trcrp import mcmc, structure
from trcrp.model import GroupModel, hyper_array, log_joint, state_payload
from trcrp.util import gumbel_argmax
from trcrp.smc import smc_block_sample


def test_alpha0_grid_endpoints_n4():
    panel = make_panel([list(range(10))] * 4, window=0)
    grids = build_grids(panel)
    assert grids.alpha0[0] == pytest.approx(0.25)
    assert grids.alpha0[-1] == pytest.approx(4.0)
    assert grids.alpha0.shape == (GRID_SIZE,)


def test_rate_grid_endpoints_t100():
    panel = make_panel([list(np.linspace(0, 5, 100))], window=0)
    grids = build_grids(panel)
    assert grids.cells[0, 3, 0] == pytest.approx(1.0)
    assert grids.cells[0, 3, -1] == pytest.approx(100.0)


def test_constant_series_shape_grid_clamped():
    panel = make_panel([[3.0] * 20], window=0)
    grids = build_grids(panel)
    pts = grids.cells[0, 2].tolist()
    assert all(math.isfinite(x) and x > 0 for x in pts)
    assert pts[0] == pytest.approx(1e-6)
    assert all(b > a for a, b in zip(pts, pts[1:]))


def test_every_grid_has_30_increasing_points(rng):
    values = [list(rng.normal(size=30)), [1.5] * 30]
    values[0][7] = None
    panel = make_panel(values, window=2)
    grids = build_grids(panel)
    assert grids.cells.shape == (2, 4, GRID_SIZE)
    for g in [grids.alpha0, grids.group_alpha, *grids.cells.reshape(-1, GRID_SIZE)]:
        points = g.tolist()
        assert len(points) == GRID_SIZE
        assert all(b > a for a, b in zip(points, points[1:]))


def test_grids_name_their_first_bad_grid(rng):
    # the grids are checked as arrays once per fit; a fault names its grid
    panel = make_panel([list(rng.normal(size=12)) for _ in range(3)], window=1)
    grids = build_grids(panel)
    cells = grids.cells.copy()
    cells[1, 2, 5] = np.inf
    with pytest.raises(ValueError, match=r"^a\[s2\]: non-finite grid point"):
        Grids(grids.alpha0, grids.group_alpha, cells, grids.names)
    cells[1, 2, 5] = cells[1, 2, 4]
    with pytest.raises(ValueError, match=r"^a\[s2\]: grid not strictly increasing"):
        Grids(grids.alpha0, grids.group_alpha, cells, grids.names)
    with pytest.raises(ValueError, match=r"^alpha: grid not strictly increasing"):
        Grids(grids.alpha0, grids.group_alpha[::-1], grids.cells, grids.names)
    with pytest.raises(ValueError, match=f"{GRID_SIZE} points"):
        Grids(grids.alpha0[1:], grids.group_alpha, grids.cells, grids.names)


def test_location_grid_is_linear_over_data_span(rng):
    xs = list(rng.normal(2.0, 3.0, size=25))
    panel = make_panel([xs], window=0)
    g = build_grids(panel).cells[0, 0]
    assert g[0] == pytest.approx(min(xs) - 5.0)
    assert g[-1] == pytest.approx(max(xs) + 5.0)
    diffs = np.diff(g)
    assert np.allclose(diffs, diffs[0])


def test_ssqdev_uses_observed_cells_only():
    values = [[0.0, 1.0, None, 3.0, 5.0]]
    panel = make_panel(values, window=0)
    g = build_grids(panel).cells[0, 2]
    xs = np.array([0.0, 1.0, 3.0, 5.0])
    ssq = float(((xs - xs.mean()) ** 2).sum())
    assert g[-1] == pytest.approx(ssq)
    assert g[0] == pytest.approx(ssq / 100.0)


def test_initial_hypers_are_grid_members(rng):
    panel = make_panel([list(rng.normal(size=12))], window=2)
    grids = build_grids(panel)
    hyp = initial_hypers(grids, 2)[0]
    assert hyp.emission.m in grids.cells[0, 0].tolist()
    assert hyp.emission.V in grids.cells[0, 1].tolist()
    assert len(hyp.cohesion) == 2
    hypers = start_hypers(grids, 2)
    assert hypers.shape == (1, 3, 4)
    assert (hypers == grids.cells[0, :, GRID_SIZE // 2]).all()


@pytest.mark.parametrize("kind", ROBUSTNESS_PANELS)
def test_grids_equal_per_series_calls(kind):
    panel = robustness_panel(kind)
    grids = build_grids(panel)
    got = [tuple(map(tuple, cells)) for cells in grids.cells.tolist()]
    assert got == per_series_grid_points(panel)
    # bit for bit, not only equal as numbers
    assert json.dumps(got) == json.dumps(per_series_grid_points(panel))


@pytest.mark.parametrize("kind", ROBUSTNESS_PANELS)
def test_grids_payload_equals_per_series_reference(kind):
    # inspect-grids prints this payload: every name, rule and point as the
    # grids built one series and one parameter at a time give them
    panel = robustness_panel(kind)
    got = json.dumps(grids_payload(build_grids(panel)), indent=2)
    assert got == json.dumps(per_series_grids_payload(panel), indent=2)


def test_batched_grid_points_equal_scalar_calls():
    gen = np.random.default_rng(9)
    lo = gen.choice([-1.0, 1.0], 200) * np.exp(gen.normal(scale=6.0, size=200))
    hi = lo + np.where(gen.random(200) < 0.1, -1.0, 1.0) * np.exp(gen.normal(scale=6.0, size=200))
    hi[:5] = lo[:5]  # collapsed ranges
    # build_grids' linear rule; a pair with a zero step would move numpy's
    # batched call to its denormal path for every pair, but its own grid
    # repeats a point and fails the Grids check either way
    hi_m = np.where(hi <= lo, lo + 10.0, hi)
    linear = np.linspace(lo, hi_m, GRID_SIZE, axis=-1)
    geometric = hypers_mod._logspace(lo, hi)
    for i in range(200):
        assert linear[i].tobytes() == np.linspace(lo[i], hi_m[i], GRID_SIZE).tobytes()
        start = max(lo[i], 1e-6)
        want = np.geomspace(start, hi[i] if hi[i] > start else start * 100.0, GRID_SIZE)
        assert geometric[i].tobytes() == want.tobytes()


def grid_arrays(state):
    """The lgamma rows of every series' a-grid, which a sweep's cell moves read."""
    return hypers_mod._shape_rows(state, range(state.num_series))


def start_hypers(grids, window):
    """The grid-midpoint hypers array a fit starts from."""
    return hyper_array(initial_hypers(grids, window))


def current_shape(state, n, offset):
    """The lgamma row of cell (n, offset)'s current shape, as a sweep's lag moves read it."""
    return state.lgamma.rows(state.hypers[n, offset, 2])[0]


def state_for_gibbs(rng, num_series=2, steps=8, window=1):
    values = [list(rng.normal(size=steps + window)) for _ in range(num_series)]
    panel = make_panel(values, window=window)
    grids = build_grids(panel)
    hypers = start_hypers(grids, window)
    z = [1, 2, 1, 1, 2, 1, 2, 1][:steps]
    state = build_state(panel, hypers, [z] * 1, [1] * num_series, alphas=[1.0])
    state.grids = grids
    return panel, state


def test_equal_conditionals_sample_uniformly():
    # a panel with no observed in-sample cells makes every emission candidate
    # equally likely
    values = [[0.0] + [None] * 8]
    panel = make_panel(values, window=1)
    grids = build_grids(panel)
    hypers = start_hypers(grids, 1)
    state = build_state(panel, hypers, [[1, 1, 2, 1, 2, 1, 1, 2]], [1])
    state.grids = grids
    rng = np.random.default_rng(0)
    arrays = grid_arrays(state)
    draws = []
    for _ in range(3000):
        table = hypers_mod._group_table(state, state.groups[0])
        noise = rng.gumbel(size=(1, GRID_SIZE))
        hypers_mod._emission_moves(state, [0], "V", table, arrays, noise)
        draws.append(float(state.hypers[0, 0, 1]))
    freqs = np.array([draws.count(p) for p in grids.cells[0, 1].tolist()]) / len(draws)
    assert abs(freqs - 1.0 / GRID_SIZE).max() < 0.02


def test_sampled_values_are_grid_members(rng):
    panel, state = state_for_gibbs(rng)
    group = state.groups[0]
    hypers_mod._gibbs_alpha0(state, rng)
    hypers_mod._gibbs_group_alpha(state, group, hypers_mod._group_table(state, group), rng)
    arrays = grid_arrays(state)
    table = hypers_mod._group_table(state, group)
    hypers_mod._emission_moves(state, [0], "b", table, arrays, rng.gumbel(size=(2, GRID_SIZE)))
    table = hypers_mod._group_table(state, group)
    crp = table.log_weights(group.alpha, 0.0)
    hypers_mod._lag_move(state, 1, 1, "m", table, crp, arrays, rng.gumbel(size=GRID_SIZE),
                         current_shape(state, 1, 1))
    # the concentrations stay Python floats
    assert type(state.alpha0) is float and type(state.groups[0].alpha) is float
    assert state.alpha0 in state.grids.alpha0.tolist()
    assert state.groups[0].alpha in state.grids.group_alpha.tolist()
    assert state.hypers[0, 0, 3] in state.grids.cells[0, 3].tolist()
    assert state.hypers[1, 1, 0] in state.grids.cells[1, 0].tolist()


def test_alpha_tracks_regime_count():
    # joint sampling of alpha given z: more regimes should pull alpha upward
    rng = np.random.default_rng(2)
    values = [list(rng.normal(size=13))]
    panel = make_panel(values, window=1)
    grids = build_grids(panel)
    hypers = start_hypers(grids, 1)

    def mean_alpha(z):
        state = build_state(panel, hypers, [z], [1])
        state.grids = grids
        draws = []
        local = np.random.default_rng(5)
        for _ in range(400):
            table = hypers_mod._group_table(state, state.groups[0])
            hypers_mod._gibbs_group_alpha(state, state.groups[0], table, local)
            draws.append(state.groups[0].alpha)
        return float(np.mean(draws))

    few = mean_alpha([1] * 12)
    many = mean_alpha(list(range(1, 13)))
    assert many > few * 2


def test_alpha0_restricted_matches_log_joint(rng):
    values = [list(rng.normal(size=7)) for _ in range(3)]
    panel = make_panel(values, window=1)
    grids = build_grids(panel)
    hypers = start_hypers(grids, 1)
    state = build_state(panel, hypers, [[1, 2, 1, 1, 2, 1], [1, 1, 2, 1, 2, 2]], [1, 1, 2],
                        alphas=[1.0, 0.8])
    state.grids = grids
    from trcrp.util import crp_partition_log_mass, log_gamma11_pdf

    sizes = [len(g.members) for g in state.groups]
    points = grids.alpha0.tolist()[:6]
    restricted = [crp_partition_log_mass(sizes, a) + log_gamma11_pdf(a) for a in points]
    joints = []
    for a in points:
        state.alpha0 = a
        joints.append(log_joint(state))
    for i in range(1, len(points)):
        assert (restricted[i] - restricted[0]) == pytest.approx(
            joints[i] - joints[0], abs=1e-8
        )


def test_group_alpha_restricted_matches_log_joint(rng):
    panel, state = state_for_gibbs(rng, num_series=2, steps=8, window=1)
    group = state.groups[0]
    table = hypers_mod._group_table(state, group)
    points = state.grids.group_alpha.tolist()[:6]
    restricted = hypers_mod._alpha_logits(state, table)[:6]
    joints = []
    for a in points:
        group.alpha = a
        joints.append(log_joint(state))
    for i in range(1, len(points)):
        assert (restricted[i] - restricted[0]) == pytest.approx(
            joints[i] - joints[0], abs=1e-8
        )


def test_emission_restricted_matches_log_joint(rng):
    panel, state = state_for_gibbs(rng)
    n = 0
    table = hypers_mod._group_table(state, state.groups[0])
    points = state.grids.cells[n, 3, :6]
    arrays = grid_arrays(state)
    restricted = hypers_mod._emission_logits(state, [n], "b", table, arrays)[0][:6]
    joints = []
    for value in points:
        state.hypers[n, 0, 3] = value
        joints.append(log_joint(state))
    for i in range(1, len(points)):
        assert (restricted[i] - restricted[0]) == pytest.approx(
            joints[i] - joints[0], abs=1e-8
        )


def test_cohesion_restricted_matches_log_joint(rng):
    values = [list(rng.normal(size=9)) for _ in range(2)]
    values[0][4] = None
    panel = make_panel(values, window=2)
    grids = build_grids(panel)
    hypers = start_hypers(grids, 2)
    state = build_state(panel, hypers, [[1, 2, 1, 1, 2, 1, 1]], [1, 1])
    state.grids = grids
    group = state.groups[0]
    n, offset = 0, 2
    table = hypers_mod._group_table(state, group)
    points = grids.cells[n, 1, :6]
    crp = table.log_weights(group.alpha, 0.0)
    arrays = grid_arrays(state)
    shape = current_shape(state, n, offset)
    restricted = hypers_mod._lag_logits(state, n, offset, "V", table, crp, arrays, shape)[0][:6]
    joints = []
    for value in points:
        state.hypers[n, offset, 1] = value
        joints.append(log_joint(state))
    for i in range(1, len(points)):
        assert (restricted[i] - restricted[0]) == pytest.approx(
            joints[i] - joints[0], abs=1e-8
        )


def stacked(*cells):
    """(m, V, a, b) of the given NIG cells, each field a (G, 1, 1) candidate axis."""
    return tuple(np.reshape(field, (-1, 1, 1)) for field in zip(*cells))


def test_table_update_matches_rebuild(rng):
    panel, state = state_for_gibbs(rng, num_series=2)
    group = state.groups[0]
    alphas = state.grids.group_alpha.tolist()[::6]
    # a lag move installs its factors; an emission move installs none, and the
    # table it leaves scores every cell as a rebuilt one does
    for offset in (1, 0):
        table = hypers_mod._group_table(state, group)
        new_hyper = [2.5, 3.0, *state.hypers[0, offset, 2:]]
        if offset:
            cand = stacked(new_hyper)
            rows = lgamma_rows(cand[2], panel.num_steps)
            crp = table.log_weights(group.alpha, 0.0)
            _, factors = table.cell_logliks(0, offset, cand, crp, rows)
            table.install(0, offset, factors[0])
        state.hypers[0, offset] = new_hyper
        fresh = hypers_mod._group_table(state, group)
        lags = table.cells.num_lags
        np.testing.assert_array_equal(table.factors[:lags], fresh.factors[:lags])
        np.testing.assert_allclose(
            table.loglik(table.log_weights(alphas)),
            fresh.loglik(fresh.log_weights(alphas)),
            rtol=0,
            atol=1e-12,
        )
        cands = stacked(new_hyper, [2.5, 3.0, 0.7, 4.0])
        rows = lgamma_rows(cands[2], panel.num_steps)
        for alpha in alphas:
            for n in group.members:
                for cell in range(1, panel.window + 1):
                    np.testing.assert_allclose(
                        table.cell_logliks(n, cell, cands, table.log_weights(alpha, 0.0), rows)[0],
                        fresh.cell_logliks(n, cell, cands, fresh.log_weights(alpha, 0.0), rows)[0],
                        rtol=0,
                        atol=1e-12,
                    )
        emission = tuple(c[None, :, 0, 0] for c in cands)  # (1, G) per field
        rows = lgamma_rows(emission[2], panel.num_steps)
        for n in group.members:
            np.testing.assert_array_equal(
                hypers_mod._emission_scores(table, [n], emission, rows),
                hypers_mod._emission_scores(fresh, [n], emission, rows),
            )


# -- exact conditionals against the brute-force log joint ----------------------

FIELD_INDEX = {name: i for i, name in enumerate(("m", "V", "a", "b"))}


def tiny_state():
    """2 series in one group, T=6, window 2, series 0's value at t=2 missing."""
    rng = np.random.default_rng(11)
    values = [list(rng.normal(size=8)) for _ in range(2)]
    values[0][3] = None
    panel = make_panel(values, window=2)
    grids = build_grids(panel)
    state = build_state(
        panel, start_hypers(grids, 2), [[1, 2, 1, 1, 2, 2]], [1, 1], alpha0=1.3, alphas=[0.7]
    )
    state.grids = grids
    return panel, state


def grid_of(state, spec):
    if spec[0] == "alpha":
        return state.grids.group_alpha.tolist()
    return state.grids.cells[0, NIG_FIELDS.index(spec[-1])].tolist()


def brute_force_conditional(state, panel, spec):
    """Softmax over the grid of ``naive_log_joint`` with ``spec`` set to each point.

    ``spec`` is ``("alpha",)``, ``("emission", field)`` or ``("cohesion", offset,
    field)``; the NIG fields belong to series 0.
    """
    group = state.groups[0]
    joints = []
    for value in grid_of(state, spec):
        alpha = value if spec[0] == "alpha" else group.alpha
        tuples = hyper_tuples(state.hypers)
        emission, lags = tuples[0]
        if spec[0] == "emission":
            emission = list(emission)
            emission[FIELD_INDEX[spec[1]]] = value
        elif spec[0] == "cohesion":
            lag = list(lags[spec[1] - 1])
            lag[FIELD_INDEX[spec[2]]] = value
            lags[spec[1] - 1] = lag
        tuples[0] = (emission, lags)
        desc = (state.alpha0, state.assignments, [(alpha, group.regimes.z)])
        joints.append(naive_log_joint(desc, panel, tuples))
    return softmax(joints)


def softmax(logits):
    logits = np.asarray(logits, dtype=float)
    w = np.exp(logits - logits.max())
    return w / w.sum()


def grid_conditional(state, spec):
    group = state.groups[0]
    table = hypers_mod._group_table(state, group)
    if spec[0] == "alpha":
        return softmax(hypers_mod._alpha_logits(state, table))
    arrays = grid_arrays(state)
    if spec[0] == "emission":
        return softmax(hypers_mod._emission_logits(state, [0], spec[-1], table, arrays)[0])
    crp = table.log_weights(group.alpha, 0.0)
    shape = current_shape(state, 0, spec[1])
    return softmax(
        hypers_mod._lag_logits(state, 0, spec[1], spec[-1], table, crp, arrays, shape)[0]
    )


@pytest.mark.parametrize(
    "spec",
    [("alpha",)]
    + [("emission", f) for f in ("m", "V", "a", "b")]
    + [("cohesion", 2, f) for f in ("m", "V", "a", "b")],
    ids=lambda spec: "-".join(map(str, spec)),
)
def test_grid_conditional_matches_brute_force(spec):
    panel, state = tiny_state()
    want = brute_force_conditional(state, panel, spec)
    got = grid_conditional(state, spec)
    assert np.abs(got - want).max() <= 1e-8


def test_lag_sampler_matches_brute_force_conditional():
    # The V conditional of a lag cell does not depend on the cell's current V,
    # so the draws of a chain of these moves are independent draws from it,
    # provided each accepted move refreshes the table (install).
    # For N multinomial draws over k = 30 cells, E|p_hat_i - p_i| <=
    # sqrt(2 p_i (1 - p_i) / (pi N)) (half-normal mean), so E[TV] <=
    # 1/2 sum_i sqrt(2 p_i / (pi N)) <= 1/2 sqrt(2 k / (pi N)) by Cauchy-Schwarz;
    # the test allows three times that, 0.046 at N = 20,000.
    panel, state = tiny_state()
    # a location far from the data and a tight prior variance make the V
    # conditional far from uniform (total variation 0.19), so a sampler that
    # maps draws to the wrong grid point shows
    cells = state.grids.cells[0]
    state.hypers[0, 2, [0, 2, 3]] = cells[0, 0], cells[2, -1], cells[3, 0]
    want = brute_force_conditional(state, panel, ("cohesion", 2, "V"))
    assert 0.5 * np.abs(want - 1.0 / GRID_SIZE).sum() > 0.15
    table = hypers_mod._group_table(state, state.groups[0])
    crp = table.log_weights(state.groups[0].alpha, 0.0)
    arrays = grid_arrays(state)
    index = {v: i for i, v in enumerate(grid_of(state, ("cohesion", 2, "V")))}
    shape = current_shape(state, 0, 2)  # a V move keeps the shape
    rng = np.random.default_rng(3)
    num = 20_000
    counts = np.zeros(GRID_SIZE)
    for _ in range(num):
        noise = rng.gumbel(size=GRID_SIZE)
        hypers_mod._lag_move(state, 0, 2, "V", table, crp, arrays, noise, shape)
        counts[index[state.hypers[0, 2, 1]]] += 1
    bound = 3 * 0.5 * math.sqrt(2 * GRID_SIZE / (math.pi * num))
    assert 0.5 * np.abs(counts / num - want).sum() <= bound


def test_hyper_sweep_p0_touches_only_emission_and_alphas(rng):
    values = [list(rng.normal(size=8))]
    panel = make_panel(values, window=0)
    grids = build_grids(panel)
    hypers = start_hypers(grids, 0)
    state = build_state(panel, hypers, [[1, 2, 1, 1, 2, 1, 2, 1]], [1])
    state.grids = grids
    hyper_sweep(state, rng)
    assert state.hypers.shape == (1, 1, 4)
    state.check_consistency()


def test_hyper_sweep_keeps_stats_consistent(rng):
    panel, state = state_for_gibbs(rng, num_series=2, steps=8, window=1)
    hyper_sweep(state, rng)
    state.check_consistency()


def test_emission_move_touches_only_its_series(rng):
    panel, state = state_for_gibbs(rng, num_series=2)
    group = state.groups[0]
    arrays = grid_arrays(state)
    noise = np.random.default_rng(1).gumbel(size=(2, GRID_SIZE))
    before = state.hypers.copy()
    table = hypers_mod._group_table(state, group)
    logits = hypers_mod._emission_logits(state, [0], "a", table, arrays)
    hypers_mod._emission_moves(state, [0], "a", table, arrays, noise)
    drawn = state.hypers.copy()
    state.hypers[:] = before  # in place: the groups share the array
    table = hypers_mod._group_table(state, group)
    for offset in range(panel.window + 1):
        row = table.cells.index[1, offset]
        for stats in (table.total, table.total_sq, table.cells.x, table.factors):
            stats[row] = math.nan
    after = hypers_mod._emission_logits(state, [0], "a", table, arrays)
    assert np.isfinite(after).all()
    assert np.array_equal(after, logits)
    hypers_mod._emission_moves(state, [0], "a", table, arrays, noise)
    assert np.array_equal(state.hypers, drawn)


# -- the sweep against the per-move reference ----------------------------------


def two_group_state():
    """5 series in two groups at window 2, T=14, five cells missing; the
    second group holds one regime and three members, so its emission moves
    run in chunks of two."""
    gen = np.random.default_rng(13)
    values = gen.normal(size=(5, 16)).cumsum(axis=1).tolist()
    values[0][5] = values[1][2] = values[2][15] = values[3][9] = values[4][10] = None
    panel = make_panel(values, window=2)
    grids = build_grids(panel)
    z = [1, 2, 2, 1, 3, 3, 1, 2, 1, 1, 3, 2, 2, 1]
    state = build_state(
        panel, start_hypers(grids, 2), [z, [1] * 14], [1, 2, 1, 2, 2], alpha0=0.9,
        alphas=[0.7, 1.6],
    )
    state.grids = grids
    return state


def swept_state(kind):
    """A state whose sequences and hypers a short fit has moved."""
    if kind == "two_groups":
        return two_group_state()
    panel = robustness_panel(kind)
    config = RunConfig(window=panel.window, chains=1, burnin=2, init_sweeps=1, particles=4)
    state, _ = run_sweeps(*init_chains(panel, config, [np.random.SeedSequence(7)])[0], config)
    state.grids = build_grids(panel)
    return state


@pytest.mark.parametrize("nig_cells", [True, False], ids=["nig_cells", "fixed_cells"])
@pytest.mark.parametrize("kind", ROBUSTNESS_PANELS + ("two_groups",))
def test_hyper_sweep_equals_per_move_reference(kind, nig_cells):
    # the noise drawn at once and the emission moves run per group make the
    # draws of one gumbel_argmax per move, series by series
    state = swept_state(kind)
    want, got = copy.deepcopy(state), copy.deepcopy(state)
    want_rng, got_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(3):
        per_move_hyper_sweep(want, want_rng, nig_cells)
        hyper_sweep(got, got_rng, nig_cells)
        assert json.dumps(state_payload(got)) == json.dumps(state_payload(want))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if nig_cells:
        assert state_payload(got)["hypers"] != state_payload(state)["hypers"]


def reference_scores(state, table, n, offset, field):
    """The per-move reference's scores of cell (n, offset)'s ``field``."""
    cand = state.hypers[n, offset].tolist()
    cand[NIG_FIELDS.index(field)] = state.grids.cells[n, NIG_FIELDS.index(field), :, None, None]
    factors = full_factors(table, n, offset, cand, state.lgamma.rows(cand[2]))
    if not offset:
        return slot_sums(factors, table)
    c = table.cells.index[n, offset]
    return table.loglik(table.log_weights(state.group_of(n).alpha) + (factors - table.factors[c]))


@pytest.mark.parametrize("kind", ["random_missing", "window_0", "two_groups"])
def test_sweep_scores_equal_per_move_scores(kind):
    # a chunk's emission scores are the slot sums of each member's full
    # (G, T, K+1) factors, and a lag cell's scores the reference's, bit for bit
    state = swept_state(kind)
    arrays = grid_arrays(state)
    for group in state.groups:
        table = hypers_mod._group_table(state, group)
        crp = table.log_weights(group.alpha, 0.0)
        for field in NIG_FIELDS:
            got = hypers_mod._emission_logits(state, group.members, field, table, arrays)
            assert len(got) == len(group.members)
            for row, n in zip(got, group.members):
                want = reference_scores(state, table, n, 0, field)
                assert row.tobytes() == want.tobytes(), (kind, n, field)
            for n in group.members:
                for offset in range(1, group.window + 1):
                    shape = current_shape(state, n, offset)
                    got = hypers_mod._lag_logits(
                        state, n, offset, field, table, crp, arrays, shape
                    )[0]
                    want = reference_scores(state, table, n, offset, field)
                    assert got.tobytes() == want.tobytes(), (kind, n, offset, field)


class FixedNoise:
    """A generator stand-in whose ``gumbel`` returns the given draws."""

    def __init__(self, draws):
        self.draws = draws

    def gumbel(self, size):
        assert size == len(self.draws)
        return self.draws


def test_pick_follows_gumbel_argmax():
    # ties go to the first index and a NaN counts as -inf, so a row with
    # nothing above -inf picks index 0
    logits = np.zeros((6, GRID_SIZE))
    logits[1, ::2] = np.nan
    logits[2] = -np.inf
    logits[3, 4:] = -np.inf
    logits[3, :4] = np.nan
    logits[4] = np.nan
    logits[5, 7] = np.inf
    noise = np.random.default_rng(2).gumbel(size=logits.shape)
    noise[0, 3] = noise[0, 9] = 50.0
    want = [gumbel_argmax(row, FixedNoise(eps)) for row, eps in zip(logits, noise)]
    assert hypers_mod._pick(logits, noise).tolist() == want
    assert want[0] == 3


# -- the chain's lgamma rows ----------------------------------------------------


def fitted_window2_state():
    """A fitted one-chain state on 3 series, T=12, window 2, three cells missing."""
    rng = np.random.default_rng(5)
    values = [list(rng.normal(size=14)) for _ in range(3)]
    values[0][4] = values[1][9] = values[2][13] = None
    panel = make_panel(values, window=2)
    config = RunConfig(window=2, chains=1, burnin=3, init_sweeps=1, particles=4)
    state, _ = run_sweeps(*init_chains(panel, config, [np.random.SeedSequence(2)])[0], config)
    state.grids = build_grids(panel)
    return state


def per_call_cell_logits(state, n, offset, field, table, crp):
    """The logits of cell (n, offset)'s ``field`` (and a lag cell's factors),
    with the candidates' lgamma rows built for this call alone."""
    cand = state.hypers[n, offset].tolist()
    cand[NIG_FIELDS.index(field)] = state.grids.cells[n, NIG_FIELDS.index(field), :, None, None]
    if offset:
        return table.cell_logliks(n, offset, cand, crp, lgamma_rows(cand[2], state.panel.num_steps))
    cand = [np.reshape(c, (1, -1)) for c in cand]  # one series, G candidates or one
    lgamma = lgamma_rows(cand[2], state.panel.num_steps)
    return (hypers_mod._emission_scores(table, [n], cand, lgamma)[0],)


def chain_cell_logits(state, n, offset, field, table, crp, arrays):
    """The sweep's logits of cell (n, offset)'s ``field`` (and a lag cell's factors)."""
    if offset:
        shape = current_shape(state, n, offset)
        return hypers_mod._lag_logits(state, n, offset, field, table, crp, arrays, shape)
    return (hypers_mod._emission_logits(state, [n], field, table, arrays)[0],)


def assert_cell_logits_match_per_call_rows(state, n, offset, table, arrays):
    crp = table.log_weights(state.group_of(n).alpha, 0.0)
    for field in NIG_FIELDS:
        got = chain_cell_logits(state, n, offset, field, table, crp, arrays)
        want = per_call_cell_logits(state, n, offset, field, table, crp)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True)), (n, offset, field)


def test_chain_rows_score_cells_bit_equal_to_per_call_rows():
    state = fitted_window2_state()
    tables = {group: hypers_mod._group_table(state, group) for group in state.groups}
    arrays = grid_arrays(state)
    for n in range(state.num_series):
        points = state.grids.cells[n, 2].tolist()
        table = tables[state.group_of(n)]
        crp = table.log_weights(state.group_of(n).alpha, 0.0)
        for offset in range(state.panel.window + 1):
            assert_cell_logits_match_per_call_rows(state, n, offset, table, arrays)
            # accept an a move to the likeliest other grid point, as a sweep's
            # move does, so an m, V or b move that kept a stale row would show
            scored = chain_cell_logits(state, n, offset, "a", table, crp, arrays)
            j = next(j for j in np.argsort(-scored[0]) if points[j] != state.hypers[n, offset, 2])
            if offset:
                table.install(n, offset, scored[1][j])
            state.hypers[n, offset, 2] = points[j]
            assert_cell_logits_match_per_call_rows(state, n, offset, table, arrays)
        assert set(points) <= set(state.lgamma.index)
    # a shape off its grid gets its own exact row
    state.hypers[0, 0, 2] *= 1 + 1e-9
    table = hypers_mod._group_table(state, state.group_of(0))
    assert_cell_logits_match_per_call_rows(state, 0, 0, table, arrays)


@pytest.mark.parametrize("fixed", [None, (0.0, 1.0, 2.0, 1.0)], ids=["nig_cells", "fixed_hypers"])
def test_chain_builds_each_series_rows_once(monkeypatch, fixed):
    # the chains of a fit share one lgamma table, so each distinct shape's row
    # is built once per fit, however many chains and layouts read it
    built = []

    def recording(a0, max_count):
        built.extend(np.ravel(a0).tolist())
        return lgamma_rows(a0, max_count)

    monkeypatch.setattr(conjugate, "lgamma_rows", recording)
    rng = np.random.default_rng(8)
    panel = make_panel([list(rng.normal(size=12)) for _ in range(3)], window=2)
    config = RunConfig(
        window=2, chains=2, burnin=4, init_sweeps=1, particles=4, fixed_hypers=fixed
    )
    fit(panel, config)
    assert len(built) == len(set(built))
    if fixed:
        assert built == [fixed[2]]
    else:
        # every sweep moves every cell of every series, so every grid shape is read
        grids = build_grids(panel)
        assert set(built) == set(grids.cells[:, 2].ravel().tolist())


def test_sweep_tables_build_no_lgamma_rows_once_the_chain_holds_them(monkeypatch):
    # after a chain's first sweep its table holds every shape a cell can take,
    # so no layout of a later sweep, SMC set or log joint builds a row
    rng = np.random.default_rng(6)
    panel = make_panel([list(rng.normal(size=14)) for _ in range(4)], window=2)
    config = RunConfig(window=2, chains=2, burnin=0, init_sweeps=0, particles=4, seed=1)
    chains = init_chains(panel, config, np.random.SeedSequence(config.seed).spawn(config.chains))
    state, rng, _ = next(chain for chain in chains if len(chain[0].groups) < panel.num_series)
    values, observed = state.values, state.observed

    def sweep_z():
        for group in list(state.groups):
            mcmc.sweep_z(group, values, observed, rng, mcmc.MhConfig(), state.lgamma)

    # the first sweep, in the order run_sweeps makes it
    sweep_z()
    structure.sweep_c(state, rng)
    hyper_sweep(state, rng)
    # a group of several series, whose members' fresh slots have layouts of their own
    assert any(len(group.members) > 1 for group in state.groups)
    built, read = [], []
    rows = conjugate.LgammaTable.rows

    def reading(table, a0):
        read.append(np.size(a0))
        return rows(table, a0)

    def building(a0, max_count):
        built.append(np.size(a0))
        return lgamma_rows(a0, max_count)

    monkeypatch.setattr(conjugate, "lgamma_rows", building)
    monkeypatch.setattr(conjugate.LgammaTable, "rows", reading)
    for layer in (
        sweep_z,  # its full-MH SweepTables make its only table reads
        lambda: structure.sweep_c(state, rng),
        lambda: hyper_sweep(state, rng),
        lambda: smc_block_sample(
            [GroupModel(g.members, g.alpha, g.num_steps, g.window, g.hypers) for g in state.groups],
            values, observed, state.lgamma, 4, rng,
        ),
        lambda: log_joint(state),
    ):
        read.clear()
        layer()
        assert read and not built


def test_grids_payload_shape(rng):
    panel = make_panel([list(rng.normal(size=10))], window=1)
    payload = grids_payload(build_grids(panel))
    assert payload["lag_windows_reuse_series_grids"]
    assert len(payload["series"][0]["m"]["points"]) == GRID_SIZE
