"""Grid construction rules and griddy-Gibbs conditionals."""

import math

import numpy as np
import pytest

import trcrp.conjugate as conjugate
import trcrp.hypers as hypers_mod
from conftest import hyper_tuples, make_panel
from oracles import naive_log_joint
from test_model import build_state
from trcrp.conjugate import lgamma_rows
from trcrp.engine import RunConfig, fit, init_chains, run_sweeps
from trcrp.hypers import (
    GRID_SIZE,
    NIG_FIELDS,
    build_grids,
    grids_payload,
    hyper_sweep,
    initial_hypers,
)
from trcrp import mcmc, structure
from trcrp.model import log_joint
from trcrp.smc import smc_block_sample


def test_alpha0_grid_endpoints_n4():
    panel = make_panel([list(range(10))] * 4, window=0)
    grids = build_grids(panel)
    assert grids.alpha0.points[0] == pytest.approx(0.25)
    assert grids.alpha0.points[-1] == pytest.approx(4.0)
    assert len(grids.alpha0.points) == GRID_SIZE


def test_rate_grid_endpoints_t100():
    panel = make_panel([list(np.linspace(0, 5, 100))], window=0)
    grids = build_grids(panel)
    assert grids.series[0].b.points[0] == pytest.approx(1.0)
    assert grids.series[0].b.points[-1] == pytest.approx(100.0)


def test_constant_series_shape_grid_clamped():
    panel = make_panel([[3.0] * 20], window=0)
    grids = build_grids(panel)
    pts = grids.series[0].a.points
    assert all(math.isfinite(x) and x > 0 for x in pts)
    assert pts[0] == pytest.approx(1e-6)
    assert all(b > a for a, b in zip(pts, pts[1:]))


def test_every_grid_has_30_increasing_points(rng):
    values = [list(rng.normal(size=30)), [1.5] * 30]
    values[0][7] = None
    panel = make_panel(values, window=2)
    grids = build_grids(panel)
    all_grids = [grids.alpha0, grids.group_alpha]
    for sg in grids.series:
        all_grids += [sg.m, sg.V, sg.a, sg.b]
    for g in all_grids:
        assert len(g.points) == GRID_SIZE
        assert all(b > a for a, b in zip(g.points, g.points[1:]))


def test_location_grid_is_linear_over_data_span(rng):
    xs = list(rng.normal(2.0, 3.0, size=25))
    panel = make_panel([xs], window=0)
    g = build_grids(panel).series[0].m
    assert g.points[0] == pytest.approx(min(xs) - 5.0)
    assert g.points[-1] == pytest.approx(max(xs) + 5.0)
    diffs = np.diff(g.points)
    assert np.allclose(diffs, diffs[0])


def test_ssqdev_uses_observed_cells_only():
    values = [[0.0, 1.0, None, 3.0, 5.0]]
    panel = make_panel(values, window=0)
    g = build_grids(panel).series[0].a
    xs = np.array([0.0, 1.0, 3.0, 5.0])
    ssq = float(((xs - xs.mean()) ** 2).sum())
    assert g.points[-1] == pytest.approx(ssq)
    assert g.points[0] == pytest.approx(ssq / 100.0)


def test_initial_hypers_are_grid_members(rng):
    panel = make_panel([list(rng.normal(size=12))], window=2)
    grids = build_grids(panel)
    hyp = initial_hypers(grids, 2)[0]
    sg = grids.series[0]
    assert hyp.emission.m in sg.m.points
    assert hyp.emission.V in sg.V.points
    assert len(hyp.cohesion) == 2


def state_for_gibbs(rng, num_series=2, steps=8, window=1):
    values = [list(rng.normal(size=steps + window)) for _ in range(num_series)]
    panel = make_panel(values, window=window)
    grids = build_grids(panel)
    hypers = initial_hypers(grids, window)
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
    hypers = initial_hypers(grids, 1)
    state = build_state(panel, hypers, [[1, 1, 2, 1, 2, 1, 1, 2]], [1])
    state.grids = grids
    rng = np.random.default_rng(0)
    draws = []
    for _ in range(3000):
        table = hypers_mod._group_table(state, state.groups[0])
        hypers_mod._gibbs_cell(state, 0, 0, "V", table, rng)
        draws.append(state.hypers[0].emission.V)
    freqs = np.array([draws.count(p) for p in grids.series[0].V.points]) / len(draws)
    assert abs(freqs - 1.0 / GRID_SIZE).max() < 0.02


def test_sampled_values_are_grid_members(rng):
    panel, state = state_for_gibbs(rng)
    group = state.groups[0]
    hypers_mod._gibbs_alpha0(state, rng)
    hypers_mod._gibbs_group_alpha(state, group, hypers_mod._group_table(state, group), rng)
    hypers_mod._gibbs_cell(state, 0, 0, "b", hypers_mod._group_table(state, group), rng)
    hypers_mod._gibbs_cell(state, 1, 1, "m", hypers_mod._group_table(state, group), rng)
    assert state.alpha0 in state.grids.alpha0.points
    assert state.groups[0].alpha in state.grids.group_alpha.points
    assert state.hypers[0].emission.b in state.grids.series[0].b.points
    assert state.hypers[1].cohesion[0].m in state.grids.series[1].m.points


def test_alpha_tracks_regime_count():
    # joint sampling of alpha given z: more regimes should pull alpha upward
    rng = np.random.default_rng(2)
    values = [list(rng.normal(size=13))]
    panel = make_panel(values, window=1)
    grids = build_grids(panel)
    hypers = initial_hypers(grids, 1)

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
    hypers = initial_hypers(grids, 1)
    state = build_state(panel, hypers, [[1, 2, 1, 1, 2, 1], [1, 1, 2, 1, 2, 2]], [1, 1, 2],
                        alphas=[1.0, 0.8])
    state.grids = grids
    from trcrp.util import crp_partition_log_mass, log_gamma11_pdf

    sizes = [len(g.members) for g in state.groups]
    points = grids.alpha0.points[:6]
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
    points = state.grids.group_alpha.points[:6]
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
    current = state.hypers[n].emission
    points = state.grids.series[n].b.points[:6]
    restricted = hypers_mod._cell_logits(state, n, 0, "b", table)[0][:6]
    joints = []
    for value in points:
        state.hypers[n] = state.hypers[n].replace_cell(0, current.replace(b=value))
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
    hypers = initial_hypers(grids, 2)
    state = build_state(panel, hypers, [[1, 2, 1, 1, 2, 1, 1]], [1, 1])
    state.grids = grids
    group = state.groups[0]
    n, offset = 0, 2
    table = hypers_mod._group_table(state, group)
    current = state.hypers[n].cohesion[offset - 1]
    points = grids.series[n].V.points[:6]
    restricted = hypers_mod._cell_logits(state, n, offset, "V", table)[0][:6]
    joints = []
    for value in points:
        state.hypers[n] = state.hypers[n].replace_cell(offset, current.replace(V=value))
        joints.append(log_joint(state))
    for i in range(1, len(points)):
        assert (restricted[i] - restricted[0]) == pytest.approx(
            joints[i] - joints[0], abs=1e-8
        )


def stacked(*cells):
    """(m, V, a, b) of the given NIG cells, each field a (G, 1, 1) candidate axis."""
    return tuple(np.reshape([getattr(c, f) for c in cells], (-1, 1, 1)) for f in "mVab")


def test_table_update_matches_rebuild(rng):
    panel, state = state_for_gibbs(rng, num_series=2)
    group = state.groups[0]
    alphas = state.grids.group_alpha.points[::6]
    # the lag cell first, then the emission cell on top of it
    for offset in (1, 0):
        table = hypers_mod._group_table(state, group)
        new_hyper = state.hypers[0].cell(offset).replace(m=2.5, V=3.0)
        cand = stacked(new_hyper)
        rows = lgamma_rows(cand[2], panel.num_steps)
        _, factors = table.cell_logliks(0, offset, cand, group.alpha, rows)
        table.install(0, offset, factors[0])
        state.hypers[0] = state.hypers[0].replace_cell(offset, new_hyper)
        fresh = hypers_mod._group_table(state, group)
        np.testing.assert_array_equal(table.factors, fresh.factors)
        np.testing.assert_allclose(
            table.loglik(table.log_weights(alphas)),
            fresh.loglik(fresh.log_weights(alphas)),
            rtol=0,
            atol=1e-12,
        )
        cands = stacked(new_hyper, new_hyper.replace(a=0.7, b=4.0))
        rows = lgamma_rows(cands[2], panel.num_steps)
        for alpha in alphas:
            for n in group.members:
                for cell in range(panel.window + 1):
                    np.testing.assert_allclose(
                        table.cell_logliks(n, cell, cands, alpha, rows)[0],
                        fresh.cell_logliks(n, cell, cands, alpha, rows)[0],
                        rtol=0,
                        atol=1e-12,
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
        panel, initial_hypers(grids, 2), [[1, 2, 1, 1, 2, 2]], [1, 1], alpha0=1.3, alphas=[0.7]
    )
    state.grids = grids
    return panel, state


def grid_of(state, spec):
    if spec[0] == "alpha":
        return state.grids.group_alpha.points
    return getattr(state.grids.series[0], spec[-1]).points


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
    table = hypers_mod._group_table(state, state.groups[0])
    if spec[0] == "alpha":
        return softmax(hypers_mod._alpha_logits(state, table))
    offset = 0 if spec[0] == "emission" else spec[1]
    return softmax(hypers_mod._cell_logits(state, 0, offset, spec[-1], table)[0])


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
    sg = state.grids.series[0]
    lag = state.hypers[0].cohesion[1].replace(
        m=sg.m.points[0], a=sg.a.points[-1], b=sg.b.points[0]
    )
    state.hypers[0] = state.hypers[0].replace_cell(2, lag)
    want = brute_force_conditional(state, panel, ("cohesion", 2, "V"))
    assert 0.5 * np.abs(want - 1.0 / GRID_SIZE).sum() > 0.15
    table = hypers_mod._group_table(state, state.groups[0])
    index = {v: i for i, v in enumerate(grid_of(state, ("cohesion", 2, "V")))}
    rng = np.random.default_rng(3)
    num = 20_000
    counts = np.zeros(GRID_SIZE)
    for _ in range(num):
        hypers_mod._gibbs_cell(state, 0, 2, "V", table, rng)
        counts[index[state.hypers[0].cohesion[1].V]] += 1
    bound = 3 * 0.5 * math.sqrt(2 * GRID_SIZE / (math.pi * num))
    assert 0.5 * np.abs(counts / num - want).sum() <= bound


def test_hyper_sweep_p0_touches_only_emission_and_alphas(rng):
    values = [list(rng.normal(size=8))]
    panel = make_panel(values, window=0)
    grids = build_grids(panel)
    hypers = initial_hypers(grids, 0)
    state = build_state(panel, hypers, [[1, 2, 1, 1, 2, 1, 2, 1]], [1])
    state.grids = grids
    hyper_sweep(state, rng)
    assert state.hypers[0].cohesion == ()
    state.check_consistency()


def test_hyper_sweep_keeps_stats_consistent(rng):
    panel, state = state_for_gibbs(rng, num_series=2, steps=8, window=1)
    hyper_sweep(state, rng)
    state.check_consistency()


def test_emission_move_touches_only_its_series(rng):
    panel, state = state_for_gibbs(rng, num_series=2)
    group = state.groups[0]
    before = state.hypers[0]
    logits = hypers_mod._cell_logits(state, 0, 0, "a", hypers_mod._group_table(state, group))[0]
    hypers_mod._gibbs_cell(
        state, 0, 0, "a", hypers_mod._group_table(state, group), np.random.default_rng(1)
    )
    drawn = state.hypers[0].emission
    state.hypers[0] = before
    table = hypers_mod._group_table(state, group)
    for offset in range(panel.window + 1):
        row = table.cells.index[1, offset]
        for stats in (table.total, table.total_sq, table.cells.x, table.factors):
            stats[row] = math.nan
    after = hypers_mod._cell_logits(state, 0, 0, "a", table)[0]
    assert np.isfinite(after).all()
    assert np.array_equal(after, logits)
    hypers_mod._gibbs_cell(state, 0, 0, "a", table, np.random.default_rng(1))
    assert state.hypers[0].emission == drawn


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


def per_call_cell_logits(state, n, offset, field, table):
    """``hypers._cell_logits`` with the candidates' lgamma rows built for this call alone."""
    grid = getattr(state.grids.series[n], field).points
    cand = hypers_mod._candidates(state.hypers[n].cell(offset), field, grid)
    lgamma = lgamma_rows(cand[2], state.panel.num_steps)
    return table.cell_logliks(n, offset, cand, state.group_of(n).alpha, lgamma)


def assert_cell_logits_match_per_call_rows(state, n, offset, table):
    for field in NIG_FIELDS:
        got = hypers_mod._cell_logits(state, n, offset, field, table)
        want = per_call_cell_logits(state, n, offset, field, table)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (n, offset, field)


def test_chain_rows_score_cells_bit_equal_to_per_call_rows():
    state = fitted_window2_state()
    tables = {group: hypers_mod._group_table(state, group) for group in state.groups}
    for n in range(state.num_series):
        points = state.grids.series[n].a.points
        table = tables[state.group_of(n)]
        for offset in range(state.panel.window + 1):
            assert_cell_logits_match_per_call_rows(state, n, offset, table)
            # accept an a move to the likeliest other grid point, as _gibbs_cell
            # does, so an m, V or b move that kept a stale row would show
            cell = state.hypers[n].cell(offset)
            logits, factors = hypers_mod._cell_logits(state, n, offset, "a", table)
            j = next(j for j in np.argsort(-logits) if points[j] != cell.a)
            table.install(n, offset, factors[j])
            state.hypers[n] = state.hypers[n].replace_cell(offset, cell.replace(a=points[j]))
            assert_cell_logits_match_per_call_rows(state, n, offset, table)
        assert set(points) <= set(state.lgamma.index)
    # a shape off its grid gets its own exact row
    cell = state.hypers[0].emission
    state.hypers[0] = state.hypers[0].replace_cell(0, cell.replace(a=cell.a * (1 + 1e-9)))
    table = hypers_mod._group_table(state, state.group_of(0))
    assert_cell_logits_match_per_call_rows(state, 0, 0, table)


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
        assert set(built) == {a for sg in grids.series for a in sg.a.points}


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
            [group.empty_clone() for group in state.groups], values, observed, state.lgamma, 4, rng
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
