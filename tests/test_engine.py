"""Fit orchestration: schedules, determinism, serialization."""

import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from conftest import ROBUSTNESS_PANELS, assert_resting, make_panel, robustness_panel
from oracles import group_fold, stats_rows
from trcrp import engine
from trcrp.conjugate import NigHyper
from trcrp.engine import (
    RunConfig,
    SchemaVersionError,
    config_hash,
    fit,
    init_chains,
    load_sampleset,
    panel_from_payload,
    panel_payload,
    run_sweeps,
    sampleset_hash,
    save_sampleset,
)
from trcrp.model import GroupStats, log_joint, state_from_payload, state_payload
from trcrp.smc import NumericalError
from trcrp.predict import dependence_matrix, forecast, impute


def small_panel(rng, num_series=2, steps=20, missing=()):
    base = np.sin(np.arange(steps + 1) / 3.0)
    values = [list(base + rng.normal(scale=0.2, size=steps + 1)) for _ in range(num_series)]
    for n, t in missing:
        values[n][t] = None
    return make_panel(values, window=1)


def quick_config(**kwargs):
    defaults = dict(
        window=1, chains=2, burnin=8, particles=8, seed=11,
        init_sweeps=3, hyper_cadence=4,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_fit_smoke_finite_joint(rng):
    panel = small_panel(rng, missing=[(0, 5), (1, 12)])
    samples = fit(panel, quick_config())
    assert samples.num_chains == 2
    for chain, stats in zip(samples.chains, samples.provenance["chain_stats"]):
        assert math.isfinite(stats["log_joint"])
        assert stats["log_joint"] == pytest.approx(log_joint(chain), abs=1e-8)
        chain.check_consistency()


def _every_third_missing(rng):
    values = [list(rng.normal(size=22)) for _ in range(2)]
    values[0][2::3] = [None] * len(values[0][2::3])
    return make_panel(values, window=2)


DEGENERATE_PANELS = {
    "window_0": lambda rng: make_panel([list(rng.normal(size=20)) for _ in range(2)], window=0),
    "single_series": lambda rng: small_panel(rng, num_series=1),
    "constant_series": lambda rng: make_panel([[1.5] * 21, list(rng.normal(size=21))], window=1),
    "missing_after_prefix": lambda rng: make_panel(
        [list(rng.normal(size=21)), [0.3] + [None] * 20], window=1
    ),
    "window_2_every_third_missing": _every_third_missing,
}


@pytest.mark.parametrize("kind", list(DEGENERATE_PANELS))
def test_full_mh_fit_of_degenerate_panel_stays_consistent(rng, kind):
    # every sweep after the first is full MH, with its sweep table
    panel = DEGENERATE_PANELS[kind](rng)
    config = quick_config(window=panel.window, burnin=6, init_sweeps=1)
    samples = fit(panel, config)
    for chain, stats in zip(samples.chains, samples.provenance["chain_stats"], strict=True):
        chain.check_consistency()
        assert math.isfinite(stats["log_joint"])
        assert stats["log_joint"] == log_joint(chain)


def test_fit_deterministic_across_runs(rng, tmp_path):
    panel = small_panel(rng)
    config = quick_config()
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    save_sampleset(fit(panel, config), config, out_a)
    save_sampleset(fit(panel, config), config, out_b)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fit_flat_mode_forces_single_group(rng):
    panel = small_panel(rng, num_series=3)
    samples = fit(panel, quick_config(hierarchical=False, chains=2, burnin=4))
    for chain in samples.chains:
        assert len(chain.groups) == 1
        assert chain.assignments == [1, 1, 1]


def test_fit_fixed_hypers_and_alpha(rng):
    panel = small_panel(rng)
    config = quick_config(fixed_hypers=(0.0, 1.0, 2.0, 1.0), burnin=4)
    samples = fit(panel, config)
    cell = NigHyper(0.0, 1.0, 2.0, 1.0)
    for chain in samples.chains:
        # the concentrations still move, onto their grids, which miss 1.0
        assert chain.alpha0 != 1.0
        assert all(group.alpha != 1.0 for group in chain.groups)
        for sh in chain.hypers:
            assert sh.emission == cell
            assert sh.cohesion == (cell,)


def test_init_sweeps_at_burnin_accept_every_move(rng):
    # with init_sweeps >= burnin no sweep is full MH: every regime and outer move applies
    panel = small_panel(rng, num_series=3, missing=[(1, 6)])
    config = quick_config(burnin=3, init_sweeps=3)
    for stats in fit(panel, config).provenance["chain_stats"]:
        accept_z, accept_c = stats["accept_z"], stats["accept_c"]
        assert accept_z["sites"] >= config.burnin * panel.num_steps
        assert accept_z["accepted"] == accept_z["sites"]
        assert accept_c["series"] == config.burnin * panel.num_series
        assert accept_c["accepted"] == accept_c["series"]


def test_seed_changes_output(rng):
    panel = small_panel(rng)
    a = fit(panel, quick_config(seed=1, chains=1))
    b = fit(panel, quick_config(seed=2, chains=1))
    za = a.chains[0].groups[0].regimes.z
    zb = b.chains[0].groups[0].regimes.z
    ja = a.provenance["chain_stats"][0]["log_joint"]
    jb = b.provenance["chain_stats"][0]["log_joint"]
    assert za != zb or ja != jb


def test_config_hash_stable_and_sensitive():
    a = quick_config()
    b = quick_config()
    c = quick_config(seed=99)
    assert config_hash(config=dataclasses.asdict(a)) == config_hash(config=dataclasses.asdict(b))
    assert config_hash(config=dataclasses.asdict(a)) != config_hash(config=dataclasses.asdict(c))


def test_panel_payload_round_trip(rng):
    panel = small_panel(rng, missing=[(1, 7)])
    back = panel_from_payload(panel_payload(panel))
    assert back.series_names == panel.series_names
    assert back.raw_labels == panel.raw_labels
    assert np.array_equal(back.observed, panel.observed)
    assert np.allclose(back.values[back.observed], panel.values[panel.observed])


def test_state_payload_round_trip(rng):
    panel = small_panel(rng, missing=[(0, 9)])
    samples = fit(panel, quick_config(chains=1))
    chain = samples.chains[0]
    payload = state_payload(chain)
    back = state_from_payload(json.loads(json.dumps(payload)), panel)
    assert back.assignments == chain.assignments
    assert back.alpha0 == chain.alpha0
    for ga, gb in zip(back.groups, chain.groups):
        assert ga.regimes.z == gb.regimes.z
        assert ga.alpha == gb.alpha
    back.check_consistency()


@pytest.mark.parametrize("burnin", [0, 8], ids=["smc_only", "swept"])
def test_load_builds_each_distinct_cell_once(rng, tmp_path, burnin):
    # a file's cells with equal numbers share one NigHyper across its series,
    # offsets and chains; an SMC-only fit leaves every cell at its series'
    # grid midpoints, so each series has one
    panel = small_panel(rng, num_series=3)
    config = quick_config(chains=2, burnin=burnin)
    samples = fit(panel, config)
    save_sampleset(samples, config, tmp_path / "samples.json")
    loaded = load_sampleset(tmp_path / "samples.json")[0]
    cells = [
        h for chain in loaded.chains for sh in chain.hypers for h in (sh.emission, *sh.cohesion)
    ]
    assert len({id(h) for h in cells}) == len({(h.m, h.V, h.a, h.b) for h in cells})
    if not burnin:
        assert len({id(h) for h in cells}) == panel.num_series
    for chain, back in zip(samples.chains, loaded.chains, strict=True):
        assert back.hypers == chain.hypers


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda c: c["hypers"][0]["emission"].__setitem__(1, True), "four numbers"),
        (lambda c: c["hypers"][0]["cohesion"][0].__setitem__(0, "1.0"), "four numbers"),
        (lambda c: c["hypers"][1].update(emission=[0.0, 1.0]), "four numbers"),
        (lambda c: c["groups"][0]["members"].__setitem__(0, 0.0), "members must be"),
        (lambda c: c["groups"][0]["members"].append(True), "members must be"),
        (lambda c: c["groups"][0].update(members=0), "members must be"),
        (lambda c: c["groups"][0].update(members=[]), "members must be"),
        (lambda c: c["groups"][0]["z"].__setitem__(0, 1.0), "integer labels"),
        (lambda c: c["groups"][0].update(z="1"), "integer labels"),
    ],
)
def test_malformed_payload_names_its_fault(rng, corrupt, message):
    panel = small_panel(rng)
    payload = json.loads(json.dumps(state_payload(fit(panel, quick_config(chains=1)).chains[0])))
    corrupt(payload)
    with pytest.raises(ValueError, match=message):
        state_from_payload(payload, panel)


def test_sampleset_save_load_round_trip(rng, tmp_path):
    panel = small_panel(rng, missing=[(0, 3)])
    config = quick_config(chains=2)
    samples = fit(panel, config)
    path = tmp_path / "samples.json"
    saved = save_sampleset(samples, config, path)
    loaded, loaded_config, digest = load_sampleset(path)
    assert loaded_config == config
    assert digest == saved == sampleset_hash(panel, config)
    assert loaded.num_chains == 2
    assert np.allclose(dependence_matrix(loaded), dependence_matrix(samples))


def pass_stats(chain):
    """Per group, its members and the rows of the statistics a pass folds over it."""
    return [
        (group.members, stats_rows(GroupStats(group, chain.values, chain.observed)))
        for group in chain.groups
    ]


@pytest.mark.parametrize("kind", ROBUSTNESS_PANELS)
def test_round_trip_rebuilds_the_fits_stats(kind, tmp_path):
    # a group stores its sequence alone; a pass over a loaded group folds the
    # bits a pass over the fitted group folds, which are the scalar reference
    # fold's, and the log joint is the fit's
    panel = robustness_panel(kind, steps=16)
    config = quick_config(window=panel.window, burnin=3, init_sweeps=1, hyper_cadence=2)
    samples = fit(panel, config)
    path = tmp_path / "samples.json"
    save_sampleset(samples, config, path)
    loaded = load_sampleset(path)[0]
    for chain, back in zip(samples.chains, loaded.chains, strict=True):
        assert back.assignments == chain.assignments
        assert pass_stats(back) == pass_stats(chain)
        for group, (_, rows) in zip(back.groups, pass_stats(back)):
            assert rows == group_fold(group, panel.values, panel.observed)
        assert log_joint(back) == pytest.approx(log_joint(chain), rel=0, abs=1e-9)


def test_fit_rejects_config_window_other_than_panel_window(rng):
    panel = small_panel(rng)  # window 1
    with pytest.raises(ValueError, match="window"):
        fit(panel, quick_config(window=2))


def test_sampleset_schema_mismatch(rng, tmp_path):
    panel = small_panel(rng)
    config = quick_config(chains=1, burnin=2)
    path = tmp_path / "samples.json"
    save_sampleset(fit(panel, config), config, path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 5
    doc["config"]["full_mh"] = True  # a RunConfig field up to schema 3
    for version in (1, 2, 3, 4, 999):
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError):
            load_sampleset(path)


@pytest.mark.parametrize("smc_init", [True, False], ids=["smc", "no_smc"])
def test_initialised_groups_hold_no_statistics(rng, smc_init):
    panel = small_panel(rng, num_series=4, missing=[(1, 7)])
    config = quick_config(chains=3, smc_init=smc_init)
    chains = init_chains(panel, config, np.random.SeedSequence(2).spawn(3))
    assert_resting([group for state, _, _ in chains for group in state.groups])


def test_fitted_and_loaded_groups_hold_no_statistics(rng, tmp_path):
    panel = small_panel(rng, num_series=4, missing=[(1, 7), (3, 12)])
    config = quick_config(chains=3, burnin=3)
    samples = fit(panel, config)
    assert_resting([group for chain in samples.chains for group in chain.groups])
    save_sampleset(samples, config, tmp_path / "fit.json")
    loaded = load_sampleset(tmp_path / "fit.json")[0]
    assert_resting([group for chain in loaded.chains for group in chain.groups])


def test_no_smc_init_path(rng):
    panel = small_panel(rng)
    samples = fit(panel, quick_config(smc_init=False, chains=1, burnin=4))
    samples.chains[0].check_consistency()
    assert samples.provenance["chain_stats"][0]["smc_log_ml"] == []


def test_chain_stats_record_one_smc_estimate_per_initial_group(rng):
    # with no sweeps the final groups are the initial ones
    panel = small_panel(rng, num_series=4, steps=12, missing=[(1, 4)])
    config = quick_config(burnin=0)
    sizes = set()
    for k in range(4):
        state, stats = run_sweeps(*init_chains(panel, config, [np.random.SeedSequence(k)])[0], config)
        # a worker sends neither the grids nor the fit's lgamma rows back
        assert state.grids is None and not state.lgamma.index
        estimates = stats["smc_log_ml"]
        assert len(estimates) == len(state.groups)
        assert all(isinstance(v, float) and math.isfinite(v) for v in estimates)
        sizes.add(len(estimates))
    assert len(sizes) > 1  # the seeds cover more than one group count


def test_fit_parallel_matches_sequential(rng):
    panel = small_panel(rng, num_series=3, steps=15, missing=[(2, 6)])
    config = quick_config(chains=3, burnin=4)
    runs = [fit(panel, config), fit(panel, dataclasses.replace(config, threads=2))]
    payloads = [[json.dumps(state_payload(c)) for c in run.chains] for run in runs]
    stats = [json.dumps(run.provenance["chain_stats"]) for run in runs]
    assert payloads[0] == payloads[1]
    assert stats[0] == stats[1]
    for chain_stats in runs[0].provenance["chain_stats"]:
        assert chain_stats["smc_log_ml"]
        assert all(math.isfinite(v) for v in chain_stats["smc_log_ml"])


def test_chains_initialised_together_equal_chains_initialised_alone(rng, monkeypatch):
    """The chains share one particle set, each drawing from its own Generator
    as it would alone, so their states and Generators are byte-equal.  The
    SMC estimates may differ in the last bit: the step normalizers reduce
    over the set's width, and numpy sums 8 columns or more pairwise, in an
    order that the columns past a chain's own width move."""
    panel = small_panel(rng, num_series=5, steps=14, missing=[(1, 4), (3, 9)])
    config = quick_config(chains=6, burnin=0)
    seqs = np.random.SeedSequence(config.seed).spawn(config.chains)
    calls = []

    def counting(*args, _sample=engine.smc_block_sample):
        calls.append(len(args[0]))
        return _sample(*args)

    monkeypatch.setattr(engine, "smc_block_sample", counting)
    together = init_chains(panel, config, seqs)
    states = [state for state, _, _ in together]
    assert calls == [sum(len(state.groups) for state in states)]  # one set for all the chains
    assert len({len(state.groups) for state in states}) > 1
    assert len({max(len(g.members) for g in state.groups) for state in states}) > 1
    for seq, (state, chain_rng, smc_log_ml) in zip(seqs, together, strict=True):
        [(own, own_rng, own_log_ml)] = init_chains(panel, config, [seq])
        assert json.dumps(state_payload(state)) == json.dumps(state_payload(own))
        assert chain_rng.bit_generator.state == own_rng.bit_generator.state
        assert np.allclose(smc_log_ml, own_log_ml, rtol=1e-12, atol=0)


def test_smc_only_fit_with_threads_equals_sequential(rng):
    # initialisation runs in the calling process; two workers split five chains' sweeps
    panel = small_panel(rng, num_series=4, steps=12, missing=[(2, 5)])
    config = quick_config(chains=5, burnin=0)
    runs = [fit(panel, config), fit(panel, dataclasses.replace(config, threads=2))]
    payloads = [[json.dumps(state_payload(c)) for c in run.chains] for run in runs]
    stats = [json.dumps(run.provenance["chain_stats"]) for run in runs]
    assert payloads[0] == payloads[1]
    assert stats[0] == stats[1]


def test_in_memory_fit_queries_equal_a_reloaded_copy(rng, tmp_path):
    # the fit serves the chains run_sweeps built; a reload rebuilds them from the payload
    panel = small_panel(rng, num_series=3, missing=[(1, 7), (2, 15)])
    config = quick_config(chains=3, burnin=4)
    samples = fit(panel, config)
    path = tmp_path / "fit.json"
    save_sampleset(samples, config, path)
    loaded = load_sampleset(path)[0]
    for fitted, back in zip(samples.chains, loaded.chains, strict=True):
        assert pass_stats(fitted) == pass_stats(back)
    assert np.array_equal(forecast(samples, 3, 40, 5).draws, forecast(loaded, 3, 40, 5).draws)
    assert np.array_equal(impute(samples, 40, 5).draws, impute(loaded, 40, 5).draws)


def test_non_finite_joint_raises_with_state_payload(rng, monkeypatch):
    panel = small_panel(rng)
    monkeypatch.setattr(engine, "log_joint", lambda state: math.nan)
    config = quick_config(chains=1, burnin=2)
    with pytest.raises(NumericalError) as info:
        run_sweeps(*init_chains(panel, config, [np.random.SeedSequence(0)])[0], config)
    # the payload travels in the exception's arguments, which is what a worker pickles
    back = pickle.loads(pickle.dumps(info.value))
    assert str(back) == str(info.value)
    state_from_payload(back.args[1], panel).check_consistency()
