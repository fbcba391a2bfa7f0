"""Fit orchestration: chain schedules, parallel execution, SampleSet files.

A fit runs S independent chains.  Each chain initializes the outer partition
from its prior, block-samples every group's regime sequence with the particle
filter, runs always-accept sweeps for a few iterations, then full MH sweeps
interleaved with outer-cluster and griddy-Gibbs hyperparameter moves.  The
final state of each chain is one posterior sample.

All randomness derives from the single run seed: chain i uses the i-th spawn
of ``SeedSequence(seed)``, so results are identical, byte for byte, whether
chains run sequentially or across any number of worker processes.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import hypers as hypers_mod
from . import mcmc, structure
from .conjugate import NigHyper
from .model import (
    ChainState,
    SeriesHypers,
    crp_draw,
    log_joint,
    state_from_payload,
    state_payload,
)
from .panel import TimeSeriesPanel
from .predict import SampleSet
from .smc import NumericalError, smc_block_sample

__all__ = [
    "RunConfig",
    "config_hash",
    "fit",
    "run_chain",
    "save_sampleset",
    "load_sampleset",
    "SAMPLESET_SCHEMA_VERSION",
    "SchemaVersionError",
]

SAMPLESET_SCHEMA_VERSION = 3


class SchemaVersionError(ValueError):
    """SampleSet file written by an incompatible schema."""


@dataclass(frozen=True)
class RunConfig:
    """Sampler schedule and sizes.

    ``burnin`` sweeps run per chain; the final state is the chain's sample.
    The first ``init_sweeps`` regime sweeps always accept (initialization
    heuristic); hyperparameter sweeps fire every ``hyper_cadence``-th
    iteration, and 0 disables them.  ``fixed_hypers`` pins every NIG cell to
    one (m, V, a, b); the concentrations still move on the cadence.
    Validation messages start with the offending field's name.
    """

    window: int = 10
    chains: int = 64
    burnin: int = 5000
    particles: int = 64
    seed: int = 0
    threads: int = 1
    hierarchical: bool = True
    full_mh: bool = True
    init_sweeps: int = 10
    hyper_cadence: int = 1
    smc_init: bool = True
    fixed_hypers: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.window < 0:
            raise ValueError("window must be >= 0")
        for name in ("chains", "particles", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("burnin", "init_sweeps", "hyper_cadence"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def config_hash(config: RunConfig, extra: dict | None = None) -> str:
    payload = {"config": asdict(config)}
    if extra:
        payload["extra"] = extra
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_chain(panel: TimeSeriesPanel, config: RunConfig, seed_seq) -> tuple[dict, dict]:
    """Run one chain to completion; returns (state payload, chain stats).

    A non-finite final log joint raises :class:`NumericalError` whose second
    argument is the chain's state payload, so it survives a worker process.
    """
    rng = np.random.default_rng(seed_seq)
    grids = hypers_mod.build_grids(panel)
    if config.fixed_hypers is not None:
        cell = NigHyper(*config.fixed_hypers)
        series_hypers = [
            SeriesHypers(cell, tuple(cell for _ in range(panel.window)))
            for _ in range(panel.num_series)
        ]
    else:
        series_hypers = hypers_mod.initial_hypers(grids, panel.window)
    if config.hierarchical and panel.num_series > 1:
        assignments = crp_draw(panel.num_series, 1.0, rng)
    else:
        assignments = [1] * panel.num_series
    num_groups = max(assignments)
    state = ChainState.create(panel, 1.0, assignments, [1.0] * num_groups, series_hypers, rng)
    state.grids = grids

    for group in state.groups:
        if config.smc_init:
            z, _ = smc_block_sample(group, panel.values, panel.observed, config.particles, rng)
        else:
            z = [1] * panel.num_steps
        group.load_sequence(z, panel.values, panel.observed)

    accept_z = {"sites": 0, "accepted": 0, "moved": 0}
    accept_c = {"series": 0, "accepted": 0, "moved": 0}
    for sweep_idx in range(config.burnin):
        full = config.full_mh and sweep_idx >= config.init_sweeps
        cfg = mcmc.MhConfig(full_mh=full)
        for group in list(state.groups):
            stats = mcmc.sweep_z(group, state.values, state.observed, rng, cfg)
            for key in accept_z:
                accept_z[key] += stats[key]
        if config.hierarchical and panel.num_series > 1:
            stats = structure.sweep_c(state, rng, heuristic=not full)
            for key in accept_c:
                accept_c[key] += stats[key]
        if config.hyper_cadence and (sweep_idx + 1) % config.hyper_cadence == 0:
            hypers_mod.hyper_sweep(state, rng, nig_cells=config.fixed_hypers is None)

    joint = log_joint(state)
    if not math.isfinite(joint):
        raise NumericalError(f"non-finite log joint after fit: {joint}", state_payload(state))
    stats = {
        "log_joint": joint,
        "num_groups": len(state.groups),
        "accept_z": accept_z,
        "accept_c": accept_c,
    }
    return state_payload(state), stats


def fit(panel: TimeSeriesPanel, config: RunConfig) -> SampleSet:
    """Run all chains and assemble the sample set."""
    seed_seqs = np.random.SeedSequence(config.seed).spawn(config.chains)
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run_chain, [panel] * config.chains, [config] * config.chains, seed_seqs))
    else:
        results = [run_chain(panel, config, seq) for seq in seed_seqs]
    chains = [state_from_payload(payload, panel) for payload, _ in results]
    provenance = {
        "seed": config.seed,
        "burnin": config.burnin,
        "schedule": {
            "smc_init": config.smc_init,
            "init_sweeps": config.init_sweeps,
            "full_mh": config.full_mh,
            "hyper_cadence": config.hyper_cadence,
            "hierarchical": config.hierarchical,
        },
        "chain_stats": [stats for _, stats in results],
    }
    return SampleSet(panel=panel, chains=chains, provenance=provenance)


# -- files -----------------------------------------------------------------------


def panel_payload(panel: TimeSeriesPanel) -> dict:
    values = [
        [float(panel.values[n, c]) if panel.observed[n, c] else None
         for c in range(panel.values.shape[1])]
        for n in range(panel.num_series)
    ]
    return {
        "window": panel.window,
        "series_names": list(panel.series_names),
        "time_labels": list(panel.raw_labels),
        "values": values,
    }


def panel_from_payload(payload: dict) -> TimeSeriesPanel:
    raw = payload["values"]
    values = np.array(
        [[math.nan if v is None else float(v) for v in row] for row in raw], dtype=float
    )
    observed = np.array([[v is not None for v in row] for row in raw], dtype=bool)
    return TimeSeriesPanel(
        values=values,
        observed=observed,
        window=payload["window"],
        series_names=tuple(payload["series_names"]),
        raw_labels=tuple(payload["time_labels"]),
    )


def save_sampleset(samples: SampleSet, config: RunConfig, path) -> str:
    """Write the versioned SampleSet JSON; returns the config hash."""
    digest = config_hash(config)
    doc = {
        "schema_version": SAMPLESET_SCHEMA_VERSION,
        "config_hash": digest,
        "config": asdict(config),
        "panel": panel_payload(samples.panel),
        "chains": [state_payload(chain) for chain in samples.chains],
        "provenance": samples.provenance,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return digest


def load_sampleset(path) -> tuple[SampleSet, RunConfig, str]:
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != SAMPLESET_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"sample set schema {version!r} unsupported (expected {SAMPLESET_SCHEMA_VERSION})"
        )
    panel = panel_from_payload(doc["panel"])
    chains = [state_from_payload(entry, panel) for entry in doc["chains"]]
    known = {f.name for f in fields(RunConfig)}
    if not isinstance(doc["config"], dict) or not set(doc["config"]) <= known:
        raise ValueError(f"config must be an object with keys among {sorted(known)}")
    config = RunConfig(**{
        key: tuple(value) if key == "fixed_hypers" and value is not None else value
        for key, value in doc["config"].items()
    })
    samples = SampleSet(panel=panel, chains=chains, provenance=doc.get("provenance", {}))
    return samples, config, doc["config_hash"]
