"""Fit orchestration: chain schedules, parallel execution, SampleSet files.

A fit runs S independent chains in two phases.  Initialisation
(:func:`init_chains`) runs in the calling process for all the chains: each
draws its outer partition from the prior, and one particle filter
block-samples the regime sequences of the groups of a run of chains at once.
Then each chain's sweeps (:func:`run_sweeps`), sequentially or in worker
processes, run ``init_sweeps`` always-accept sweeps, then full MH sweeps,
each followed by outer-cluster and griddy-Gibbs hyperparameter moves.  The
final state of each chain is one posterior sample; a SampleSet
file holds them with the panel, the :class:`RunConfig` and each chain's
statistics.  The file stores each fact once: the config's ``window`` and
``chains`` are the panel's window and the chain count, and its hash
(:func:`sampleset_hash`, over the panel and the config) is recomputed on load.

All randomness derives from the single run seed: chain i uses the i-th spawn
of ``SeedSequence(seed)`` for its partition, its filter draws and then its
sweeps, and the initialisation never depends on the number of workers, so
results are identical, byte for byte, whether the sweeps run sequentially or
across any number of worker processes.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import hypers as hypers_mod
from . import mcmc, smc, structure
from .conjugate import LgammaTable, NigHyper
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
    "panel_digest",
    "sampleset_hash",
    "fit",
    "init_chains",
    "run_sweeps",
    "save_sampleset",
    "load_sampleset",
    "SAMPLESET_SCHEMA_VERSION",
    "SchemaVersionError",
]

SAMPLESET_SCHEMA_VERSION = 5


class SchemaVersionError(ValueError):
    """SampleSet file written by an incompatible schema."""


@dataclass(frozen=True)
class RunConfig:
    """Sampler schedule and sizes.

    ``burnin`` sweeps run per chain; the final state is the chain's sample.
    The first ``init_sweeps`` sweeps always accept their regime and outer
    moves (initialization heuristic), and every later sweep is full MH, so
    ``init_sweeps >= burnin`` gives a heuristic-only fit.  Hyperparameter
    sweeps fire every ``hyper_cadence``-th iteration, and 0 disables them.
    ``fixed_hypers`` pins every NIG cell to one valid (m, V, a, b); the
    concentrations still move on the cadence.  ``window`` must equal the
    fitted panel's.  Validation messages start with the offending field's
    name.  ``threads`` worker processes run the chains' sweeps; the
    chains are initialised in the calling process whatever it is.
    """

    window: int = 10
    chains: int = 64
    burnin: int = 5000
    particles: int = 64
    seed: int = 0
    threads: int = 1
    hierarchical: bool = True
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
        if self.fixed_hypers is not None:
            try:
                NigHyper(*self.fixed_hypers)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"fixed_hypers must be one NIG cell (m, V, a, b): {exc}") from None


def config_hash(**parts) -> str:
    """First 16 hex digits of the sha256 of ``parts`` as sorted-key JSON."""
    blob = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def panel_digest(panel: TimeSeriesPanel) -> str:
    """The sha256 hex digest of a panel's array bytes (values with 0 at the
    missing cells, then the mask), then its window, series names and raw labels."""
    digest = hashlib.sha256(np.where(panel.observed, panel.values, 0.0).tobytes())
    digest.update(panel.observed.tobytes())
    digest.update(json.dumps([panel.window, panel.series_names, panel.raw_labels]).encode())
    return digest.hexdigest()


def sampleset_hash(panel: TimeSeriesPanel, config: RunConfig) -> str:
    """The hash of a fit: every config field but ``threads``, and the
    :func:`panel_digest`."""
    stored = asdict(config)
    del stored["threads"]  # chains are identical whatever the number of workers
    return config_hash(config=stored, panel=panel_digest(panel))


def _set_entries(groups, num_particles: int) -> int:
    """Particle-cell entries of one particle set over ``groups``: each particle
    holds its own group's lag and emission cells, J x sum of members x (p+1)."""
    return num_particles * sum(len(group.members) * (group.window + 1) for group in groups)


def _batches(chains, num_particles: int) -> list[list]:
    """Runs of consecutive ``chains``, ``(state, ...)`` entries, whose groups share a set.

    A chain joins the run before it while the set stays within
    :data:`~trcrp.smc.SET_ENTRIES` entries (:func:`_set_entries`), the
    (particle, cell) pairs its groups hold; a chain above that is a run of
    its own.
    """
    runs = []
    for chain in chains:
        if runs:
            groups = [group for state, *_ in [*runs[-1], chain] for group in state.groups]
            if _set_entries(groups, num_particles) <= smc.SET_ENTRIES:
                runs[-1].append(chain)
                continue
        runs.append([chain])
    return runs


def init_chains(panel: TimeSeriesPanel, config: RunConfig, seed_seqs) -> list[tuple]:
    """Initialise one chain per seed sequence; returns ``(state, rng, smc_log_ml)`` each.

    This phase runs in the calling process for all the chains of a fit, so
    it does not depend on ``config.threads``.  The chains share one build of
    the :class:`~trcrp.hypers.Grids` and one lgamma table over T steps
    (``state.lgamma``), and start from equal hypers, each in its own list.
    Chain i's Generator, ``default_rng(seed_seqs[i])``, draws its outer
    partition from the CRP, then its groups' regime sequences.  Given the
    partitions the groups are independent, so one
    :func:`~trcrp.smc.smc_block_sample` call filters the groups of a run of
    chains (:func:`_batches`) as one particle set, each chain drawing from
    its own Generator as it would alone.  ``smc_log_ml`` holds the chain's
    log marginal-likelihood estimates in the order of its groups.
    """
    grids = hypers_mod.build_grids(panel)
    if config.fixed_hypers is not None:
        cell = NigHyper(*config.fixed_hypers)
        series_hypers = [
            SeriesHypers(cell, tuple(cell for _ in range(panel.window)))
            for _ in range(panel.num_series)
        ]
    else:
        series_hypers = hypers_mod.initial_hypers(grids, panel.window)
    lgamma = LgammaTable(panel.num_steps)
    chains = []
    for seq in seed_seqs:
        rng = np.random.default_rng(seq)
        if config.hierarchical and panel.num_series > 1:
            assignments = crp_draw(panel.num_series, 1.0, rng)
        else:
            assignments = [1] * panel.num_series
        state = ChainState.create(panel, 1.0, assignments, [1.0] * max(assignments), series_hypers)
        state.grids, state.lgamma = grids, lgamma
        chains.append((state, rng, []))

    if not config.smc_init:
        for state, _, _ in chains:
            for group in state.groups:
                group.load_sequence([1] * panel.num_steps)
        return chains
    values, observed = panel.values, panel.observed
    for run in _batches(chains, config.particles):
        groups = [group for state, _, _ in run for group in state.groups]
        rngs = [rng for state, rng, _ in run for _ in state.groups]
        draws = iter(smc_block_sample(groups, values, observed, lgamma, config.particles, rngs))
        for state, _, smc_log_ml in run:
            for group in state.groups:
                z, log_ml = next(draws)
                group.load_sequence(z)
                smc_log_ml.append(log_ml)
    return chains


def run_sweeps(state: ChainState, rng, smc_log_ml, config: RunConfig) -> tuple[ChainState, dict]:
    """Run an initialised chain's sweeps; returns (final state, chain stats).

    ``state``, ``rng`` and ``smc_log_ml`` are one entry of
    :func:`init_chains`.  A non-finite final log joint raises
    :class:`NumericalError` whose second argument is the chain's state
    payload, so it survives a worker process.  The returned state's
    ``grids`` and lgamma rows are dropped, so a worker does not send them back.
    """
    panel = state.panel
    accept_z = {"sites": 0, "accepted": 0, "moved": 0}
    accept_c = {"series": 0, "accepted": 0, "moved": 0}
    for sweep_idx in range(config.burnin):
        full = sweep_idx >= config.init_sweeps
        cfg = mcmc.MhConfig(full_mh=full)
        for group in list(state.groups):
            stats = mcmc.sweep_z(group, state.values, state.observed, rng, cfg, state.lgamma)
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
        "accept_z": accept_z,
        "accept_c": accept_c,
        "smc_log_ml": smc_log_ml,
    }
    state.grids, state.lgamma = None, LgammaTable(panel.num_steps)
    return state, stats


def fit(panel: TimeSeriesPanel, config: RunConfig) -> SampleSet:
    """Initialise all chains here, run their sweeps, and assemble the sample set.

    With ``threads > 1`` the sweeps of the chains run across that many
    worker processes; the initialisation never does, so a fit's chains are
    the same whatever ``threads`` is.
    """
    if config.window != panel.window:
        raise ValueError(f"config window {config.window} != panel window {panel.window}")
    seed_seqs = np.random.SeedSequence(config.seed).spawn(config.chains)
    chains = init_chains(panel, config, seed_seqs)
    args = [*zip(*chains), [config] * config.chains]
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run_sweeps, *args))
    else:
        results = list(map(run_sweeps, *args))
    chains = [state for state, _ in results]
    provenance = {"chain_stats": [stats for _, stats in results]}
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
    """Write the versioned SampleSet JSON; returns its :func:`sampleset_hash`.

    ``config`` is the one the samples were fitted with.  It is stored without
    ``window`` and ``chains``, which the panel and the chain list give.
    """
    stored = asdict(config)
    del stored["window"], stored["chains"]
    doc = {
        "schema_version": SAMPLESET_SCHEMA_VERSION,
        "config": stored,
        "panel": panel_payload(samples.panel),
        "chains": [state_payload(chain) for chain in samples.chains],
        "provenance": samples.provenance,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return sampleset_hash(samples.panel, config)


def _stored_config(stored) -> dict:
    """The stored config's fields as :class:`RunConfig` takes them.

    Every key must be a field other than ``window`` and ``chains``, and every
    value must have its field's JSON type: an integer (not a bool) for the
    sizes and the seed, a bool for the switches, and null or four numbers for
    ``fixed_hypers``.
    """
    defaults = {f.name: f.default for f in fields(RunConfig)}
    del defaults["window"], defaults["chains"]
    if not isinstance(stored, dict) or not set(stored) <= set(defaults):
        raise ValueError(f"config must be an object with keys among {sorted(defaults)}")
    for key, value in stored.items():
        if key == "fixed_hypers":
            ok = value is None or (
                isinstance(value, list) and len(value) == 4
                and all(type(v) in (int, float) for v in value)  # JSON numbers, not bools
            )
        else:
            ok = type(value) is type(defaults[key])
        if not ok:
            raise ValueError(f"malformed sample set: config {key} has the wrong type: {value!r}")
    if stored.get("fixed_hypers") is not None:
        return dict(stored, fixed_hypers=tuple(stored["fixed_hypers"]))
    return stored


def load_sampleset(path) -> tuple[SampleSet, RunConfig, str]:
    """Read a SampleSet file; returns the samples, their config and its hash.

    The config is rebuilt with the panel's window and the chain count, and the
    hash is the :func:`sampleset_hash` of the panel and config, as
    :func:`save_sampleset` returns it.  Malformed content
    raises ``ValueError`` (a :class:`SchemaVersionError` for another schema)
    or ``KeyError``; a config value of the wrong type is a ``ValueError``.  A
    field of the wrong JSON type elsewhere fails inside the decoding with a
    ``TypeError`` or ``AttributeError``, which is raised again as
    ``ValueError``.
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        version = doc.get("schema_version")
        if version != SAMPLESET_SCHEMA_VERSION:
            raise SchemaVersionError(
                f"sample set schema {version!r} unsupported (expected {SAMPLESET_SCHEMA_VERSION})"
            )
        panel = panel_from_payload(doc["panel"])
        cells = {}  # every distinct NIG cell of the file, built once
        chains = [state_from_payload(entry, panel, cells) for entry in doc["chains"]]
        config = RunConfig(window=panel.window, chains=len(chains), **_stored_config(doc["config"]))
        samples = SampleSet(panel=panel, chains=chains, provenance=doc.get("provenance", {}))
        return samples, config, sampleset_hash(panel, config)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed sample set: {exc}") from None
