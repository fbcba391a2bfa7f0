"""Repetitions, output checks and metrics for one benchmark run.

A repetition builds a fresh panel, fits it, saves and reloads the sample
set, then forecasts and imputes from the reloaded copy, the path a user of
``trcrp fit`` / ``forecast`` / ``impute`` takes.  Repetitions continue until
the run's time is spent.  Every operation is timed with :class:`speed.Stopwatch`,
so times are seconds at nominal machine speed.

An untraced run reports the end-to-end metrics as trimmed means over
repetitions.  A traced run fits each panel twice, once untraced and once with
the layer wrappers of :mod:`tracing` installed, requires byte-identical chain
payloads, and reports per-layer metrics: times as medians over repetitions,
counts, ratios and the drift canary from repetition 0, whose inputs depend
on the seed alone.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from trcrp import conjugate, engine, predict
from trcrp.conjugate import NigHyper, NigStats
from trcrp.hypers import build_grids, initial_hypers
from trcrp.model import log_joint, state_payload

from speed import Stopwatch
from tracing import Tracer, installed
from workloads import Workload, build_panel


class OutputError(AssertionError):
    """An operation returned without raising, but its output is wrong."""


class Ledger:
    """Counts attempted and failed operations; a failure ends its repetition."""

    def __init__(self, watch: Stopwatch):
        self.watch = watch
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, name: str, fn, *args, check=None):
        """Time ``fn(*args)``, then check its output; returns (scaled seconds, output) or None."""
        self.attempted += 1
        try:
            elapsed, out = self.watch.time(fn, *args)
            if check is not None:
                check(out)
        except Exception as exc:  # a failing operation is counted; the run goes on
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        return elapsed, out

    def skip(self, count: int) -> None:
        """Operations a failed repetition never reached count as failed."""
        self.attempted += count
        self.failed += count


# -- output checks -------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def _payload_bytes(samples) -> bytes:
    return json.dumps([state_payload(c) for c in samples.chains], sort_keys=True).encode()


def check_fit(samples, config) -> None:
    _require(samples.num_chains == config.chains, "wrong chain count")
    for chain, stats in zip(samples.chains, samples.provenance["chain_stats"]):
        chain.check_consistency()
        _require(math.isfinite(stats["log_joint"]), f"non-finite log joint {stats['log_joint']}")


def check_loaded(fitted, loaded) -> None:
    _require(_payload_bytes(loaded) == _payload_bytes(fitted), "reloaded chains differ")
    for chain, stats in zip(loaded.chains, fitted.provenance["chain_stats"]):
        value = log_joint(chain)
        _require(math.isfinite(value), f"non-finite log joint {value}")
        drift = abs(value - stats["log_joint"])
        _require(drift <= 1e-9 * max(1.0, abs(value)), f"reloaded log joint off by {drift}")


def check_forecast(result, panel, workload: Workload) -> None:
    shape = (workload.forecast_draws, panel.num_series, workload.horizon)
    _require(result.draws.shape == shape, f"forecast shape {result.draws.shape} != {shape}")
    _require(bool(np.isfinite(result.draws).all()), "non-finite forecast draw")


def check_impute(result, panel, workload: Workload) -> None:
    cells = panel.missing_cells()
    _require(result.cells == cells, "imputed cells differ from the panel's missing cells")
    shape = (len(cells), workload.impute_draws)
    _require(result.draws.shape == shape, f"imputation shape {result.draws.shape} != {shape}")
    _require(bool(np.isfinite(result.draws).all()), "non-finite imputation draw")


# -- one repetition ------------------------------------------------------------


QUERY_OPS = ("save", "load", "forecast", "impute")


def _in_span(tracer, name: str, fn):
    """``fn`` recorded as span ``name`` when tracing; the output check stays outside."""
    if tracer is None:
        return fn

    def call(*args):
        with tracer.span(name):
            return fn(*args)

    return call


def _queries(ledger, workload, panel, samples, config, seed, path, tracer=None):
    """Save, reload, forecast and impute; returns {op: seconds} for the ops that ran."""
    times = {}
    save = _in_span(tracer, "engine.save_sampleset", engine.save_sampleset)
    done = ledger.run("save", save, samples, config, path)
    if done is None:
        ledger.skip(3)
        return times
    times["save"] = done[0]
    load = _in_span(tracer, "engine.load_sampleset", engine.load_sampleset)
    done = ledger.run("load", load, path, check=lambda out: check_loaded(samples, out[0]))
    if done is None:
        ledger.skip(2)
        return times
    times["load"] = done[0]
    loaded = done[1][0]
    forecast = _in_span(tracer, "predict.forecast", predict.forecast)
    done = ledger.run(
        "forecast",
        forecast,
        loaded,
        workload.horizon,
        workload.forecast_draws,
        seed,
        check=lambda out: check_forecast(out, panel, workload),
    )
    if done is not None:
        times["forecast"] = done[0]
    impute = _in_span(tracer, "predict.impute", predict.impute)
    done = ledger.run(
        "impute",
        impute,
        loaded,
        workload.impute_draws,
        seed,
        check=lambda out: check_impute(out, panel, workload),
    )
    if done is not None:
        times["impute"] = done[0]
    return times


def untraced_rep(ledger, workload, seed, rep, path) -> dict:
    setup, panel = ledger.watch.time(build_panel, workload, seed, rep)
    times = {"setup": setup}
    config = workload.config(seed, rep)
    done = ledger.run("fit", engine.fit, panel, config, check=lambda s: check_fit(s, config))
    if done is None:
        ledger.skip(len(QUERY_OPS))
        return times
    times["fit"] = done[0]
    times.update(_queries(ledger, workload, panel, done[1], config, seed, path))
    return times


def traced_rep(ledger, workload, seed, rep, path):
    """Untraced and traced fits of the same inputs, then traced queries.

    The two fits alternate order between repetitions so that neither always
    runs with warm caches.  Returns (untraced fit seconds or None, traced
    fit seconds or None, tracer, traced samples or None, panel, absent
    layers); fit seconds are scaled to nominal speed, spans are not.
    """
    panel = build_panel(workload, seed, rep)
    config = workload.config(seed, rep)
    tracer = Tracer()
    absent: list[str] = []

    def plain_fit():
        return ledger.run("fit", engine.fit, panel, config, check=lambda s: check_fit(s, config))

    def traced_fit():
        with installed(tracer) as missing:
            absent.extend(missing)
            fit = _in_span(tracer, "engine.fit", engine.fit)
            return ledger.run("traced fit", fit, panel, config, check=lambda s: check_fit(s, config))

    if rep % 2 == 0:
        plain, traced = plain_fit(), traced_fit()
    else:
        traced, plain = traced_fit(), plain_fit()
    plain_s = plain[0] if plain is not None else None
    traced_s = traced[0] if traced is not None else None
    if plain is None or traced is None:
        ledger.skip(1 + len(QUERY_OPS))
        return plain_s, traced_s, tracer, None, panel, absent
    same = ledger.run(
        "traced payload",
        lambda: _payload_bytes(traced[1]) == _payload_bytes(plain[1]),
        check=lambda equal: _require(equal, "traced chains differ from untraced"),
    )
    if same is None:
        ledger.skip(len(QUERY_OPS))
        return plain_s, traced_s, tracer, None, panel, absent
    _queries(ledger, workload, panel, traced[1], config, seed, path, tracer)
    return plain_s, traced_s, tracer, traced[1], panel, absent


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_times(tracer: Tracer, workload: Workload, panel, factor: float) -> dict:
    """Per-repetition layer times (seconds unless the name says otherwise) and shares.

    Times are divided by ``factor``, the repetition's measured-over-nominal
    machine speed; shares are ratios of times measured together.
    """
    t = tracer.totals()

    def get(name, key="self"):
        value = t.get(name, {}).get(key, 0.0)
        return value if key == "calls" else value / factor

    fit = get("engine.fit", "total")
    mcmc = get("mcmc.sweep_z.full") + get("mcmc.sweep_z.heuristic") + get("mcmc.acceptance_log_ratio")
    structure = get("structure.sweep_c.full") + get("structure.sweep_c.heuristic")
    smc = get("smc.smc_block_sample") + get("smc.smc_step") + get("smc.maybe_resample")
    alr_calls = get("mcmc.acceptance_log_ratio", "calls")
    step_calls = get("smc.smc_step", "calls")
    cell_draws = len(panel.missing_cells()) * workload.impute_draws
    out = {
        "hypers.hyper_sweep.s": get("hypers.hyper_sweep"),
        "mcmc.sweep_z.full.s": get("mcmc.sweep_z.full"),
        "mcmc.sweep_z.heuristic.s": get("mcmc.sweep_z.heuristic"),
        "structure.sweep_c.full.s": get("structure.sweep_c.full"),
        "structure.sweep_c.heuristic.s": get("structure.sweep_c.heuristic"),
        "smc.smc_block_sample.s": get("smc.smc_block_sample"),
        "smc.maybe_resample.s": get("smc.maybe_resample"),
        "model.log_joint.s": get("model.log_joint"),
        "engine.save_sampleset.s": get("engine.save_sampleset"),
        "engine.load_sampleset.s": get("engine.load_sampleset"),
        "predict.forecast.ms_per_draw": 1e3 * _ratio(get("predict.forecast"), workload.forecast_draws),
        "predict.impute.us_per_cell_draw": 1e6 * _ratio(get("predict.impute"), cell_draws),
        "hypers.fit_share": _ratio(get("hypers.hyper_sweep"), fit),
        "mcmc.fit_share": _ratio(mcmc, fit),
        "structure.fit_share": _ratio(structure, fit),
        "smc.fit_share": _ratio(smc, fit),
        "model.fit_share": _ratio(get("model.log_joint"), fit),
    }
    # per-call times only where the layer was called
    if alr_calls:
        out["mcmc.acceptance_log_ratio.ms"] = 1e3 * get("mcmc.acceptance_log_ratio", "total") / alr_calls
    if step_calls:
        out["smc.smc_step.ms"] = 1e3 * get("smc.smc_step", "total") / step_calls
    return out


def layer_counts(tracer: Tracer, samples, path: Path) -> dict:
    """Work counts, useful-outcome ratios and the drift canary of one repetition."""
    t = tracer.totals()

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    full_z = tracer.results("mcmc.sweep_z.full")
    sites = sum(r["sites"] for r in full_z)
    moved = sum(r["moved"] for r in full_z)
    proposals = moved + sites - sum(r["accepted"] for r in full_z)
    full_c = tracer.results("structure.sweep_c.full")
    c_moved = sum(r["moved"] for r in full_c)
    c_proposals = c_moved + sum(r["series"] - r["accepted"] for r in full_c)
    steps = calls("smc.smc_step")
    resamples = sum(1 for r in tracer.results("smc.maybe_resample") if r)
    groups = [g for chain in samples.chains for g in chain.groups]
    joints = [s["log_joint"] for s in samples.provenance["chain_stats"]]
    return {
        "hypers.hyper_sweep.calls": calls("hypers.hyper_sweep"),
        "mcmc.sweep_z.calls": calls("mcmc.sweep_z.full") + calls("mcmc.sweep_z.heuristic"),
        "mcmc.acceptance_log_ratio.calls": calls("mcmc.acceptance_log_ratio"),
        "mcmc.mh_accept_ratio": _ratio(moved, proposals),
        "mcmc.move_rate": _ratio(moved, sites),
        "structure.accept_ratio": _ratio(c_moved, c_proposals),
        "smc.smc_step.calls": steps,
        "smc.resample_ratio": _ratio(resamples, steps),
        "model.groups": _ratio(len(groups), samples.num_chains),
        "model.regimes_per_group": _ratio(sum(g.regimes.num_regimes for g in groups), len(groups)),
        "model.final_log_joint": statistics.fmean(joints),
        "engine.sampleset_bytes": path.stat().st_size,
    }


def kernel_ns(watch: Stopwatch, panel, seed: int, size: int = 2048, passes: int = 5) -> dict:
    """Nanoseconds per call of the conjugate kernels on a fixed batch drawn from the panel."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    cells = initial_hypers(build_grids(panel), panel.window)
    raw_args, marginal_args = [], []
    for _ in range(size):
        n = int(rng.integers(panel.num_series))
        xs = panel.values[n][panel.observed[n]]
        count = int(rng.integers(len(xs)))
        lo = int(rng.integers(len(xs) - count + 1))
        seg = xs[lo : lo + count]
        h = cells[n].emission
        stats = NigStats(count, float(seg.sum()), float((seg * seg).sum()))
        x = float(xs[rng.integers(len(xs))])
        raw_args.append((h.m, h.V, h.a, h.b, stats.count, stats.sum, stats.sum_sq, x))
        marginal_args.append((NigHyper(h.m, h.V, h.a, h.b), stats))
    out = {}
    for name, args in (("predictive_logpdf_raw", raw_args), ("marginal_loglik", marginal_args)):
        fn = getattr(conjugate, name, None)
        if fn is None:
            print(f"layer absent: trcrp.conjugate.{name}", file=sys.stderr)
            out[f"conjugate.{name}.ns"] = 0.0
            continue
        def one_pass():
            for a in args:
                fn(*a)

        # the first pass fills the lgamma cache and is dropped
        per_pass = [watch.time(one_pass)[0] * 1e9 / size for _ in range(passes + 1)]
        out[f"conjugate.{name}.ns"] = statistics.median(per_pass[1:])
    return out


# -- a run -----------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _trimmed_mean(values, cut: float = 0.2) -> float:
    """Mean of the middle values, dropping ``cut`` of them at each end.

    Repetitions fit different panels, so their times spread with the work
    each panel needs.  In runs resampled from 100 repetitions this estimate
    of fit time varied up to 25% less than the median, and unlike the mean
    it ignores a stray slow repetition.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k : len(ordered) - k])


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Repeat until ``seconds`` have passed; returns correct/attempted/failed/metrics."""
    ledger = Ledger(Stopwatch())
    deadline = time.perf_counter() + seconds
    rep = 0
    series: dict[str, list] = {}
    extra: dict = {}
    absent_layers: set[str] = set()
    first_rep_rss_mb = 0.0
    while rep == 0 or time.perf_counter() < deadline:
        path = workdir / f"rep{rep}.json"
        if not trace:
            for op, value in untraced_rep(ledger, workload, seed, rep, path).items():
                series.setdefault(op, []).append(value)
        else:
            first = len(ledger.watch.factors)
            plain, traced, tracer, fitted, panel, absent = traced_rep(ledger, workload, seed, rep, path)
            absent_layers.update(absent)
            if plain is not None and traced is not None:
                series.setdefault("overhead", []).append(traced / plain - 1.0)
            if fitted is not None:
                factor = statistics.median(ledger.watch.factors[first:])
                for name, value in layer_times(tracer, workload, panel, factor).items():
                    series.setdefault(name, []).append(value)
                if rep == 0:
                    extra.update(layer_counts(tracer, fitted, path))
                    extra.update(kernel_ns(ledger.watch, panel, seed))
        if path.exists():
            path.unlink()
        if rep == 0:
            # A user's process fits and queries one panel.  Later repetitions
            # only add entries to the package's process-wide lgamma cache, so
            # the peak after them depends on how many fit in the run.
            first_rep_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rep += 1

    for line in ledger.errors:
        print(f"failed: {line}", file=sys.stderr)
    for name in sorted(absent_layers):
        print(f"layer absent: {name}", file=sys.stderr)
    speed_factor = statistics.median(ledger.watch.factors)
    print(f"{workload.name}: {rep} repetitions, machine at 1/{speed_factor:.3f} of nominal speed", file=sys.stderr)

    if not trace:
        metrics = {
            f"{op}_s": _trimmed_mean(series.get(op, []))
            for op in ("setup", "fit", "load", "forecast", "impute")
        }
        metrics["peak_rss_mb"] = first_rep_rss_mb
    else:
        metrics = {name: _median(values) for name, values in series.items() if name != "overhead"}
        for name in ("mcmc.acceptance_log_ratio.ms", "smc.smc_step.ms"):
            metrics.setdefault(name, 0.0)
        metrics["bench.trace_overhead"] = _median(series.get("overhead", []))
        metrics["bench.speed_factor"] = speed_factor
        metrics.update(extra)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
