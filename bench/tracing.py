"""Spans around the layer entry points the engine reaches through module attributes.

The wrappers are installed from the benchmark's side only: they replace a
module attribute, time the call, link it to the enclosing span and hand the
call through unchanged.  They read no random state, so a traced fit must
produce the same chains, byte for byte, as an untraced one.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


def _sweep_z_name(args, kwargs) -> str:
    config = kwargs["config"] if "config" in kwargs else (args[4] if len(args) > 4 else None)
    return "mcmc.sweep_z." + ("full" if getattr(config, "full_mh", True) else "heuristic")


def _sweep_c_name(args, kwargs) -> str:
    heuristic = kwargs["heuristic"] if "heuristic" in kwargs else (args[2] if len(args) > 2 else False)
    return "structure.sweep_c." + ("heuristic" if heuristic else "full")


# (module, attribute, span name or a function of the call's arguments)
LAYERS = (
    ("trcrp.mcmc", "sweep_z", _sweep_z_name),
    ("trcrp.mcmc", "acceptance_log_ratio", "mcmc.acceptance_log_ratio"),
    ("trcrp.structure", "sweep_c", _sweep_c_name),
    ("trcrp.hypers", "hyper_sweep", "hypers.hyper_sweep"),
    ("trcrp.engine", "smc_block_sample", "smc.smc_block_sample"),
    ("trcrp.engine", "log_joint", "model.log_joint"),
    ("trcrp.smc", "smc_step", "smc.smc_step"),
    ("trcrp.smc", "maybe_resample", "smc.maybe_resample"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "result")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_time = 0.0
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by child spans (children never overlap)."""
        return self.duration - self.child_time


class Tracer:
    """In-memory span recorder; one tracer per traced operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, self._open[-1] if self._open else None)
        self.spans.append(record)
        self._open.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            if record.parent is not None:
                record.parent.child_time += record.duration

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as record:
                record.result = fn(*args, **kwargs)
            return record.result

        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        out: dict[str, dict] = {}
        for s in self.spans:
            entry = out.setdefault(s.name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += s.duration
            entry["self"] += s.self_time
        return out

    def results(self, name: str) -> list:
        return [s.result for s in self.spans if s.name == name]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer in :data:`LAYERS`; yields the names that do not exist."""
    patched = []
    absent = []
    try:
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, tracer.wrap(original, name))
            patched.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
