import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trcrp.conjugate import NigHyper, predictive_logpdf_raw
from trcrp.model import SeriesHypers
from trcrp.panel import TimeSeriesPanel


def make_panel(values, window, observed=None, names=None):
    """Panel from a plain (N, window+T) nested list; None marks missing."""
    arr = np.array(
        [[np.nan if v is None else float(v) for v in row] for row in values], dtype=float
    )
    if observed is None:
        observed = ~np.isnan(arr)
    else:
        observed = np.array(observed, dtype=bool)
    n = arr.shape[0]
    if names is None:
        names = tuple(f"s{i + 1}" for i in range(n))
    labels = tuple(f"{c:04d}" for c in range(arr.shape[1]))
    return TimeSeriesPanel(
        values=arr, observed=observed, window=window, series_names=tuple(names), raw_labels=labels
    )


def uniform_hypers(num_series, window, m=0.0, V=1.0, a=2.0, b=1.0):
    cell = NigHyper(m, V, a, b)
    return [SeriesHypers(cell, tuple(cell for _ in range(window))) for _ in range(num_series)]


def cell_logpdf(hyper, stats, x):
    """Predictive log density of ``x`` in a cell with NIG ``hyper`` and statistics ``stats``."""
    return predictive_logpdf_raw(
        hyper.m, hyper.V, hyper.a, hyper.b, stats.count, stats.sum, stats.sum_sq, x
    )


def hyper_tuples(hypers):
    """Convert SeriesHypers into the plain-tuple form the oracles use."""
    out = {}
    for n, sh in enumerate(hypers):
        em = (sh.emission.m, sh.emission.V, sh.emission.a, sh.emission.b)
        lags = [(h.m, h.V, h.a, h.b) for h in sh.cohesion]
        out[n] = (em, lags)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
