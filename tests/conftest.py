import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trcrp.conjugate import NigHyper, predictive_logpdf_raw
from trcrp.model import GroupModel, SeriesHypers, hyper_array
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


def uniform_series_hypers(num_series, window, m=0.0, V=1.0, a=2.0, b=1.0):
    """One NIG cell for every series and offset, as the :class:`SeriesHypers`
    list that ``simulate`` takes."""
    cell = NigHyper(m, V, a, b)
    return [SeriesHypers(cell, tuple(cell for _ in range(window))) for _ in range(num_series)]


def uniform_hypers(num_series, window, m=0.0, V=1.0, a=2.0, b=1.0):
    """One NIG cell for every series and offset, as a chain's (N, p+1, 4) hypers array."""
    return hyper_array(uniform_series_hypers(num_series, window, m, V, a, b))


def cell_logpdf(hyper, stats, x):
    """Predictive log density of ``x`` in a cell with NIG ``hyper`` and statistics ``stats``."""
    return predictive_logpdf_raw(
        hyper.m, hyper.V, hyper.a, hyper.b, stats.count, stats.sum, stats.sum_sq, x
    )


def hyper_tuples(hypers):
    """Convert a (N, p+1, 4) hypers array into the plain-tuple form the oracles use."""
    return {
        n: (tuple(cells[0]), [tuple(cell) for cell in cells[1:]])
        for n, cells in enumerate(np.asarray(hypers).tolist())
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# the data and missing-data patterns that every fit should handle
ROBUSTNESS_PANELS = (
    "scaled", "random_missing", "block_missing", "constant", "all_missing", "window_0", "single",
)


def robustness_panel(kind, seed=0, num_series=3, steps=24, window=2):
    """A panel of ``kind`` from :data:`ROBUSTNESS_PANELS`, from seeded normal draws.

    ``scaled`` multiplies the data by 1e3 and offsets it; ``random_missing``
    hides about 20% of the modelled cells at random and ``block_missing``
    about 15% in runs; ``constant`` makes one series constant and
    ``all_missing`` hides every modelled cell of one series (a panel's
    prefix is always observed);
    ``window_0`` has no lags and ``single`` one series.  Every kind hides
    some modelled cell: ``scaled``, ``constant``, ``window_0`` and
    ``single`` hide series 0's at mid-panel.
    """
    gen = np.random.default_rng(seed)
    window = 0 if kind == "window_0" else window
    num_series = 1 if kind == "single" else num_series
    values = gen.normal(size=(num_series, window + steps)).cumsum(axis=1)
    observed = np.ones(values.shape, dtype=bool)
    if kind == "scaled":
        values = 1e3 * values + 4321.5
    elif kind == "random_missing":
        observed[:, window:] = gen.random((num_series, steps)) >= 0.2
    elif kind == "block_missing":
        observed[0, window + 3 : window + 10] = False
        observed[2, window + 14 : window + 18] = False
    elif kind == "constant":
        values[1] = 2.5
    elif kind == "all_missing":
        observed[1, window:] = False
    if kind in ("scaled", "constant", "window_0", "single"):
        observed[0, window + steps // 2] = False
    return make_panel(np.where(observed, values, np.nan).tolist(), window, observed)


def assert_resting(groups):
    """Fail unless every group holds its members, concentration, sequence and
    hypers and nothing else: no statistics and no Student-T forms."""
    for group in groups:
        assert type(group) is GroupModel and not hasattr(group, "__dict__")
        held = {name for name in GroupModel.__slots__ if hasattr(group, name)}
        assert held == {"members", "alpha", "num_steps", "window", "hypers", "regimes"}
