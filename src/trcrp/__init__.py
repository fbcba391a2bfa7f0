"""Temporally-reweighted CRP mixtures for multivariate time series.

Posterior inference by collapsed MCMC and particle-learning SMC; predictive
operations for forecasting, imputation, and dependence-structure discovery.
"""

from .conjugate import NigHyper, NigStats
from .panel import PanelError, TimeSeriesPanel, load_csv, write_csv

__version__ = "0.1.0"

__all__ = [
    "NigHyper",
    "NigStats",
    "TimeSeriesPanel",
    "PanelError",
    "load_csv",
    "write_csv",
    "__version__",
]
