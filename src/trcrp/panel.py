"""Observed data: panel construction, missingness bookkeeping, CSV I/O.

A panel holds N aligned discrete-time series over a shared clock.  The first
``window`` rows of the input are the conditioning prefix (times -p+1 .. 0) and
must be fully observed; modeling starts at time 1.  Storage is dense with an
explicit observation mask; a missing cell is NaN + mask False.

Time indexing convention used throughout the package: time t in -p+1 .. T maps
to column p + t - 1 of the (N, p+T) arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PanelError", "TimeSeriesPanel", "load_csv", "write_csv"]


class PanelError(ValueError):
    """Raised on malformed input data."""


@dataclass(frozen=True)
class TimeSeriesPanel:
    """Immutable N-series panel with a fixed conditioning prefix of length ``window``.

    ``values`` and ``observed`` have shape (N, window + num_steps); both arrays
    are marked read-only so a panel can be shared across concurrent chains.
    ``time_labels`` covers the modeled steps only; ``raw_labels`` includes the
    prefix rows and is what round-trips through CSV.
    """

    values: np.ndarray
    observed: np.ndarray
    window: int
    series_names: tuple[str, ...]
    raw_labels: tuple[str, ...]

    def __post_init__(self):
        n, cols = self.values.shape
        if self.window < 0:
            raise PanelError(f"window must be non-negative, got {self.window}")
        if n < 1:
            raise PanelError("panel needs at least one series")
        if cols <= self.window:
            raise PanelError(
                f"need at least one modeled step: {cols} rows, window {self.window}"
            )
        if self.observed.shape != self.values.shape:
            raise PanelError("values and observed shapes differ")
        if len(self.series_names) != n:
            raise PanelError("series_names length mismatch")
        if len(self.raw_labels) != cols:
            raise PanelError("time label count mismatch")
        if len(set(self.raw_labels)) != cols:
            raise PanelError("duplicate time labels")
        if len(set(self.series_names)) != n:
            raise PanelError("duplicate series names")
        if not self.observed[:, : self.window].all():
            raise PanelError("conditioning prefix rows must be fully observed")
        vals = self.values[self.observed]
        if vals.size and not np.isfinite(vals).all():
            raise PanelError("observed cells must be finite")
        if np.any(self.observed & np.isnan(self.values)):
            raise PanelError("observed cells must hold numbers")
        self.values.setflags(write=False)
        self.observed.setflags(write=False)

    @property
    def num_series(self) -> int:
        return self.values.shape[0]

    @property
    def num_steps(self) -> int:
        return self.values.shape[1] - self.window

    @property
    def time_labels(self) -> tuple[str, ...]:
        return self.raw_labels[self.window :]

    def missing_cells(self) -> list[tuple[int, int]]:
        """(series, time) pairs of unobserved modeled cells, row-major order."""
        series, col = np.nonzero(~self.observed[:, self.window :])
        return list(zip(series.tolist(), (col + 1).tolist()))


def load_csv(path, window: int) -> TimeSeriesPanel:
    """Read a wide CSV (header ``time,<name1>,...``) into a panel.

    Empty cells are missing.  The first ``window`` rows become the
    conditioning prefix and must be complete.
    """
    with open(path, newline="") as fh:
        # a comment reads as a blank row, so line_num stays the physical line
        reader = csv.reader("\n" if line.startswith("#") else line for line in fh)
        records = filter(None, reader)  # the rows that are neither blank nor comments
        try:
            header = next(records)
        except StopIteration:
            raise PanelError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != "time":
            raise PanelError(f"{path}: header must be time,<name1>,...,<nameN>")
        names = tuple(header[1:])
        labels = []
        rows = []
        for row in records:
            if len(row) != len(header):
                raise PanelError(f"{path}:{reader.line_num}: expected {len(header)} cells")
            labels.append(row[0])
            parsed = []
            for name, cell in zip(names, row[1:]):
                cell = cell.strip()
                if cell == "":
                    parsed.append(math.nan)
                else:
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise PanelError(
                            f"{path}:{reader.line_num}: non-numeric cell {cell!r} in column {name}"
                        ) from None
            rows.append(parsed)
    if len(set(labels)) != len(labels):
        raise PanelError(f"{path}: duplicate time labels")
    if len(rows) <= window:
        raise PanelError(f"{path}: {len(rows)} rows cannot cover window {window}")
    values = np.array(rows, dtype=float).T
    observed = ~np.isnan(values)
    if not observed[:, :window].all():
        raise PanelError(f"{path}: missing value inside the {window} prefix rows")
    return TimeSeriesPanel(
        values=values,
        observed=observed,
        window=window,
        series_names=names,
        raw_labels=tuple(labels),
    )


def write_csv(panel: TimeSeriesPanel, path, header_comment: str | None = None) -> None:
    """Write a panel back to the wide CSV format (prefix rows included)."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["time", *panel.series_names])
        for col, label in enumerate(panel.raw_labels):
            row = [label]
            for n in range(panel.num_series):
                if panel.observed[n, col]:
                    row.append(repr(float(panel.values[n, col])))
                else:
                    row.append("")
            writer.writerow(row)
