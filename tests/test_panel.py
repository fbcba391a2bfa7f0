import numpy as np
import pytest

from conftest import make_panel
from oracles import seen, value
from trcrp.panel import PanelError, load_csv, write_csv


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_csv_counts(tmp_path):
    lines = ["time,a,b"] + [f"r{i},{i},{i * 2}" for i in range(12)]
    panel = load_csv(write_lines(tmp_path / "p.csv", lines), window=2)
    assert panel.num_series == 2
    assert panel.num_steps == 10
    assert panel.window == 2
    assert panel.series_names == ("a", "b")


def test_load_csv_window_zero(tmp_path):
    lines = ["time,a"] + [f"r{i},{i}" for i in range(7)]
    panel = load_csv(write_lines(tmp_path / "p.csv", lines), window=0)
    assert panel.num_steps == 7
    assert panel.window == 0


def test_load_csv_blank_cell_becomes_missing(tmp_path):
    rows = [f"r{i},{i},{i * 2}" for i in range(12)]
    rows[4] = "r4,4,"  # 5th data row, 2nd series
    panel = load_csv(write_lines(tmp_path / "p.csv", ["time,a,b"] + rows), window=2)
    assert not seen(panel, 1, 3)
    assert seen(panel, 0, 3)
    assert np.isnan(value(panel, 1, 3))


def test_load_csv_rejects_non_numeric(tmp_path):
    lines = ["time,a", "r0,1.0", "r1,oops", "r2,2.0"]
    with pytest.raises(PanelError, match="non-numeric"):
        load_csv(write_lines(tmp_path / "p.csv", lines), window=0)


def test_load_csv_rejects_missing_prefix(tmp_path):
    lines = ["time,a", "r0,", "r1,1.0", "r2,2.0"]
    with pytest.raises(PanelError, match="prefix"):
        load_csv(write_lines(tmp_path / "p.csv", lines), window=1)


def test_load_csv_rejects_duplicate_labels(tmp_path):
    lines = ["time,a", "r0,1.0", "r0,2.0"]
    with pytest.raises(PanelError, match="duplicate"):
        load_csv(write_lines(tmp_path / "p.csv", lines), window=0)


def test_csv_round_trip(tmp_path):
    rows = ["time,x,y", "a,1.5,2.25", "b,-0.125,", "c,3.0,4.5", "d,,0.75"]
    src = write_lines(tmp_path / "src.csv", rows)
    panel = load_csv(src, window=1)
    out = tmp_path / "out.csv"
    write_csv(panel, out)
    panel2 = load_csv(out, window=1)
    assert panel2.series_names == panel.series_names
    assert panel2.raw_labels == panel.raw_labels
    assert np.array_equal(panel2.observed, panel.observed)
    assert np.allclose(
        panel2.values[panel2.observed], panel.values[panel.observed]
    )


def test_prefix_must_be_observed_in_constructor():
    with pytest.raises(PanelError, match="prefix"):
        make_panel([[None, 1, 2]], window=1)


def test_values_are_read_only():
    panel = make_panel([[1, 2, 3]], window=0)
    with pytest.raises(ValueError):
        panel.values[0, 0] = 9.0


def test_missing_cells_enumeration():
    panel = make_panel([[0, 1, None, 3], [0, None, 2, None]], window=1)
    assert panel.missing_cells() == [(0, 2), (1, 1), (1, 3)]
