import numpy as np
import pytest

from conftest import ROBUSTNESS_PANELS, make_panel, robustness_panel
from oracles import missing_cells, seen, value
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


@pytest.mark.parametrize(
    "bad, message", [("r2,2.0,3.0", "expected 2 cells"), ("r2,oops", "non-numeric")]
)
def test_load_csv_errors_name_the_physical_line(tmp_path, bad, message):
    # a leading comment, as ``trcrp simulate`` writes, and a blank line both
    # count: the bad third data row is line 6
    lines = ["# config_hash abc", "time,a", "r0,1.0", "", "r1,1.5", bad, "r3,4.0"]
    with pytest.raises(PanelError, match=f"p.csv:6: {message}"):
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


@pytest.mark.parametrize("kind", ROBUSTNESS_PANELS + ("observed",))
def test_missing_cells_equal_a_loop_over_the_panel(kind):
    # row-major plain-int (series, time) pairs, as a loop over the mask lists them
    if kind == "observed":
        panel = make_panel([[1, 2, 3, 4], [5, 6, 7, 8]], window=1)
    else:
        panel = robustness_panel(kind)
    cells = panel.missing_cells()
    assert cells == missing_cells(panel)
    assert all(type(n) is int and type(t) is int for n, t in cells)
    assert bool(cells) == (not panel.observed.all())
