"""``tools/golden_diff.py`` names the columns and rows that moved between two
CSV files, with the size of each numeric change."""

import importlib.util
import math
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "golden_diff.py"
SPEC = importlib.util.spec_from_file_location("golden_diff", PATH)
golden_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(golden_diff)


def write(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


@pytest.fixture
def files(tmp_path):
    up = repr(math.nextafter(0.1, 1.0))  # one ulp above 0.1
    old = write(tmp_path / "old.csv", [["N", "x", "regime"], ["1", "0.1", "Augmentation"],
                                       ["2", "0.5", "Automation"]])
    new = write(tmp_path / "new.csv", [["N", "x", "regime"], ["1", up, "Augmentation"],
                                       ["2", "0.5", "Substitution"]])
    return old, new


def test_each_column_reports_its_changed_rows_and_their_size(files, capsys):
    assert golden_diff.main(list(files)) == 1
    header, *lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines}
    assert header.split() == ["column", "kind", "changed", "max_abs", "max_rel", "max_ulps"]
    assert rows["N"] == ["numeric", "0", "0", "0", "0"]
    assert rows["x"][:2] == ["numeric", "1"] and rows["x"][-1] == "1"
    assert float(rows["x"][2]) == pytest.approx(math.nextafter(0.1, 1.0) - 0.1, rel=1e-2)
    assert rows["regime"] == ["text", "1"]


def test_identical_files_exit_0_with_nothing_changed(files, capsys):
    old, _ = files
    assert golden_diff.main([old, old]) == 0
    _, *lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in lines] == ["0", "0", "0"]


def test_ulps_count_across_zero_and_blank_cells_count_as_changed():
    assert golden_diff.compare_column(["-0.0", "5e-324"], ["0.0", "-5e-324"])["ulps"] == 2
    column = golden_diff.compare_column(["", "1"], ["1", "1"])
    assert column == {"kind": "numeric", "changed": 1, "abs": 0.0, "rel": 0.0, "ulps": 0}
