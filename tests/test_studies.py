"""The report scripts under ``studies/`` run, at a tiny size, and their tables parse."""

import csv
import importlib.util
from pathlib import Path

STUDIES = Path(__file__).resolve().parents[1] / "studies"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"studies_{name}", STUDIES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_forward_cost_study_writes_one_line_per_shape_and_row_count(tmp_path):
    study = _load("forward_cost")
    out = tmp_path / "forward_cost.csv"
    argv = ["--shapes", "2x1", "3x2", "--rows", "1", "3", "--repeats", "1", "--out", str(out)]
    table = study.main(argv)
    lines = _read(out)
    assert [(line["stage"], line["n"], line["d"], line["rows"]) for line in lines] == [
        (stage, *shape, rows)
        for stage in ("run_bound", "adjoint_grads")
        for shape in (("2", "1"), ("3", "2"))
        for rows in ("1", "3")
    ]
    assert lines == [{key: str(value) for key, value in line.items()} for line in table]
    for line in lines:
        assert list(line) == list(study.COLUMNS)
        assert float(line["us_per_call"]) > 0.0
        assert float(line["minor_faults_per_call"]) >= 0.0
        assert float(line["peak_kb"]) > 0.0


def test_forward_cost_table_checked_in_covers_the_default_grid():
    study = _load("forward_cost")
    lines = _read(STUDIES / "forward_cost.csv")
    expected = [
        (stage, *shape.split("x"), str(rows))
        for stage in study.STAGES
        for shape in study.SHAPES
        for rows in study.ROWS
    ]
    assert [(line["stage"], line["n"], line["d"], line["rows"]) for line in lines] == expected
    assert all(list(line) == list(study.COLUMNS) for line in lines)


def test_ei_cost_study_writes_one_line_per_stage_and_size(tmp_path):
    study = _load("ei_cost")
    out = tmp_path / "ei_cost.csv"
    argv = ["--qubits", "2", "3", "--chunks", "2x2", "--repeats", "1", "--out", str(out)]
    table = study.main(argv)
    lines = _read(out)
    assert [(line["stage"], line["n"], line["m"], line["tables"]) for line in lines] == [
        ("kernel", "2", "2", "1"),
        ("kernel", "3", "2", "1"),
        ("globality", "2", "2", "1"),
        ("globality", "3", "2", "1"),
        # The whole census of 2-qubit, 2-action balanced tables.
        ("histogram_chunk", "2", "2", "3"),
    ]
    assert lines == [{key: str(value) for key, value in line.items()} for line in table]
    for line in lines:
        assert list(line) == list(study.COLUMNS)
        assert float(line["us_per_call"]) > 0.0
        assert float(line["us_per_table"]) > 0.0


def test_ei_cost_table_checked_in_covers_the_default_grid():
    study = _load("ei_cost")
    lines = _read(STUDIES / "ei_cost.csv")
    expected = [(stage, str(n), "2") for stage in ("kernel", "globality") for n in study.QUBITS]
    expected += [("histogram_chunk", *chunk.split("x")) for chunk in study.CHUNKS]
    assert [(line["stage"], line["n"], line["m"]) for line in lines] == expected
    assert all(list(line) == list(study.COLUMNS) for line in lines)
