import csv

import pytest

from qpglab import cli

BANDIT_CONFIG = """
[experiment]
seeds = 0, 1

[env]
type = bandits
num_states = 8
num_actions = {actions}
reward = acc01

[model]
n_qubits = 3
depth = 1

[policy]
kind = {kind}

[train]
episodes = 25
batch_size = 10

[analysis]
param_sets = 3
states = 10
data_sizes = 100, 1000
"""

# Subcommand, policy kind and action count, files it writes.
RUNS = [
    ("train", "measurement", 2, ["curve_seed0.csv", "curve_seed1.csv", "curve_aggregate.csv"]),
    ("fim", "measurement", 2, ["spectrum.csv", "fim_aggregate.csv"]),
    ("effdim", "measurement", 2, ["effdim.csv"]),
    ("bound", "softmax", 4, ["bound_report.csv"]),
]

# Columns that hold a verdict rather than a number.
BOOLEAN_COLUMNS = {"within_bound"}
# The FIM matrix is written as bare rows, without a column header.
HEADERLESS = {"fim_aggregate.csv"}


def _run(tmp_path, command, kind, actions, out_name):
    config = tmp_path / f"{command}.ini"
    config.write_text(BANDIT_CONFIG.format(kind=kind, actions=actions))
    out_dir = tmp_path / out_name
    code = cli.main([command, "--config", str(config), "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir


@pytest.mark.parametrize("command,kind,actions,files", RUNS, ids=[r[0] for r in RUNS])
def test_every_csv_parses_as_numbers(tmp_path, capsys, command, kind, actions, files):
    out_dir = _run(tmp_path, command, kind, actions, "out")
    assert "np." not in capsys.readouterr().out
    for name in files:
        lines = [ln for ln in (out_dir / name).read_text().splitlines() if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        header = [""] * len(rows[0]) if name in HEADERLESS else rows.pop(0)
        assert rows, name
        for row in rows:
            assert len(row) == len(header)
            for column, cell in enumerate(row):
                if header[column] in BOOLEAN_COLUMNS:
                    assert cell in ("True", "False")
                else:
                    float(cell)


@pytest.mark.parametrize("command,kind,actions,files", RUNS[:3], ids=[r[0] for r in RUNS[:3]])
def test_reruns_are_byte_identical(tmp_path, command, kind, actions, files):
    first = _run(tmp_path, command, kind, actions, "first")
    second = _run(tmp_path, command, kind, actions, "second")
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes()
