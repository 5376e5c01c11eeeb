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


def test_globality_exits_zero(capsys):
    assert cli.main(["globality", "--postfn", "global", "--n", "3", "--m", "2"]) == 0
    assert capsys.readouterr().out == "globality = 3 (3.0)\n"


@pytest.mark.parametrize(
    "old,new",
    [("[model]", "[extras]\nkey = 1\n\n[model]"), ("depth = 1", "depth = 1\ndepth_typo = 2")],
    ids=["unknown-section", "unknown-key"],
)
def test_config_errors_exit_two(tmp_path, capsys, old, new):
    config = tmp_path / "bad.ini"
    config.write_text(BANDIT_CONFIG.format(kind="measurement", actions=2).replace(old, new))
    assert cli.main(["fim", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_runtime_failure_exits_three(capsys):
    argv = ["globality", "--postfn", "global", "--n", "9", "--m", "2", "--ei-dump"]
    assert cli.main(argv) == 3
    assert "EI dump is limited to 8 qubits" in capsys.readouterr().err


def test_table_with_the_wrong_qubit_count_fails(tmp_path, capsys):
    path = tmp_path / "table.txt"
    path.write_text("00,0\n01,0\n10,1\n11,1\n")
    assert cli.main(["globality", "--postfn", f"table:{path}", "--n", "4", "--m", "2"]) == 3
    assert "table has 2 qubits, expected 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fim", "--config", "c.ini", "--jobs", "2"],
        ["effdim", "--config", "c.ini", "--jobs", "2"],
        ["enum", "--n", "2", "--m", "2", "--jobs", "2"],
        ["bound", "--jobs", "2"],
        ["globality", "--postfn", "msb", "--n", "2", "--m", "2", "--seed", "1"],
    ],
    ids=["fim", "effdim", "enum", "bound", "globality"],
)
def test_options_that_did_nothing_are_gone(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_train_jobs_two_writes_the_files_of_jobs_one(tmp_path):
    config = tmp_path / "train.ini"
    config.write_text(BANDIT_CONFIG.format(kind="measurement", actions=2))
    outs = [tmp_path / "jobs1", tmp_path / "jobs2"]
    for jobs, out_dir in zip((1, 2), outs):
        argv = ["train", "--config", str(config), "--out-dir", str(out_dir), "--jobs", str(jobs)]
        assert cli.main(argv) == 0
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    assert len(names) == 5  # two curves, two parameter files, the aggregate
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--config", "c.ini", "--seed", "-2"],
        ["fim", "--config", "c.ini", "--seed", "-1"],
        ["enum", "--n", "2", "--m", "2", "--seed", "-1"],
        ["bound", "--seed", "-1"],
    ],
    ids=["train", "fim", "enum", "bound"],
)
def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["globality", "--postfn", "global", "--n", "-1", "--m", "2"], "--n: must be >= 1, got -1"),
        (["globality", "--postfn", "global", "--n", "3", "--m", "1"], "--m: must be >= 2, got 1"),
        (["decode", "--postfn", "msb", "--n", "0", "--m", "2", "--bits", "0"], "--n: must be >= 1, got 0"),
        (["enum", "--n", "2", "--m", "0"], "--m: must be >= 2, got 0"),
        (["enum", "--n", "x", "--m", "2"], "--n: expected an integer, got 'x'"),
        (
            ["enum", "--n", "2", "--m", "2", "--mode", "sampled", "--samples", "-5"],
            "--samples: must be >= 1, got -5",
        ),
        (["bound", "--m", "1"], "--m: must be >= 2, got 1"),
    ],
    ids=[
        "globality-n", "globality-m", "decode-n", "enum-m", "enum-n-word", "enum-samples", "bound-m"
    ],
)
def test_integer_flags_below_their_floor_are_usage_errors(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    if argv[0] in ("enum", "bound"):
        argv = argv + ["--out-dir", str(out_dir)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {message}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "jobs,message",
    [("0", "must be >= 1, got 0"), ("-3", "must be >= 1, got -3"), ("two", "expected an integer")],
    ids=["zero", "negative", "word"],
)
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs, message):
    config = tmp_path / "train.ini"
    config.write_text(BANDIT_CONFIG.format(kind="measurement", actions=2))
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--config", str(config), "--out-dir", str(out_dir), "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: {message}" in capsys.readouterr().err
    assert not out_dir.exists()
