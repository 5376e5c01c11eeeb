import builtins
import collections
import concurrent.futures
import csv
import os

import numpy as np
import pytest

from oracles import load_checkpoint, save_table
from qpglab import analysis, ansatz, cli, config, decode, policy, train

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

CURVES = ["curve_seed0.csv", "curve_seed1.csv", "curve_aggregate.csv"]
# Output family, the subcommand that writes it, policy kind and action
# count, files in the family.
RUNS = [
    ("train", "train", "measurement", 2, CURVES),
    ("fim", "fim", "measurement", 2, ["spectrum.csv", "fim_aggregate.csv"]),
    ("effdim", "fim", "measurement", 2, ["effdim.csv"]),
    ("bound", "train", "softmax", 4, ["bound_report.csv"]),
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


@pytest.mark.parametrize("family,command,kind,actions,files", RUNS, ids=[r[0] for r in RUNS])
def test_every_csv_parses_as_numbers(tmp_path, capsys, family, command, kind, actions, files):
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


@pytest.mark.parametrize("family,command,kind,actions,files", RUNS, ids=[r[0] for r in RUNS])
def test_reruns_are_byte_identical(tmp_path, family, command, kind, actions, files):
    first = _run(tmp_path, command, kind, actions, "first")
    second = _run(tmp_path, command, kind, actions, "second")
    # Every file written, the checkpoints of ``train`` included.
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    assert set(files) <= set(names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


# Policy kind and the action count its bandit is trained on.
KINDS = {"measurement": 2, "softmax": 4}


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_checkpoint_parses_as_data(tmp_path, kind):
    out_dir = _run(tmp_path, "train", kind, KINDS[kind], "out")
    for seed in (0, 1):
        head, *values = (out_dir / f"params_seed{seed}.txt").read_text().splitlines()
        fields = dict(item.split("=") for item in head.split())
        n, depth = int(fields.pop("n")), int(fields.pop("d"))
        assert (n, depth, fields.pop("entangler")) == (3, 1, "cz")
        expected = sum(ansatz.param_counts(ansatz.ModelConfig(n, depth)))
        if kind == "softmax":
            assert fields.pop("kind") == "softmax"
            expected += int(fields.pop("weights"))
        assert fields == {}
        assert len([float(value) for value in values]) == expected


@pytest.mark.parametrize("kind", list(KINDS))
def test_checkpoint_round_trip(tmp_path, kind):
    out_dir = _run(tmp_path, "train", kind, KINDS[kind], "out")
    exp = config.load_config(tmp_path / "train.ini")
    states = np.array([exp.encoder.encode(s) for s in range(exp.env.num_states)])
    for seed in (0, 1):
        trained = train.train_run(exp.env, exp.encoder, exp.policy, exp.config.train, seed)
        params, pol = load_checkpoint(out_dir / f"params_seed{seed}.txt", exp.policy)
        probs = policy.batch_action_probs(pol, states, params)
        assert (probs == policy.batch_action_probs(trained.policy, states, trained.params)).all()
        if kind == "softmax":
            assert (pol.weights == trained.policy.weights).all()
            assert (pol.weights != exp.policy.weights).any()


LAKE_MAP = "SFFF\nFHFH\nFFFH\nHFFG\n"


@pytest.mark.parametrize("key", ["table", "map_file"])
def test_train_reads_each_input_file_once(tmp_path, monkeypatch, key):
    path = tmp_path / "input.txt"
    if key == "table":
        save_table(path, decode.MostSignificantBit(3))
        text = BANDIT_CONFIG.format(kind="measurement", actions=2).replace(
            "[policy]", f"[policy]\npostfn = table:{path}"
        )
    else:
        path.write_text(LAKE_MAP)
        text = (
            f"[experiment]\nseeds = 0, 1\n[env]\ntype = frozenlake\nmap_file = {path}\n"
            "horizon = 5\n[model]\nn_qubits = 4\n[train]\nepisodes = 4\nbatch_size = 2\n"
        )
    config_path = tmp_path / "train.ini"
    config_path.write_text(text.replace("seeds = 0, 1", "seeds = 0, 1, 2"))
    reads = collections.Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        reads[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    argv = ["train", "--config", str(config_path), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert reads[str(path)] == 1


SHORT_SOFTMAX = "[policy]\nkind = softmax\n[train]\nepisodes = 4\nbatch_size = 2\n"
# Configs whose task the accuracy bound does not cover.
BOUND_UNCOVERED = {
    "born": BANDIT_CONFIG.format(kind="measurement", actions=4),
    "non-uniform": BANDIT_CONFIG.format(kind="softmax", actions=2).replace(
        "reward = acc01", "reward = acc01\noptimal_map = list:0,0,0,0,0,0,1,1"
    ),
    "cartpole": "[env]\ntype = cartpole\n[model]\nn_qubits = 4\n" + SHORT_SOFTMAX,
    "odd-actions": (
        "[env]\nnum_states = 9\nnum_actions = 3\n[model]\nn_qubits = 4\n" + SHORT_SOFTMAX
    ),
}


@pytest.mark.parametrize("case", list(BOUND_UNCOVERED))
def test_train_writes_no_bound_report_off_the_bound_task(tmp_path, capsys, case):
    path = tmp_path / "train.ini"
    path.write_text(BOUND_UNCOVERED[case])
    exp = config.load_config(path)
    assert analysis.check_bound_task(exp.env, exp.policy) is None
    out_dir = tmp_path / "out"
    assert cli.main(["train", "--config", str(path), "--out-dir", str(out_dir)]) == 0
    seeds = len(exp.config.seeds)
    assert capsys.readouterr().out == f"wrote {seeds} learning curves to {out_dir}\n"
    assert "bound_report.csv" not in [p.name for p in out_dir.iterdir()]


def test_bound_for_an_odd_action_count_is_a_usage_error(capsys):
    message = (
        "bound implemented for even action counts; the odd case requires "
        "adapting the weight-ordering count"
    )
    assert cli.main(["bound", "--m", "5"]) == 2
    assert capsys.readouterr() == ("", f"config error: --m: {message}\n")


@pytest.mark.parametrize("flag,value", [("--seed", "3"), ("--out-dir", "bare-out")])
def test_bare_bound_refuses_the_experiment_flags(tmp_path, monkeypatch, capsys, flag, value):
    # The bound takes only --m; ``train`` writes the bound report of a config.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--m", "6", flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order", ["m-first", "config-first"])
def test_bound_takes_m_or_a_config_not_both(tmp_path, monkeypatch, capsys, order):
    # The bound takes only --m; a config's bound report is written by ``train``.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bound.ini").write_text(BANDIT_CONFIG.format(kind="softmax", actions=4))
    flags = [["--m", "6"], ["--config", "bound.ini"]]
    if order == "config-first":
        flags.reverse()
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", *flags[0], *flags[1]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --config bound.ini" in err
    assert [p.name for p in tmp_path.iterdir()] == ["bound.ini"]


def test_bound_config_writes_to_runs_by_default(tmp_path, monkeypatch):
    # The bound report goes with the curves into the default directory.
    path = tmp_path / "bound.ini"
    path.write_text(BANDIT_CONFIG.format(kind="softmax", actions=4))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--config", str(path), "--seed", "1"]) == 0
    assert (tmp_path / "runs" / "bound_report.csv").is_file()


def _bound_rows(out_dir) -> list:
    lines = (out_dir / "bound_report.csv").read_text().splitlines()
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert rows.pop(0) == ["seed", "accuracy", "within_bound"]
    return rows


def test_bound_reports_the_exact_accuracy_of_each_trained_checkpoint(tmp_path, capsys):
    path = tmp_path / "bound.ini"
    path.write_text(
        BANDIT_CONFIG.format(kind="softmax", actions=4).replace("seeds = 0, 1", "seeds = 0, 1, 2")
    )
    out_dir = tmp_path / "out"
    assert cli.main(["train", "--config", str(path), "--out-dir", str(out_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "bound 0.75: all seeds within"
    exp = config.load_config(path)
    rows = _bound_rows(out_dir)
    assert [row[0] for row in rows] == ["0", "1", "2"]
    for seed, accuracy, within in rows:
        params, pol = load_checkpoint(out_dir / f"params_seed{seed}.txt", exp.policy)
        assert accuracy == repr(analysis.exact_accuracy(exp.env, exp.encoder, pol, params))
        assert within == str(float(accuracy) <= 0.75 + 0.02)


def test_train_exits_three_when_a_seed_is_above_the_bound(tmp_path, capsys, monkeypatch):
    # A slack of -1 puts every accuracy above the bound.
    monkeypatch.setattr(analysis, "BOUND_SLACK", -1.0)
    path = tmp_path / "bound.ini"
    path.write_text(BANDIT_CONFIG.format(kind="softmax", actions=4))
    out_dir = tmp_path / "out"
    assert cli.main(["train", "--config", str(path), "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().out.splitlines()[1] == "bound 0.75: VIOLATED"
    assert [within for _, _, within in _bound_rows(out_dir)] == ["False", "False"]
    assert (out_dir / "curve_aggregate.csv").is_file()


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


def test_runtime_failure_exits_three(capsys, monkeypatch):
    def fail(fn):
        raise RuntimeError("globality failed")

    monkeypatch.setattr(decode, "globality", fail)
    assert cli.main(["globality", "--postfn", "global", "--n", "3", "--m", "2"]) == 3
    assert capsys.readouterr() == ("", "error: globality failed\n")


def test_ei_dump_above_eight_qubits_is_a_usage_error(capsys, monkeypatch):
    # The flags are checked before the decoding is built or scored.
    def refuse(*args):
        raise AssertionError("the command did work before checking its flags")

    monkeypatch.setattr(config, "build_postfn", refuse)
    argv = ["globality", "--postfn", "global", "--n", "9", "--m", "2", "--ei-dump"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "config error: --ei-dump is limited to 8 qubits\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--n", "17", "--m", "2", "--mode", "sampled"], "histograms is limited to 16 qubits"),
        (["--n", "3", "--m", "3"], "num_actions must be >= 2 and divide 2**n_qubits"),
        (
            ["--n", "5", "--m", "2"],
            "300540195 partitionings exceed the exhaustive limit 10000000; use sampled mode",
        ),
    ],
    ids=["qubits", "divisor", "census"],
)
def test_enum_checks_its_request_before_the_output_directory(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    assert cli.main(["enum", *argv, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out_dir.exists()


def test_table_with_the_wrong_qubit_count_fails(tmp_path, capsys):
    path = tmp_path / "table.txt"
    path.write_text("00,0\n01,0\n10,1\n11,1\n")
    assert cli.main(["globality", "--postfn", f"table:{path}", "--n", "4", "--m", "2"]) == 2
    assert capsys.readouterr() == ("", "config error: --postfn: table has 2 qubits, expected 4\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--postfn", "bogus", "--n", "4", "--m", "2"], "unknown postfn spec 'bogus'"),
        (
            ["--postfn", "parity:x", "--n", "4", "--m", "2"],
            "parity:<q> needs an integer q, got 'parity:x'",
        ),
        (["--postfn", "parity:9", "--n", "4", "--m", "2"], "prefix length q=9 must be in [1, 4]"),
        (["--postfn", "global", "--n", "4", "--m", "3"], "num_actions must be a power of two >= 2"),
        (["--postfn", "msb", "--n", "4", "--m", "4"], "msb provides 2 actions, not 4"),
        (["--postfn", "parity:2", "--n", "4", "--m", "4"], "parity:2 provides 2 actions, not 4"),
    ],
    ids=[
        "unknown",
        "parity-not-an-integer",
        "parity-too-long",
        "global-actions",
        "msb-actions",
        "parity-actions",
    ],
)
@pytest.mark.parametrize("command", ["globality", "decode"])
def test_a_postfn_that_names_no_decoding_is_a_usage_error(capsys, command, argv, message):
    bits = ["--bits", "1100"] if command == "decode" else []
    assert cli.main([command, *argv, *bits]) == 2
    assert capsys.readouterr() == ("", f"config error: --postfn: {message}\n")


def test_a_missing_table_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "absent.txt"
    assert cli.main(["globality", "--postfn", f"table:{path}", "--n", "2", "--m", "2"]) == 2
    expected = f"config error: --postfn: cannot read {path}: No such file or directory\n"
    assert capsys.readouterr() == ("", expected)


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["globality", "--postfn", "global", "--n", "17", "--m", "2"],
            "globality is limited to 16 qubits",
        ),
        (
            ["decode", "--postfn", "global", "--n", "21", "--m", "2", "--bits", "1" * 21],
            "decode is limited to 20 qubits",
        ),
        (
            ["decode", "--postfn", "global", "--n", "4", "--m", "4", "--bits", "01x1"],
            "--bits: bitstring '01x1' is not a 4-bit binary string",
        ),
        (
            ["decode", "--postfn", "global", "--n", "4", "--m", "4", "--bits", "011"],
            "--bits: bitstring '011' is not a 4-bit binary string",
        ),
    ],
    ids=["globality-qubits", "decode-qubits", "bits-not-binary", "bits-too-short"],
)
def test_decode_requests_are_checked_before_the_table_is_built(
    capsys, monkeypatch, argv, message
):
    def refuse(*args):
        raise AssertionError("the command built a decoding before checking its flags")

    monkeypatch.setattr(config, "build_postfn", refuse)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


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


def test_effdim_is_gone_because_fim_writes_it(tmp_path, capsys):
    config = tmp_path / "fim.ini"
    config.write_text(BANDIT_CONFIG.format(kind="measurement", actions=2))
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["effdim", "--config", str(config), "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid choice: 'effdim'" in err
    assert not out_dir.exists()


def test_fim_samples_once_and_writes_spectrum_aggregate_and_effdim(tmp_path, capsys, monkeypatch):
    sample_fims = analysis.sample_fims
    samples = []
    monkeypatch.setattr(
        analysis, "sample_fims", lambda *args: samples.append(sample_fims(*args)) or samples[-1]
    )
    out_dir = _run(tmp_path, "fim", "measurement", 2, "out")
    assert len(samples) == 1
    names = sorted(path.name for path in out_dir.iterdir())
    assert names == ["effdim.csv", "fim_aggregate.csv", "spectrum.csv"]
    stats = analysis.spectrum_stats(samples[0].aggregate)
    report = analysis.effective_dimension(samples[0], (100, 1000))
    assert capsys.readouterr().out == (
        f"near-zero eigenvalue fraction: {stats.near_zero_fraction!r} (threshold 1e-07)\n"
        f"effective dimension at 1000: {float(report.values[-1])!r}\n"
    )


def _unset_blas_threads(monkeypatch) -> None:
    # Set before deleting, so that teardown removes what ``train`` sets.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")


def test_train_jobs_two_writes_the_files_of_jobs_one(tmp_path, monkeypatch):
    _unset_blas_threads(monkeypatch)
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


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")], ids=["unset", "user"])
def test_train_jobs_workers_run_blas_on_one_thread(tmp_path, monkeypatch, preset, expected):
    _unset_blas_threads(monkeypatch)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    seen = []

    class InProcessPool:
        """Records how the pool is made, then runs its tasks here."""

        def __init__(self, max_workers, mp_context):
            method = mp_context.get_start_method()
            seen.append((max_workers, method, os.environ["OPENBLAS_NUM_THREADS"]))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = tmp_path / "train.ini"
    config.write_text(BANDIT_CONFIG.format(kind="measurement", actions=2))
    argv = ["train", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--jobs", "2"]
    assert cli.main(argv) == 0
    # A spawned worker loads OpenBLAS afresh, so it reads the variable.
    assert seen == [(2, "spawn", expected)]


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--config", "c.ini", "--seed", "-2"],
        ["fim", "--config", "c.ini", "--seed", "-1"],
        ["enum", "--n", "2", "--m", "2", "--seed", "-1"],
    ],
    ids=["train", "fim", "enum"],
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
    if argv[0] == "enum":
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
