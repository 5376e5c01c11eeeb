import builtins
import collections
import concurrent.futures
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from oracles import load_checkpoint, save_table
from qpglab import analysis, cli, config, decode, policy, train

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


def _run(tmp_path, command, kind, actions, out_name):
    config = tmp_path / f"{command}.ini"
    config.write_text(BANDIT_CONFIG.format(kind=kind, actions=actions))
    out_dir = tmp_path / out_name
    code = cli.main([command, "--config", str(config), "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir


class Run(NamedTuple):
    """A command that succeeds, run in a directory of its own: the input
    ``files`` written there first, the ``outputs`` it writes to ``out``
    and, where given, its exact ``stdout``."""

    argv: str
    files: dict = {}
    outputs: tuple = ()
    stdout: str | None = None


def _train(config, seeds=(0,), bound=False, seed=None, files={}) -> Run:
    """A ``train`` row on ``config``; ``seed`` overrides its ``seeds``."""
    flag, seeds = ("", seeds) if seed is None else (f" --seed {seed}", (seed,))
    per_seed = [f"{k}_seed{s}.{e}" for s in seeds for k, e in [("curve", "csv"), ("params", "txt")]]
    outputs = ("curve_aggregate.csv", *per_seed, *["bound_report.csv"] * bound)
    stdout = f"wrote {len(seeds)} learning curves to out\n"
    stdout += "bound 0.75: all seeds within\n" * bound
    argv = f"train --config c.ini{flag} --out-dir out"
    return Run(argv, {"c.ini": config, **files}, outputs, stdout)


def _fim(config) -> Run:
    files = ("spectrum.csv", "fim_aggregate.csv", "effdim.csv")
    return Run("fim --config c.ini --out-dir out", {"c.ini": config}, files)


BORN_BANDIT = (
    "[env]\ntype = bandits\nnum_states = 8\nnum_actions = 2\n[model]\nn_qubits = 3\n"
    "[train]\nepisodes = 20\n[analysis]\nparam_sets = 2\nstates = 5\n[policy]\nkind = measurement\n"
)
SOFTMAX_BANDIT = (
    "[env]\ntype = bandits\nnum_states = 8\nnum_actions = 4\nreward = acc01\n"
    "[model]\nn_qubits = 3\n[policy]\nkind = softmax\n[train]\nepisodes = 40\n"
)
CARTPOLE = "[env]\ntype = cartpole\n[model]\nn_qubits = 4\ndepth = 5\n[train]\nepisodes = 20\n"
# A slippery lake: extra [env] keys, extra [model] keys and sections, episodes.
LAKE = (
    "[env]\ntype = frozenlake\nslippery = true\n{}[model]\nn_qubits = 4\n{}"
    "[train]\nepisodes = {}\nbatch_size = 7\n"
)
PARITY2 = {"parity2.txt": "00,0\n01,1\n10,1\n11,0\n"}
# Every command whose outputs must parse as data and rerun byte for byte.
RUNS = {
    "train": _train(BANDIT_CONFIG.format(kind="measurement", actions=2), seeds=(0, 1)),
    "fim": _fim(BANDIT_CONFIG.format(kind="measurement", actions=2)),
    # effdim.csv over four data sizes rather than the two of the [fim] row.
    "effdim": _fim(
        BANDIT_CONFIG.format(kind="measurement", actions=2).replace(
            "data_sizes = 100, 1000", "data_sizes = 100, 1000, 10000, 100000"
        )
    ),
    "bound": _train(BANDIT_CONFIG.format(kind="softmax", actions=4), seeds=(0, 1), bound=True),
    "born-bandit-train": _train(BORN_BANDIT),
    "born-bandit-fim": _fim(BORN_BANDIT),
    "softmax-bandit-train": _train(SOFTMAX_BANDIT, bound=True),
    # The aggregate is the mean of the sets' matrices rebuilt from their upper triangles.
    "softmax-bandit-fim": _fim(SOFTMAX_BANDIT),
    "cartpole-train": _train(CARTPOLE),
    "cartpole-fim": _fim(CARTPOLE + "[analysis]\nparam_sets = 4\nstates = 10\n"),
    # A seed of two 32-bit words, hashed into the draw key; the slippery moves read the
    # transition draws.
    "slippery-lake-seed-2**32": _train(LAKE.format("", "", 30), seed=4294967296),
    # Non-integer rewards, so episode totals and returns round, and a ragged last batch.
    "lake-rewards": _train(
        LAKE.format("reward_step = -0.1\nreward_hole = -1.3\nreward_goal = 2.7\n", "", 31), seed=7
    ),
    # Four one-hot readout columns under CX.
    "table-bandit-cx": _train(
        "[env]\ntype = bandits\nnum_states = 8\nnum_actions = 4\nreward = acc01\n[model]\n"
        "n_qubits = 3\nentangler = cx\n[policy]\nkind = measurement\npostfn = table:table4.txt\n"
        "[train]\nepisodes = 60\n",
        files={"table4.txt": "000,2\n001,0\n010,3\n011,1\n100,1\n101,3\n110,0\n111,2\n"},
    ),
    # One Z-mask column that reads qubits 0 and 2 only, under CX.
    "softmax-lake-cx": _train(
        LAKE.format("", "entangler = cx\n[policy]\nkind = softmax\nz_qubits = 0, 2\n", 30)
    ),
    # Sampled enum shuffles each chunk's tables in one Generator.permuted call.
    "sampled-enum": Run(
        "enum --n 4 --m 4 --mode sampled --samples 20000 --seed 3 --out-dir out",
        outputs=("histogram.csv",),
        stdout="20000 partitionings examined of 2627625 total\n",
    ),
    "bound-m4": Run("bound --m 4", stdout="accuracy bound = 3/4 (0.75)\n"),
    # Globality at the end-to-end sizes, against the closed forms.
    "globality-n11": Run("globality --postfn msb --n 11 --m 2", stdout="globality = 1 (1.0)\n"),
    "globality-n12": Run("globality --postfn global --n 12 --m 2", stdout="globality = 12 (12.0)\n"),
    "decode-global": Run("decode --postfn global --n 4 --m 4 --bits 0111", stdout="2\n"),
    # An explicit table file is a decoding: 2-qubit full parity.
    "globality-parity2-table": Run(
        "globality --postfn table:parity2.txt --n 2 --m 2", PARITY2, stdout="globality = 2 (2.0)\n"
    ),
    "decode-parity2-table": Run(
        "decode --postfn table:parity2.txt --n 2 --m 2 --bits 10", PARITY2, stdout="1\n"
    ),
}


def _run_all(root) -> dict:
    """Run each RUNS row in ``root/<name>``; return its exit code and stdout."""
    results = {}
    home = os.getcwd()
    for name, run in RUNS.items():
        cwd = os.path.join(root, name)
        os.makedirs(cwd)
        for file, text in run.files.items():
            with open(os.path.join(cwd, file), "w") as fh:
                fh.write(text)
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                results[name] = [cli.main(run.argv.split()), out.getvalue()]
        finally:
            os.chdir(home)
    return results


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every RUNS row run here into ``first``, then into ``second`` by one
    fresh interpreter that imports the same ``qpglab`` under another
    ``PYTHONHASHSEED``; the root and each side's codes and stdouts."""
    root = tmp_path_factory.mktemp("runs")
    path = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED=seed)
    code = (
        "import json, sys, test_cli as t; "
        "print(json.dumps([t.cli.__file__, t._run_all(sys.argv[1])]))"
    )
    # The fresh interpreter runs while this one does; its stderr is captured with the fixture's.
    argv = [sys.executable, "-c", code, str(root / "second")]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    here = _run_all(root / "first")
    out = proc.communicate(timeout=300)[0]
    assert proc.returncode == 0
    imported, there = json.loads(out)
    assert imported == cli.__file__
    return root, here, there


def _tree(root) -> dict:
    """Every path below ``root``: a file's bytes, or False for a directory."""
    return {p.relative_to(root).as_posix(): p.is_file() and p.read_bytes() for p in root.rglob("*")}


@pytest.mark.parametrize("name", list(RUNS))
def test_reruns_are_byte_identical(runs, name):
    root, here, there = runs
    run = RUNS[name]
    code, out = here[name]
    assert code == 0
    assert "np." not in out
    if run.stdout is not None:
        assert out == run.stdout
    assert there[name] == here[name]
    first = _tree(root / "first" / name)
    expected = {*run.files, *(["out"] if run.outputs else []), *(f"out/{f}" for f in run.outputs)}
    assert set(first) == expected
    assert _tree(root / "second" / name) == first


# Output family: the names its CSV files start with.
CSV_FAMILIES = {
    "train": ("curve_",),
    "fim": ("spectrum", "fim_aggregate"),
    "effdim": ("effdim",),
    "bound": ("bound_report",),
    "enum": ("histogram",),
}
# Columns that hold a verdict rather than a number.
BOOLEAN_COLUMNS = {"within_bound"}
# The FIM matrix is written as bare rows, without a column header.
HEADERLESS = {"fim_aggregate.csv"}


@pytest.mark.parametrize("family", list(CSV_FAMILIES))
def test_every_csv_parses_as_numbers(runs, family):
    paths = (runs[0] / "first").glob("*/out/*.csv")
    paths = [path for path in paths if path.name.startswith(CSV_FAMILIES[family])]
    assert paths
    for path in paths:
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        header = [""] * len(rows[0]) if path.name in HEADERLESS else rows.pop(0)
        assert rows, path
        for row in rows:
            assert len(row) == len(header)
            for column, cell in enumerate(row):
                if header[column] in BOOLEAN_COLUMNS:
                    assert cell in ("True", "False")
                else:
                    float(cell)


# Policy kind and the action count its bandit is trained on.
KINDS = {"measurement": 2, "softmax": 4}


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_checkpoint_parses_as_data(runs, monkeypatch, kind):
    checked = 0
    for path in sorted((runs[0] / "first").glob("*/out/params_seed*.txt")):
        monkeypatch.chdir(path.parents[1])  # where a table: decoding is read
        pol = config.load_config("c.ini").policy
        if isinstance(pol, policy.SoftmaxObservablePolicy) == (kind == "softmax"):
            load_checkpoint(path, pol)
            checked += 1
    assert checked


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


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # Every command pays what the import loads; numpy.random is loaded
    # only by the commands that draw random numbers.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys, qpglab.cli; print(sorted(m for m in sys.modules if 'numpy.random' in m))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: qpglab")


def test_globality_exits_zero(capsys):
    assert cli.main(["globality", "--postfn", "global", "--n", "3", "--m", "2"]) == 0
    assert capsys.readouterr().out == "globality = 3 (3.0)\n"


def test_runtime_failure_exits_three(capsys, monkeypatch):
    def fail(fn):
        raise RuntimeError("globality failed")

    monkeypatch.setattr(decode, "globality", fail)
    assert cli.main(["globality", "--postfn", "global", "--n", "3", "--m", "2"]) == 3
    assert capsys.readouterr() == ("", "error: globality failed\n")


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
    traces = samples[0].raw_traces / samples[0].dim
    assert capsys.readouterr().out == (
        "sampled 3 parameter sets x 10 states\n"
        f"aggregate eigenvalues from {float(stats.eigenvalues[0])!r} "
        f"to {float(stats.eigenvalues[-1])!r}\n"
        f"raw trace per parameter: mean {float(traces.mean())!r}, "
        f"std {float(traces.std())!r} across sets\n"
        f"near-zero eigenvalue fraction: {stats.near_zero_fraction!r} (threshold 1e-07)\n"
        f"effective dimension at 1000: {float(report.values[-1])!r}\n"
    )


def test_train_jobs_two_writes_the_files_of_jobs_one(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
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
    assert "OPENBLAS_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")], ids=["unset", "user"])
def test_train_jobs_workers_run_blas_on_one_thread(tmp_path, monkeypatch, preset, expected):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
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
    # A spawned worker loads OpenBLAS afresh, so it reads the variable;
    # the caller's environment is as it was.
    assert seen == [(2, "spawn", expected)]
    assert os.environ.get("OPENBLAS_NUM_THREADS") == preset


class Refusal(NamedTuple):
    """A usage error: the command, the stderr line it ends with, the
    input ``files`` it reads, and ``early`` when it must be refused
    before any decoding is built."""

    argv: str
    stderr: str
    files: dict = {}
    early: bool = False


def _refused(row, tmp_path, monkeypatch, capsys) -> None:
    """Exit 2, nothing on stdout, the one stated error line, no file made."""
    monkeypatch.chdir(tmp_path)
    for name, text in row.files.items():
        (tmp_path / name).write_text(text)
    if row.early:

        def refuse(*args):
            raise AssertionError("the command built a decoding before checking its flags")

        monkeypatch.setattr(config, "build_postfn", refuse)
    assert cli.main(row.argv.split()) == 2
    out, err = capsys.readouterr()
    usage, _, line = err.rstrip("\n").rpartition("\n")
    # argparse prints its usage first, and lists choices in a form that
    # varies between Python versions.
    assert (out, re.sub(r" \(choose from .*\)$", "", line)) == ("", row.stderr)
    assert usage.startswith("usage: qpglab") if line.startswith("qpglab") else usage == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(row.files)


def _refusal_test(rows):
    """The test of ``rows`` by :func:`_refused`; a lone row ``None`` is
    unparametrized."""
    if None in rows:

        def test(tmp_path, monkeypatch, capsys):
            _refused(rows[None], tmp_path, monkeypatch, capsys)

        return test

    @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
    def test(row, tmp_path, monkeypatch, capsys):
        _refused(row, tmp_path, monkeypatch, capsys)

    return test


TRAIN = {"c.ini": BANDIT_CONFIG.format(kind="measurement", actions=2)}
SOFTMAX = {"c.ini": BANDIT_CONFIG.format(kind="softmax", actions=4)}
UNRECOGNIZED = "qpglab: error: unrecognized arguments:"
NO_EFFDIM = "qpglab: error: argument command: invalid choice: 'effdim'"
TABLE = "globality --postfn table:t.txt --n {} --m 2"
BITS = "config error: --bits: bitstring '{}' is not a 4-bit binary string"
POSTFN = [
    ("unknown", "bogus --n 4 --m 2", "unknown postfn spec 'bogus'"),
    (
        "parity-not-an-integer",
        "parity:x --n 4 --m 2",
        "parity:<q> needs an integer q, got 'parity:x'",
    ),
    ("parity-too-long", "parity:9 --n 4 --m 2", "prefix length q=9 must be in [1, 4]"),
    ("global-actions", "global --n 4 --m 3", "num_actions must be a power of two >= 2"),
    ("msb-actions", "msb --n 4 --m 4", "msb provides 2 actions, not 4"),
    ("parity-actions", "parity:2 --n 4 --m 4", "parity:2 provides 2 actions, not 4"),
]
INTEGER_FLAGS = [
    ("globality-n", "globality --postfn global --n -1 --m 2", "--n: must be >= 1, got -1"),
    ("globality-m", "globality --postfn global --n 3 --m 1", "--m: must be >= 2, got 1"),
    ("decode-n", "decode --postfn msb --n 0 --m 2 --bits 0", "--n: must be >= 1, got 0"),
    ("enum-m", "enum --n 2 --m 0 --out-dir o", "--m: must be >= 2, got 0"),
    ("enum-n-word", "enum --n x --m 2 --out-dir o", "--n: expected an integer, got 'x'"),
    (
        "enum-samples",
        "enum --n 2 --m 2 --mode sampled --samples -5 --out-dir o",
        "--samples: must be >= 1, got -5",
    ),
    ("bound-m", "bound --m 1", "--m: must be >= 2, got 1"),
]
# Each test name, then one row per usage error, by id.
REFUSALS = {
    "test_bound_for_an_odd_action_count_is_a_usage_error": {
        None: Refusal(
            "bound --m 5",
            "config error: --m: bound implemented for even action counts; the odd case requires "
            "adapting the weight-ordering count",
        ),
    },
    # The bound takes only --m; ``train`` writes the bound report of a config.
    "test_bare_bound_refuses_the_experiment_flags": {
        "--seed-3": Refusal("bound --m 6 --seed 3", f"{UNRECOGNIZED} --seed 3"),
        "--out-dir-bare-out": Refusal(
            "bound --m 6 --out-dir bare-out", f"{UNRECOGNIZED} --out-dir bare-out"
        ),
        "--config": Refusal(
            "bound --config c.ini --out-dir o",
            f"{UNRECOGNIZED} --config c.ini --out-dir o",
            SOFTMAX,
        ),
    },
    "test_bound_takes_m_or_a_config_not_both": {
        "m-first": Refusal("bound --m 6 --config c.ini", f"{UNRECOGNIZED} --config c.ini", SOFTMAX),
        "config-first": Refusal(
            "bound --config c.ini --m 6", f"{UNRECOGNIZED} --config c.ini", SOFTMAX
        ),
    },
    "test_config_errors_exit_two": {
        "unknown-section": Refusal(
            "fim --config c.ini --out-dir o",
            "config error: unknown section [extras]",
            {"c.ini": TRAIN["c.ini"].replace("[model]", "[extras]\nkey = 1\n\n[model]")},
        ),
        "unknown-key": Refusal(
            "fim --config c.ini --out-dir o",
            "config error: [model] unknown key 'depth_typo'",
            {"c.ini": TRAIN["c.ini"].replace("depth = 1", "depth = 1\ndepth_typo = 2")},
        ),
        # A Born policy has no shot count.
        "born-shots": Refusal(
            "train --config c.ini --out-dir o",
            "config error: [policy] unknown key 'shots'",
            {"c.ini": BORN_BANDIT + "shots = 100\n"},
        ),
        # Constructor checks run on load.
        "cartpole-bounds": Refusal(
            "train --config c.ini --out-dir o",
            "config error: [env] bounds must be positive",
            {"c.ini": "[env]\ntype = cartpole\nbounds = 0, 1, 1, 1\n[model]\nn_qubits = 4\n"},
        ),
    },
    "test_ei_dump_above_eight_qubits_is_a_usage_error": {
        None: Refusal(
            "globality --postfn global --n 9 --m 2 --ei-dump",
            "config error: --ei-dump is limited to 8 qubits",
            early=True,
        ),
    },
    "test_enum_checks_its_request_before_the_output_directory": {
        "qubits": Refusal(
            "enum --n 17 --m 2 --mode sampled --out-dir o",
            "config error: histograms is limited to 16 qubits",
        ),
        "divisor": Refusal(
            "enum --n 3 --m 3 --out-dir o",
            "config error: num_actions must be >= 2 and divide 2**n_qubits",
        ),
        "census": Refusal(
            "enum --n 5 --m 2 --out-dir o",
            "config error: 300540195 partitionings exceed the exhaustive limit 10000000; "
            "use sampled mode",
        ),
    },
    "test_table_with_the_wrong_qubit_count_fails": {
        None: Refusal(
            TABLE.format(4),
            "config error: --postfn: table has 2 qubits, expected 4",
            {"t.txt": "00,0\n01,0\n10,1\n11,1\n"},
        ),
    },
    "test_a_postfn_that_names_no_decoding_is_a_usage_error": {
        f"{command}-{key}": Refusal(
            f"{command} --postfn {argv}" + " --bits 1100" * (command == "decode"),
            f"config error: --postfn: {message}",
        )
        for key, argv, message in POSTFN
        for command in ("globality", "decode")
    },
    "test_a_missing_table_file_is_a_usage_error": {
        None: Refusal(
            TABLE.format(2), "config error: --postfn: cannot read t.txt: No such file or directory"
        ),
    },
    # Each message names the file and line.
    "test_a_malformed_table_file_is_a_usage_error": {
        key: Refusal(TABLE.format(2), f"config error: --postfn: t.txt:{message}", {"t.txt": text})
        for key, text, message in [
            ("action-not-an-integer", "00,0\n01,x\n", "2: action 'x' is not an integer"),
            ("bits-too-long", "00,0\n011,1\n", "2: bitstring '011' is not a 2-bit binary string"),
            ("empty-bits", ",0\n", "1: empty bitstring"),
            ("action-out-of-range", "00,0\n01,7\n", "2: action 7 is not in [0, 2)"),
        ]
    },
    "test_decode_requests_are_checked_before_the_table_is_built": {
        "globality-qubits": Refusal(
            "globality --postfn global --n 17 --m 2",
            "config error: globality is limited to 16 qubits",
            early=True,
        ),
        "decode-qubits": Refusal(
            "decode --postfn global --n 21 --m 2 --bits " + "1" * 21,
            "config error: decode is limited to 20 qubits",
            early=True,
        ),
        "bits-not-binary": Refusal(
            "decode --postfn global --n 4 --m 4 --bits 01x1", BITS.format("01x1"), early=True
        ),
        "bits-too-short": Refusal(
            "decode --postfn global --n 4 --m 4 --bits 011", BITS.format("011"), early=True
        ),
    },
    "test_options_that_did_nothing_are_gone": {
        "fim": Refusal("fim --config c.ini --jobs 2", f"{UNRECOGNIZED} --jobs 2"),
        "effdim": Refusal("effdim --config c.ini --jobs 2", NO_EFFDIM),
        "enum": Refusal("enum --n 2 --m 2 --jobs 2", f"{UNRECOGNIZED} --jobs 2"),
        "bound": Refusal("bound --jobs 2", f"{UNRECOGNIZED} --jobs 2"),
        "globality": Refusal(
            "globality --postfn msb --n 2 --m 2 --seed 1", f"{UNRECOGNIZED} --seed 1"
        ),
    },
    # fim writes the effective dimension.
    "test_effdim_is_gone_because_fim_writes_it": {
        None: Refusal("effdim --config c.ini --out-dir o", NO_EFFDIM, TRAIN),
    },
    "test_negative_seed_flag_is_a_usage_error": {
        argv.split()[0]: Refusal(
            f"{argv} --seed {seed} --out-dir o",
            f"qpglab {argv.split()[0]}: error: argument --seed: must be >= 0, got {seed}",
        )
        for argv, seed in [
            ("train --config c.ini", -2), ("fim --config c.ini", -1), ("enum --n 2 --m 2", -1)
        ]
    },
    "test_integer_flags_below_their_floor_are_usage_errors": {
        key: Refusal(argv, f"qpglab {argv.split()[0]}: error: argument {message}")
        for key, argv, message in INTEGER_FLAGS
    },
    "test_jobs_below_one_is_a_usage_error": {
        key: Refusal(
            f"train --config c.ini --out-dir o --jobs {jobs}",
            f"qpglab train: error: argument --jobs: {message}",
            TRAIN,
        )
        for key, jobs, message in [
            ("zero", "0", "must be >= 1, got 0"),
            ("negative", "-3", "must be >= 1, got -3"),
            ("word", "two", "expected an integer, got 'two'"),
        ]
    },
}
# Each group keeps the name of the test that it replaced.
globals().update({name: _refusal_test(rows) for name, rows in REFUSALS.items()})
