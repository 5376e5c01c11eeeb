"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import harness
import tracing
import workloads

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

TINY_CASES = (
    ("RecursiveParity(4, 2)", lambda d: d.RecursiveParity(4, 2), 4),
    ("PrefixParity(5, 3)", lambda d: d.PrefixParity(5, 3), 3),
    ("MostSignificantBit(4)", lambda d: d.MostSignificantBit(4), 1),
)


def tiny_workloads():
    return [
        workloads.CartPoleTrain(episodes=2, batch_size=1),
        workloads.BanditTrain(episodes=4, batch_size=2),
        workloads.FimEffdim(param_sets=2, states=5, data_sizes=(100, 1000)),
        workloads.DecodeGlobality(cases=TINY_CASES),
    ]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.full_size())
    end_to_end = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert end_to_end == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        tracing.LAYER_METRICS
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", tiny_workloads(), ids=lambda w: w.name)
def test_smoke_run_reports_every_metric(workload, trace):
    result = harness.run_workload(workload, seed=3, seconds=0.0, trace=trace, write=False)
    expected = tracing.LAYER_METRICS if trace else harness.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(name, unit) for name, (_, unit) in result["metrics"].items()] == list(expected)
    assert all(math.isfinite(value) for value, _ in result["metrics"].values())
    if not trace:
        assert all(value > 0 for value, _ in result["metrics"].values())


def test_traced_cartpole_counts_are_exact():
    workload = workloads.CartPoleTrain(episodes=2, batch_size=1)
    result = harness.run_workload(workload, seed=5, seconds=0.0, trace=True, write=False)
    metrics = result["metrics"]
    assert metrics["policy.trajectory_log_grads.rows_per_step"][0] == 177
    assert metrics["policy.sample_action.calls"][0] == metrics["envs.step.calls"][0]
    assert metrics["trace.coverage"][0] >= 0.9


def test_wrong_expected_globality_is_counted_as_failed():
    wrong = TINY_CASES[:2] + (("MostSignificantBit(4)", TINY_CASES[2][1], 2),)
    result = harness.run_workload(
        workloads.DecodeGlobality(cases=wrong), seed=0, seconds=0.0, trace=False, write=False
    )
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (3, 1)


def test_operation_that_raises_is_counted_as_failed():
    raising = TINY_CASES[:1] + (("PrefixParity(4, 9)", lambda d: d.PrefixParity(4, 9), 9),)
    result = harness.run_workload(
        workloads.DecodeGlobality(cases=raising), seed=0, seconds=0.0, trace=False, write=False
    )
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_main_prints_plain_json_last(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness.workloads, "full_size",
                        lambda: {w.name: w for w in tiny_workloads()})
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    assert harness.main(["--workload", "fim_effdim", "--seconds", "0"]) == 0
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and [*final["metrics"]] == [n for n, _ in harness.END_TO_END]
    assert all(type(m["value"]) is float for m in final["metrics"].values())
    saved = json.loads((tmp_path / "fim_effdim-seed0-trace0.json").read_text())
    assert saved["provenance"]["seed"] == 0 and saved["provenance"]["nproc"] >= 1


def test_fails_without_a_package_to_benchmark(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in harness.BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode_globality",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
