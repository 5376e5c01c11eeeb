"""The benchmark harness: set-up, timed loop, tracing, checks and output.

``run.py`` is the command; it pins the BLAS threads and calls
:func:`main`.  The load is a closed loop with one caller in one process
and one thread.

With ``--trace 0`` a run measures the end-to-end metrics with tracing
off: ``setup_s`` (median of several fresh set-ups), ``peak_rss_mb`` and
``work_per_s`` (median over passes of the workload's work units per
second).  Timings are rescaled by a calibration kernel run around each
operation, because the host's speed drifts (see :func:`calibrate`); the
raw timings are kept in the results file.  With ``--trace 1`` a run
executes operations untraced for half the time, replays the same
operations with every layer wrapped (see ``tracing.py``) and reports
the per-layer metrics.  Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and results with their provenance
are written under ``perfbench/results/``.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
MODULES = ("qsim", "ansatz", "decode", "envs", "policy", "train", "analysis")
SETUP_REPEATS = 7
# Seconds that one run of the calibration kernel stands for; see calibrate().
CAL_REF_S = 0.005

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_per_s", "1/s"))


class MissingPackage(RuntimeError):
    """The checkout holds no ``src/qpglab`` to benchmark."""


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter-loop and small-array work.

    The benchmark host is shared, and its speed drifts by up to 2x over
    a few seconds.  This kernel runs before and after every timed
    operation and set-up, and each time is rescaled as if the kernel had
    taken ``CAL_REF_S``.  The kernel does not touch the package, so a
    change to the package moves the rescaled times as it moves the raw
    ones.
    """
    amps = np.ones((64, 16), dtype=np.complex128)
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i
    for _ in range(1_500):
        amps *= 1.0
    return time.perf_counter() - start


class OpRecord(NamedTuple):
    index: int
    seconds: float  # wall time of the operation
    cal_s: float  # mean calibration time just before and just after it
    out: object
    error: str | None

    @property
    def scaled_s(self) -> float:
        return self.seconds * CAL_REF_S / self.cal_s


def fresh_import(src: Path = SRC) -> SimpleNamespace:
    """Import ``qpglab`` from ``src`` anew, with every lazy cache empty."""
    if not (src / "qpglab" / "__init__.py").is_file():
        raise MissingPackage(f"no qpglab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "qpglab" or m.startswith("qpglab.")]:
        del sys.modules[name]
    package = importlib.import_module("qpglab")
    if Path(package.__file__).resolve().parent != (src / "qpglab").resolve():
        raise MissingPackage(f"qpglab was imported from {package.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"qpglab.{m}") for m in MODULES})


def set_up(workload, seed: int, repeats: int):
    """Import, build and warm up ``repeats`` times from scratch.

    Returns the median rescaled and raw set-up times and the modules of
    the last set-up, which the run then uses.
    """
    scaled, raw = [], []
    for _ in range(repeats):
        # The modules of the previous set-up sit in reference cycles with
        # their caches; free them now rather than inside the timed set-up.
        gc.collect()
        cal = calibrate()
        start = time.perf_counter()
        qp = fresh_import()
        workload.setup(qp, seed)
        seconds = time.perf_counter() - start
        raw.append(seconds)
        scaled.append(seconds * CAL_REF_S * 2.0 / (cal + calibrate()))
    return statistics.median(scaled), statistics.median(raw), qp


def run_ops(workload, seconds=None, indices=None, tracer=None) -> list:
    """Run operations back to back (a closed loop with one caller).

    Runs ``indices`` if given.  Otherwise runs indices 0, 1, ... and
    stops at the first pass boundary (every ``workload.pass_ops``
    operations) after ``seconds`` have passed.  An operation that raises
    is recorded with its traceback and the loop goes on.
    """
    records = []
    start = time.perf_counter()
    cal = calibrate()
    position = 0
    while True:
        if indices is not None:
            if position == len(indices):
                break
            index = indices[position]
        else:
            done = time.perf_counter() - start >= seconds
            if position and position % workload.pass_ops == 0 and done:
                break
            index = position
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            out, error = workload.op(index), None
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            out, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        cal_after = calibrate()
        records.append(OpRecord(index, elapsed, (cal + cal_after) / 2.0, out, error))
        cal = cal_after
        position += 1
    return records


def check_records(workload, records):
    """(attempted, failed) operations; every operation of a chunk that raised failed."""
    attempted = failed = 0
    for record in records:
        if record.error is not None:
            print(f"{workload.name} op {record.index} raised:\n{record.error}", file=sys.stderr)
            bad = workload.ops
        else:
            try:
                bad = workload.check(record.out)
            except Exception:  # noqa: BLE001 - a check that raises is a failed check
                print(f"{workload.name} op {record.index} check raised:\n"
                      f"{traceback.format_exc()}", file=sys.stderr)
                bad = workload.ops
        attempted += workload.ops
        failed += bad
    return attempted, failed


def pass_rates(records, pass_ops: int, scaled: bool = True) -> list:
    """Work per second of every pass of ``pass_ops`` operations that all succeeded."""
    rates = []
    for first in range(0, len(records), pass_ops):
        group = records[first:first + pass_ops]
        if any(r.error is not None for r in group):
            continue
        seconds = sum(r.scaled_s if scaled else r.seconds for r in group)
        rates.append(sum(r.out.work for r in group) / seconds)
    return rates


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed: int, seconds: float, trace: bool, write: bool = True) -> dict:
    """Set up, measure and check one workload; returns the result.

    ``raw`` in the result holds the same timings without rescaling.
    """
    setup_s, raw_setup_s, qp = set_up(workload, seed, 1 if trace else SETUP_REPEATS)
    if not trace:
        records = run_ops(workload, seconds=seconds)
        attempted, failed = check_records(workload, records)
        rates = pass_rates(records, workload.pass_ops)
        raw_rates = pass_rates(records, workload.pass_ops, scaled=False)
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                  "work_per_s": statistics.median(rates) if rates else 0.0}
        raw = {"setup_s": raw_setup_s,
               "work_per_s": statistics.median(raw_rates) if raw_rates else 0.0,
               "calibration_s": statistics.median(r.cal_s for r in records)}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {name: (values[name], unit) for name, unit in END_TO_END},
                "raw": raw, "work_name": workload.work_name, "records": records}

    untraced = run_ops(workload, seconds=seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install(qp)
    workload.instrument(tracer)
    try:
        traced = run_ops(workload, indices=[r.index for r in untraced], tracer=tracer)
    finally:
        tracer.uninstall()
    ok = [r for r in traced if r.error is None]
    metrics = tracing.layer_metrics(
        tracer.spans,
        traced_wall=sum(r.seconds for r in traced),
        untraced_op_s=sum(r.scaled_s for r in untraced),
        traced_op_s=sum(r.scaled_s for r in traced),
        work=sum(r.out.work for r in ok),
    )
    attempted, failed = check_records(workload, untraced + traced)
    if not workload.check_trace([r.out for r in ok], metrics):
        print(f"{workload.name}: traced counts disagree with the outputs", file=sys.stderr)
        failed = attempted
    if write:
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write(RESULTS_DIR / f"{workload.name}.spans.csv")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "raw": {}, "work_name": workload.work_name,
            "records": untraced + traced}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qpglab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def provenance(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def as_json_metrics(metrics: dict) -> dict:
    # Plain JSON numbers: numpy scalars would print as np.float64(...).
    return {
        name: {"value": int(value) if unit in ("count", "bytes") else float(value), "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def print_table(name: str, result: dict) -> None:
    rows = [(name, "ops_failed_ratio", result["failed"] / result["attempted"], "ratio",
             f"{result['failed']} of {result['attempted']} operations")]
    for metric, (value, unit) in result["metrics"].items():
        note = result["work_name"] if metric == "work_per_s" else ""
        if metric in result["raw"]:
            note = f"{note} (raw {result['raw'][metric]:.6g})".lstrip()
        rows.append((name, metric, value, unit, note))
    for row in rows:
        print(f"{row[0]:<17} {row[1]:<42} {float(row[2]):>16.6g} {row[3]:<9} {row[4]}".rstrip())


def main(argv=None) -> int:
    catalogue = workloads.full_size()
    parser = argparse.ArgumentParser(description="Run a qpglab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[*catalogue, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(catalogue) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    results = {}
    try:
        for name in names:
            results[name] = run_workload(catalogue[name], args.seed, args.seconds, trace)
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    RESULTS_DIR.mkdir(exist_ok=True)
    for name, result in results.items():
        print_table(name, result)
        record = {
            "provenance": provenance(name, args.seed, args.seconds, trace),
            "correct": result["correct"],
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": as_json_metrics(result["metrics"]),
            "raw": {k: float(v) for k, v in result["raw"].items()},
            # index, seconds, calibration seconds, work of every timed operation
            "ops": [
                [r.index, r.seconds, r.cal_s, None if r.out is None else float(r.out.work)]
                for r in result["records"]
            ],
        }
        print(json.dumps({"provenance": record["provenance"]}))
        out = RESULTS_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")

    if len(results) == 1:
        final = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        # Several workloads: metrics are keyed "<workload>.<metric>".
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(int(r["attempted"]) for r in results.values()),
            "failed": sum(int(r["failed"]) for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in as_json_metrics(r["metrics"]).items()
            },
        }
    print(json.dumps(final))
    return 0
