"""Cost of ``qpglab.ansatz``'s forward pass and backward sweep: time, page faults and peak temporaries per call.

Rerun from the repository root (the package is imported from ``src/``)::

    OPENBLAS_NUM_THREADS=1 python3 studies/forward_cost.py

It writes ``studies/forward_cost.csv``, one line per stage, circuit
shape and row count, with the columns

* ``stage``: ``run_bound``, the forward pass, or ``adjoint_grads``, the
  backward sweep from the forward's amplitudes;
* ``n``, ``d``: qubits and depth of a CZ circuit;
* ``rows``: feature rows per call, all under one bound parameter set;
* ``us_per_call``: minimum over ``--repeats`` rounds of the mean wall
  time of one call, in a loop of warm calls sized to about 20 ms;
* ``minor_faults_per_call``: ``ru_minflt`` of this process from
  ``resource.getrusage``, over the timed calls of every round, per call;
* ``peak_kb``: ``tracemalloc`` peak of one warm call above the memory
  traced before it, result included, in KB.

Each round times every line once, in table order, each loop after
one untimed call that makes the line's workspaces again if another
line's evicted them.  A burst of host load thus slows the lines of one
round, not every repeat of one line, and the minimum keeps each line's
least disturbed round.

The table is fixed by rule, not chosen: the shapes are the CartPole
(n = 4, d = 5) and FIM (n = 4, d = 3) circuits of the benchmark and an
8-qubit one; the parameters are ``init_params`` from
``default_rng(0)``, the features are N(0, 0.5) draws from
``default_rng(1)`` and the sweep's observable weights are N(0, 1)
draws from ``default_rng(2)``, one row per feature row.  The forward
makes no BLAS call and the sweep's are small; the thread pin keeps the
process alone on one core.
"""

from __future__ import annotations

import argparse
import csv
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qpglab import ansatz  # noqa: E402

STAGES = ("run_bound", "adjoint_grads")
SHAPES = ("4x5", "4x3", "8x3")
ROWS = (1, 5, 10, 100, 200, 1000)
COLUMNS = ("stage", "n", "d", "rows", "us_per_call", "minor_faults_per_call", "peak_kb")


def stage_call(stage: str, n: int, d: int, rows: int):
    """The call that one line of the table times, with its inputs bound."""
    config = ansatz.ModelConfig(n, d, "cz")
    bound = ansatz.bind(config, ansatz.init_params(config, np.random.default_rng(0)))
    features = np.random.default_rng(1).normal(0.0, 0.5, (rows, n))
    if stage == "run_bound":
        return lambda: ansatz.run_bound(bound, features)
    amps = ansatz.run_bound(bound, features)
    weights = np.random.default_rng(2).normal(size=amps.shape)
    return lambda: ansatz.adjoint_grads(bound, features, weights, amps)


def loop_size(call) -> int:
    """Calls in a timed loop of about 20 ms, from one warm call's time."""
    call()
    start = time.perf_counter()
    call()
    return max(1, int(0.02 / max(time.perf_counter() - start, 1e-6)))


def time_loop(call, calls: int) -> tuple[float, int]:
    """Mean wall time of one call over a warm loop of ``calls``, and the loop's minor faults."""
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(calls):
        call()
    mean = (time.perf_counter() - start) / calls
    return mean, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def peak_bytes(call) -> int:
    """``tracemalloc`` peak of one warm call above the memory traced before it."""
    call()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    call()
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return peak


def main(argv=None) -> list[dict]:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shapes", nargs="+", default=SHAPES, help="n x d, e.g. 4x5")
    parser.add_argument("--rows", nargs="+", type=int, default=ROWS)
    parser.add_argument("--repeats", type=int, default=7, help="rounds over every line")
    parser.add_argument("--out", type=Path, default=ROOT / "studies" / "forward_cost.csv")
    args = parser.parse_args(argv)
    lines = [
        (stage, *map(int, shape.split("x")), rows)
        for stage in STAGES
        for shape in args.shapes
        for rows in args.rows
    ]
    calls = [stage_call(*line) for line in lines]
    sizes = [loop_size(call) for call in calls]
    means = [[] for _ in lines]
    faults = [0] * len(lines)
    for _ in range(args.repeats):
        for index, (call, size) in enumerate(zip(calls, sizes)):
            mean, count = time_loop(call, size)
            means[index].append(mean)
            faults[index] += count
    table = [
        {
            **dict(zip(COLUMNS, line)),
            "us_per_call": f"{1e6 * min(line_means):.1f}",
            "minor_faults_per_call": f"{line_faults / (args.repeats * size):.2f}",
            "peak_kb": f"{peak_bytes(call) / 1024:.1f}",
        }
        for line, call, size, line_means, line_faults in zip(lines, calls, sizes, means, faults)
    ]
    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, COLUMNS)
        writer.writeheader()
        writer.writerows(table)
    for line in table:
        print(",".join(str(line[column]) for column in COLUMNS))
    return table


if __name__ == "__main__":
    main()
