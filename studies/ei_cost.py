"""Cost of ``qpglab.decode``'s extracted-information kernel: one table, and one histogram chunk.

Rerun from the repository root (the package is imported from ``src/``)::

    OPENBLAS_NUM_THREADS=1 python3 studies/ei_cost.py

It writes ``studies/ei_cost.csv``, one line per stage and size, with
the columns

* ``stage``: ``kernel``, one ``decode._extracted_information`` call on
  one table; ``globality``, one ``decode.globality`` call, which builds
  the report from that kernel call; or ``histogram_chunk``, one kernel
  call on the first chunk of an exhaustive ``decode.globality_histogram``
  and the per-table sums of extracted information that the histogram
  counts;
* ``n``, ``m``: qubits and actions;
* ``tables``: tables per call;
* ``us_per_call``: minimum over ``--repeats`` rounds of the mean wall
  time of one call, in a loop of warm calls sized to about 20 ms;
* ``us_per_table``: ``us_per_call`` divided by ``tables``.

Each round times every line once, in table order, so a burst of host
load slows the lines of one round, not every repeat of one line, and
the minimum keeps each line's least disturbed round.

The table is fixed by rule, not chosen: the single-table lines take
``RecursiveParity(n, 2)``, the decoding of ``qpglab globality --postfn
global --m 2``, at the end-to-end sizes n = 10-12 and the two below;
the chunk lines take the census sizes of ``qpglab enum --n 4`` at m = 2
and 4, with as many tables per chunk as the histogram puts in one.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qpglab import decode  # noqa: E402

QUBITS = (8, 9, 10, 11, 12)
CHUNKS = ("4x2", "4x4")
COLUMNS = ("stage", "n", "m", "tables", "us_per_call", "us_per_table")


def stage_call(stage: str, n: int, m: int):
    """The call that one line of the table times, with its inputs bound, and its table count."""
    if stage == "histogram_chunk":
        tables = next(decode._balanced_tables(1 << n, m, max(1, decode._CHUNK_ENTRIES // 3**n)))

        def chunk():
            return decode._extracted_information(tables, n).sum(axis=0, dtype=np.int64)

        return chunk, len(tables)
    fn = decode.RecursiveParity(n, m)
    if stage == "globality":
        return lambda: decode.globality(fn), 1
    return lambda: decode._extracted_information(fn.table[None, :], n), 1


def loop_size(call) -> int:
    """Calls in a timed loop of about 20 ms, from one warm call's time."""
    call()
    start = time.perf_counter()
    call()
    return max(1, int(0.02 / max(time.perf_counter() - start, 1e-6)))


def time_loop(call, calls: int) -> float:
    """Mean wall time of one call over a warm loop of ``calls``."""
    call()
    start = time.perf_counter()
    for _ in range(calls):
        call()
    return (time.perf_counter() - start) / calls


def main(argv=None) -> list[dict]:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--qubits", nargs="+", type=int, default=QUBITS, help="single-table n")
    parser.add_argument("--chunks", nargs="+", default=CHUNKS, help="n x m, e.g. 4x4")
    parser.add_argument("--repeats", type=int, default=7, help="rounds over every line")
    parser.add_argument("--out", type=Path, default=ROOT / "studies" / "ei_cost.csv")
    args = parser.parse_args(argv)
    lines = [(stage, n, 2) for stage in ("kernel", "globality") for n in args.qubits]
    lines += [("histogram_chunk", *map(int, chunk.split("x"))) for chunk in args.chunks]
    calls, tables = zip(*(stage_call(*line) for line in lines))
    sizes = [loop_size(call) for call in calls]
    means = [[] for _ in lines]
    for _ in range(args.repeats):
        for index, (call, size) in enumerate(zip(calls, sizes)):
            means[index].append(time_loop(call, size))
    table = [
        {
            **dict(zip(COLUMNS, line + (count,))),
            "us_per_call": f"{1e6 * min(line_means):.1f}",
            "us_per_table": f"{1e6 * min(line_means) / count:.3f}",
        }
        for line, count, line_means in zip(lines, tables, means)
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
