"""Run a qpglab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
``NAME`` is a workload of ``workloads.py`` or ``all``.  The last line of
standard output is the result as one JSON object; see ``harness.py``.
"""

import os
import sys

# OpenBLAS reads its thread count when numpy loads it, so this has to
# run before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
