"""Measure one performance-ledger workload.

Run from the repository root (no ``PYTHONPATH`` needed)::

    python3 benchmarks/ledger/run.py --workload short_warm --seed 11 \\
        --seconds 10 --trace 0

See :mod:`benchmarks.ledger.harness` for what is measured and printed.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import os  # noqa: E402
import sys  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

if __name__ == "__main__":
    # Measure this checkout's program, never an installed copy.
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        sys.exit("no src/repro under %s: nothing to measure" % _ROOT)
    sys.path[0:1] = [os.path.join(_ROOT, "src"), _ROOT]
    from benchmarks.ledger.harness import main

    sys.exit(main(t0=T0))
