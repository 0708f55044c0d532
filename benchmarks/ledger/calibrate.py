"""Host speed, measured next to the work it corrects.

The reference host is a 2-vCPU VM on a shared machine: its vCPUs slow
down uniformly (no gaps, no steal time) by up to 2x for minutes at a
time, so two runs of the same code minutes apart can differ by more
than any useful regression bound.  The ledger therefore times a fixed
piece of reference work -- the CPython compiler, ``json`` and ``re`` on
fixed inputs, none of it code under test -- next to every job, and
reports times as they would read on the reference host at full speed:

    normalised time = measured time * REFERENCE_S / median(samples)

On that host this reference work slowed by the same factor as the
ledger's jobs to within a few per cent, for the Python-bound workloads
and the native burst loop alike, while both moved by up to 2x.  Every
ledger record also carries ``host.speed``, ``REFERENCE_S`` over the
median sample, so raw times are the normalised ones divided by it.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import time

#: Seconds one :func:`sample` takes on the reference host at full speed.
REFERENCE_S = 0.0085

_rng = random.Random(20240611)
_SOURCE = "\n".join(
    "def f%d(a, b):\n    x = [a + %d, b * %d]\n"
    "    return {'k%d': x, 'y': a if b else %d}\n" % ((i,) * 5)
    for i in range(150))
_DOCUMENT = [
    {"name": "n%d" % i, "v": [_rng.random() for _ in range(8)],
     "t": {"a": i, "b": str(i)}}
    for i in range(400)
]
_PATTERN = re.compile(r"(\w+)\s*=\s*\[(\w+)")


def sample():
    """Seconds one pass of the reference work takes now."""
    start = time.perf_counter()
    compile(_SOURCE, "<ledger-calibration>", "exec")
    json.loads(json.dumps(_DOCUMENT))
    _PATTERN.findall(_SOURCE)
    return time.perf_counter() - start


def slowdown(samples):
    """How many times slower than the reference host ``samples`` ran."""
    return statistics.median(samples) / REFERENCE_S
