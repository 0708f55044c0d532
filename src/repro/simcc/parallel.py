"""Parallel fan-out for portable simulation compilation.

Simulation compilation is embarrassingly parallel per program word: the
decode / variant-resolve / schedule / codegen work for one word never
depends on another word.  This module provides a small deterministic
map over words backed by a :mod:`concurrent.futures` process pool --
the work is CPU-bound Python, so only processes give real parallelism,
and it produces lowered IR that pickles back to the parent unchanged.

Results are always returned in input order, so a parallel compile is
bit-identical to the serial one -- parallelism changes wall-clock only,
never the produced table.  When no pool can start, the map runs
serially; an exception raised by a task propagates as it would from a
serial map.  ``jobs=None``/``jobs=1`` is fully serial and allocates no
pool.

Process pools use the ``fork`` start method so workers inherit the
(unpicklable) machine model via :data:`_FORK_MODEL`; on platforms
without ``fork`` the map always runs serially.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

# Fan-out below this many items costs more than it saves.
MIN_PARALLEL_ITEMS = 32

# Set by the parent immediately before creating a fork-based process
# pool; forked workers read the inherited value via forked_model().
_FORK_MODEL = None


def effective_jobs(jobs, item_count):
    """Normalise a ``jobs`` request to a concrete worker count.

    ``None``, ``0`` and ``1`` mean serial; negative values mean "one per
    CPU"; anything else is clamped to the number of items.
    """
    if jobs is None or jobs == 0 or jobs == 1:
        return 1
    if jobs < 0:
        jobs = os.cpu_count() or 1
    return max(1, min(int(jobs), item_count))


def forked_model():
    """The model handed down to a forked worker process."""
    return _FORK_MODEL


def _fork_context():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def map_tasks(fn, tasks, jobs=None, model=None):
    """Map ``fn`` over ``tasks``; results in input order.

    ``fn`` must be a module-level function taking one picklable task
    and returning a picklable result; ``model`` is made available to
    workers (and to a serial run) through :func:`forked_model`.
    """
    tasks = list(tasks)
    workers = effective_jobs(jobs, len(tasks))
    global _FORK_MODEL
    _FORK_MODEL = model
    try:
        context = _fork_context()
        if (workers == 1 or len(tasks) < MIN_PARALLEL_ITEMS
                or context is None):
            return [fn(task) for task in tasks]
        chunksize = max(1, len(tasks) // (workers * 4))
        try:
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=context)
            # map() submits every chunk up front, which forks the
            # workers; task errors only surface while reading results.
            results = pool.map(fn, tasks, chunksize=chunksize)
        except (OSError, NotImplementedError):
            # No pool can start here (no semaphores, fork refused).
            return [fn(task) for task in tasks]
        with pool:
            return list(results)
    finally:
        _FORK_MODEL = None
