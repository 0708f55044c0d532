"""Watchdog budgets: bounded runs with periodic autosnapshots.

Long compiled-simulation runs need two guarantees: they stop when told
to (cycle *and* wall-clock budgets, both raising a typed
:class:`repro.support.errors.SimulationTimeout`), and they stop
*resumably* -- the timeout carries a checkpoint, and an optional
autosnapshot interval persists progress while the run is healthy.

The mechanism is chunked execution: the engine's ``run_chunk`` steps a
bounded number of cycles and returns, so budget checks and snapshots
happen at cycle boundaries without putting any check on the per-cycle
hot path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.support.errors import ReproError, SimulationTimeout

# Cycles between wall-clock deadline checks.  Large enough that the
# perf_counter call amortises to nothing, small enough that overshoot
# past a deadline stays well under a second on any host.
DEFAULT_CHECK_INTERVAL = 65_536


@dataclass
class RunBudget:
    """Limits and snapshot cadence for one :meth:`Simulator.run`.

    ``max_cycles``
        Cycle budget (in addition to the ``run(max_cycles=...)``
        argument; the tighter of the two wins).
    ``max_wall_seconds``
        Host wall-clock budget for this call.
    ``checkpoint_every``
        Take an automatic checkpoint every N simulated cycles (N >= 1).
    ``check_interval``
        Cycles between wall-clock checks (tune down for tests).
    """

    max_cycles: Optional[int] = None
    max_wall_seconds: Optional[float] = None
    checkpoint_every: Optional[int] = None
    check_interval: int = DEFAULT_CHECK_INTERVAL

    def __post_init__(self):
        # An interval below one cycle would snapshot without stepping,
        # forever.
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ReproError(
                "checkpoint_every must be at least 1 cycle, got %r"
                % (self.checkpoint_every,)
            )


def run_with_budget(simulator, engine, max_cycles, budget,
                    on_checkpoint=None):
    """Run ``engine`` to completion under ``budget``; returns cycles run.

    ``on_checkpoint`` is called with each automatic
    :class:`repro.resilience.checkpoint.Checkpoint`.  On budget
    exhaustion a :class:`SimulationTimeout` is raised with
    ``budget="cycles"`` or ``budget="wall"``; the caller
    (``Simulator.run``) attaches a final checkpoint and the faulting PC.
    """
    limit = max_cycles
    if budget.max_cycles is not None:
        limit = min(limit, budget.max_cycles)
    deadline = None
    if budget.max_wall_seconds is not None:
        deadline = time.perf_counter() + budget.max_wall_seconds

    control = simulator.control
    start = engine.cycles
    until_snapshot = budget.checkpoint_every

    def finished():
        return control.halted and engine.drained

    while not finished():
        ran = engine.cycles - start
        if ran >= limit:
            raise SimulationTimeout(
                "simulation exceeded %d cycles without halting" % limit,
                budget="cycles", limit=limit, cycles=engine.cycles,
            )
        chunk = limit - ran
        if until_snapshot is not None:
            chunk = min(chunk, until_snapshot)
        if deadline is not None:
            chunk = min(chunk, budget.check_interval)
            if time.perf_counter() >= deadline:
                raise SimulationTimeout(
                    "simulation exceeded wall-clock budget of %gs"
                    % budget.max_wall_seconds,
                    budget="wall", limit=budget.max_wall_seconds,
                    cycles=engine.cycles,
                )
        stepped = engine.run_chunk(chunk)
        if until_snapshot is not None:
            until_snapshot -= stepped
            if until_snapshot <= 0 and not finished():
                snapshot = simulator.checkpoint(auto=True)
                if on_checkpoint is not None:
                    on_checkpoint(snapshot)
                until_snapshot = budget.checkpoint_every
    return engine.cycles - start
