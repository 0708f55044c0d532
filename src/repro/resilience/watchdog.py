"""Watchdog budgets: bounded runs with periodic autosnapshots.

Long compiled-simulation runs need two guarantees: they stop when told
to (cycle *and* wall-clock budgets, both raising a typed
:class:`repro.support.errors.SimulationTimeout`), and they stop
*resumably* -- the timeout carries a checkpoint, and an optional
autosnapshot interval persists progress while the run is healthy.

A :class:`RunBudget` only describes the stops; the one run loop,
:meth:`repro.sim.base.Simulator.run`, enforces them.  It runs the
engine in chunks that end exactly at the next stop (cycle limit, wall
check, autosnapshot, fault-plan cycle), so budget checks and snapshots
happen at cycle boundaries without putting any check on the per-cycle
hot path.  The snapshot cadence counts from the cycle at which the
``run`` call started, and every snapshot carries the wall time
accumulated up to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.support.errors import ReproError

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
        Cycles between wall-clock checks (N >= 1; tune down for tests).
    """

    max_cycles: Optional[int] = None
    max_wall_seconds: Optional[float] = None
    checkpoint_every: Optional[int] = None
    check_interval: int = DEFAULT_CHECK_INTERVAL

    def __post_init__(self):
        # An interval below one cycle would snapshot (or read the
        # clock) without stepping, forever.
        for name in ("checkpoint_every", "check_interval"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ReproError(
                    "%s must be at least 1 cycle, got %r" % (name, value)
                )
