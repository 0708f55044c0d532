"""Resilience layer: keeping long compiled-simulation runs alive.

Compiled simulation moves decoding and sequencing to simulation-compile
time (the paper's whole premise) -- which silently breaks the moment
the application writes into program memory, and which loses hours of
work when a run overshoots a budget or dies mid-flight.  This package
closes those gaps:

* **Program-memory write guard** (:mod:`repro.resilience.guard`) --
  watches stores into the compiled program region and degrades
  gracefully per policy: ``error`` (typed
  :class:`repro.support.errors.StaleTableError`) or ``recover``
  (incremental re-decode of just the touched packet through the
  existing simulation-compiler pipeline and cache, and per-packet
  fallback to interpretive fetch-decode-execute once a recompiled
  packet is written again).
* **Checkpoint/restore** (:mod:`repro.resilience.checkpoint`) --
  versioned, digest-stamped snapshots of the full architectural and
  engine state.  A checkpoint taken under one simulator kind restores
  under any other and resumes bit-exact.
* **Watchdog budgets** (:mod:`repro.resilience.watchdog`) -- cycle and
  wall-clock budgets raising a typed
  :class:`repro.support.errors.SimulationTimeout` that carries a
  checkpoint, so callers resume instead of rerunning.
* **Fault injection** (:mod:`repro.resilience.faults`) -- a
  deterministic harness (bit flips, program-memory patches, decode and
  compile faults, cache-entry corruption) used by the test suite to
  prove every degradation path actually fires.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    Checkpoint,
    program_digest,
)
from repro.resilience.faults import FaultInjector
from repro.resilience.guard import (
    GUARD_POLICIES,
    GuardedMemory,
    ProgramMemoryGuard,
)
from repro.resilience.watchdog import RunBudget

__all__ = [
    "CHECKPOINT_FORMAT",
    "Checkpoint",
    "FaultInjector",
    "GUARD_POLICIES",
    "GuardedMemory",
    "ProgramMemoryGuard",
    "RunBudget",
    "program_digest",
]
