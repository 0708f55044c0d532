"""Fault-tolerant simulation job service.

The paper trades compile time for run time inside one process; serving
that speed means the unit of robustness must become the *job*, not the
process.  This package wraps the existing fast core (simulator kinds,
the shared simulation-table cache, run budgets, kind-portable
checkpoints) in a supervised multiprocess worker pool where every
failure mode is recoverable:

* a **worker crash** (SIGKILL, segfault, OOM kill) resurrects the job
  on a fresh worker from its last autosnapshot checkpoint, with
  exponential backoff and a bounded retry budget;
* a **wedged worker** (missed heartbeats) or an **attempt wall
  timeout** is killed and treated the same way;
* a job that keeps crashing is **quarantined** with a structured
  :class:`~repro.service.job.JobFailure` report (flight recording
  attached) instead of wedging the pool;
* degradation is **policy-driven**: a crash under ``backend=native``
  retries at ``backend=auto``, a faulting table compile retries
  interpretively, and a corrupted shared-cache entry is quarantined
  and rebuilt through the cache's single-flight path.

Surface area:

* :class:`~repro.service.supervisor.Supervisor` -- the in-process pool
  (submit/status/result/cancel, ``drain``);
* ``repro-serve`` (:mod:`repro.service.server`) -- a stdlib-only HTTP
  front end;
* :class:`~repro.service.client.Client` -- the matching HTTP client;
* :mod:`repro.service.chaos` -- the fault-schedule harness CI drives.
"""

from __future__ import annotations

from repro.service.client import Client
from repro.service.job import (
    JOB_CANCELLED,
    JOB_COMPLETED,
    JOB_FAILED,
    JOB_PENDING,
    JOB_RUNNING,
    TERMINAL_STATES,
    JobFailure,
    JobSpec,
    ServicePolicy,
    TenantBudget,
)
from repro.service.supervisor import Supervisor

__all__ = [
    "Client",
    "JobFailure",
    "JobSpec",
    "ServicePolicy",
    "Supervisor",
    "TenantBudget",
    "JOB_PENDING",
    "JOB_RUNNING",
    "JOB_COMPLETED",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "TERMINAL_STATES",
]
