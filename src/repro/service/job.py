"""Job model for the simulation service: specs, policies, failures.

Everything here is plain data that crosses process (and, via the HTTP
front end, machine) boundaries as JSON: a :class:`JobSpec` describes
one simulation to run, a :class:`ServicePolicy` how the supervisor
reacts to failures, a :class:`TenantBudget` what one tenant may
consume, and a :class:`JobFailure` is the structured post-mortem of a
quarantined job.
"""

from __future__ import annotations

import json
import os
import reprlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.support.errors import ReproError

#: Job lifecycle states.
JOB_PENDING = "pending"        # queued (initial, and between retries)
JOB_RUNNING = "running"        # dispatched to a worker
JOB_COMPLETED = "completed"    # result available, golden-comparable
JOB_FAILED = "failed"          # quarantined with a JobFailure report
JOB_CANCELLED = "cancelled"    # cancelled by the client

TERMINAL_STATES = (JOB_COMPLETED, JOB_FAILED, JOB_CANCELLED)


@dataclass
class JobSpec:
    """One simulation job: what to run and under which limits.

    ``model`` is a shipped model name or a ``.lisa`` path resolvable by
    the worker; ``program`` is the serialised object file
    (:meth:`repro.tools.objfile.Program.to_dict`).  ``dumps`` lists
    ``(memory, base, length)`` windows returned with the result -- the
    service equivalent of ``repro-sim --dump``.  ``checkpoint_every``
    is the autosnapshot cadence in simulated cycles; every autosnapshot
    streams back to the supervisor and doubles as the heartbeat, so it
    also bounds how much work a crash can lose.  ``fault_plan``
    (chaos harness only) carries serialisable
    :meth:`repro.resilience.faults.FaultInjector.compile_plan` entries.
    """

    model: str
    program: Dict[str, object]
    name: str = "job"
    kind: str = "compiled"
    backend: str = "auto"
    max_cycles: int = 50_000_000
    max_wall_seconds: Optional[float] = None
    checkpoint_every: int = 2_000
    on_self_modify: str = "off"
    tenant: str = "default"
    dumps: Tuple[Tuple[str, int, int], ...] = ()
    fault_plan: Tuple[Dict[str, object], ...] = ()

    def to_dict(self):
        payload = asdict(self)
        payload["dumps"] = [list(entry) for entry in self.dumps]
        payload["fault_plan"] = [dict(entry) for entry in self.fault_plan]
        return payload

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or "model" not in data \
                or "program" not in data:
            raise ReproError(
                "a job spec needs at least 'model' and 'program'"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                "unknown job spec field(s): %s"
                % ", ".join(sorted(unknown))
            )
        spec = cls(**data)
        spec._check_fields()
        spec.dumps = tuple(tuple(entry) for entry in spec.dumps)
        spec.fault_plan = tuple(dict(entry) for entry in spec.fault_plan)
        return spec

    def _check_fields(self):
        """Reject a malformed field at submission.  Inside the service a
        bad shape would surface as a worker fault or a crash of the
        supervisor's own threads, and a bad ``kind``/``backend``/
        ``on_self_modify`` as a compile fault that degrades the job to
        the interpretive kind."""
        from repro.resilience.guard import GUARD_POLICIES
        from repro.sim import SIM_BACKENDS, SIM_KINDS

        def one_of(choices):
            return (lambda value: value in choices,
                    "one of %s" % ", ".join(choices))

        string = (lambda value: isinstance(value, str), "a string")
        positive_int = (_is_positive_int, "a positive integer")
        checks = {
            "model": string,
            "program": (lambda value: isinstance(value, dict),
                        "an object"),
            "name": string,
            "kind": one_of(SIM_KINDS),
            "backend": one_of(SIM_BACKENDS),
            "max_cycles": positive_int,
            "max_wall_seconds": (
                lambda value: value is None or _is_positive_number(value),
                "null or a positive number"),
            "checkpoint_every": positive_int,
            "on_self_modify": one_of(("off",) + GUARD_POLICIES),
            "tenant": string,
            "dumps": (lambda value: _is_list_of(value, _is_dump),
                      "a list of [memory, base, length]"),
            "fault_plan": (
                lambda value: _is_list_of(
                    value, lambda entry: isinstance(entry, dict)),
                "a list of objects"),
        }
        for name, (valid, expected) in checks.items():
            value = getattr(self, name)
            if not valid(value):
                raise ReproError(
                    "job spec field %r is %s (expected %s)"
                    % (name, reprlib.repr(value), expected)
                )


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_int(value):
    return _is_int(value) and value > 0


def _is_positive_number(value):
    return (isinstance(value, float) or _is_int(value)) and value > 0


def _is_list_of(value, valid):
    return isinstance(value, (list, tuple)) and all(map(valid, value))


def _is_dump(entry):
    return (isinstance(entry, (list, tuple)) and len(entry) == 3
            and isinstance(entry[0], str)
            and all(_is_int(n) and n >= 0 for n in entry[1:]))


@dataclass
class ServicePolicy:
    """How the supervisor reacts to failing jobs and workers.

    ``max_retries`` bounds *re*-tries: a job may run at most
    ``max_retries + 1`` attempts before quarantine.  Backoff between
    attempts is exponential, ``backoff_base * 2**(attempt-1)`` capped
    at ``backoff_cap`` seconds.  A worker silent for
    ``heartbeat_timeout`` seconds (no message of any kind) is killed
    and its job treated as crashed.  ``degrade_native`` retries a job
    that crashed under ``backend=native`` at ``backend=auto``;
    ``degrade_compile`` retries a job whose simulation-table compile
    faulted on the ``interpretive`` kind (no table to build).  Both
    degradations are recorded on the job and in ``service.*`` metrics.
    ``report_dir`` (optional) is where quarantine writes each
    :class:`JobFailure` as JSON.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    heartbeat_timeout: float = 30.0
    degrade_native: bool = True
    degrade_compile: bool = True
    report_dir: Optional[str] = None


@dataclass
class TenantBudget:
    """Per-tenant admission limits, enforced at submit time.

    ``max_active_jobs`` bounds concurrently pending+running jobs;
    ``max_total_cycles`` bounds the tenant's lifetime simulated-cycle
    consumption (completed-job cycles accumulate against it);
    ``max_cycles_per_job`` rejects any single job asking for more.
    ``None`` disables a dimension.
    """

    max_active_jobs: Optional[int] = None
    max_total_cycles: Optional[int] = None
    max_cycles_per_job: Optional[int] = None


@dataclass
class JobFailure:
    """The structured post-mortem of a quarantined job.

    ``attempts`` holds one record per failed attempt (cause, error
    kind/message, the cycle position the attempt had reached, worker
    id/exit code); ``degradations`` the policy actions taken along the
    way; ``flight`` the last attempt's flight-recorder events when the
    worker lived long enough to send them (a SIGKILLed worker cannot).
    """

    job_id: str
    name: str
    tenant: str
    cause: str
    attempts: List[Dict[str, object]] = field(default_factory=list)
    degradations: List[Dict[str, object]] = field(default_factory=list)
    flight: List[Dict[str, object]] = field(default_factory=list)
    spec: Dict[str, object] = field(default_factory=dict)

    def to_dict(self):
        return {
            "format": 1,
            "job_id": self.job_id,
            "name": self.name,
            "tenant": self.tenant,
            "cause": self.cause,
            "attempts": list(self.attempts),
            "degradations": list(self.degradations),
            "flight": list(self.flight),
            "spec": dict(self.spec),
        }

    def save(self, directory):
        """Write the report as ``<directory>/<job_id>.json``; returns
        the path (best effort -- an unwritable report directory must
        not take the supervisor down with it)."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "%s.json" % self.job_id)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def spec_summary(spec):
    """The non-bulky part of a spec for status payloads and reports
    (the program image is elided; its name survives)."""
    return {
        "model": spec.model,
        "program": spec.program.get("name", "program"),
        "name": spec.name,
        "kind": spec.kind,
        "backend": spec.backend,
        "max_cycles": spec.max_cycles,
        "max_wall_seconds": spec.max_wall_seconds,
        "checkpoint_every": spec.checkpoint_every,
        "tenant": spec.tenant,
        "fault_plan": [dict(entry) for entry in spec.fault_plan],
    }
