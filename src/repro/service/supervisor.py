"""The supervisor: a worker-process pool with job resurrection.

The supervisor owns N worker processes (:mod:`repro.service.worker`),
a FIFO job queue, and one duplex pipe per worker.  Its event loop
(:meth:`Supervisor.pump`) multiplexes every worker pipe *and* every
worker process sentinel through one
:func:`multiprocessing.connection.wait` call, so a worker that dies
without a word -- SIGKILL, a segfaulting native burst, the OOM killer
-- wakes the supervisor exactly like a message would.

Failure handling is checkpoint-based: every autosnapshot a worker
streams back replaces the job's resume point, so resurrection on a
fresh worker loses at most ``checkpoint_every`` cycles.  Retries back
off exponentially and are bounded by the
:class:`~repro.service.job.ServicePolicy` retry budget; a job that
keeps dying is quarantined with a structured
:class:`~repro.service.job.JobFailure` report instead of wedging the
pool.  Degradation is policy-driven: a crash under ``backend=native``
retries at ``backend=auto``, a faulting simulation-table compile
retries interpretively.

Threading: public methods take an internal lock and may be called from
any thread (the HTTP front end calls them from handler threads); the
blocking ``wait`` itself runs outside the lock so submits and status
queries never stall behind the poll.  Exactly one thread should drive
:meth:`pump`/:meth:`drain`/:meth:`wait`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.connection import wait as _mp_wait

from repro.obs import MetricsRegistry
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
    spec_summary,
)
from repro.service.worker import worker_main
from repro.support.errors import BudgetExceededError, ServiceError

#: Failure causes treated as worker crashes (resurrect from checkpoint).
CRASH_CAUSES = ("worker_crash", "heartbeat_timeout")


class _Worker:
    """One pool slot: a process, its pipe, and what it is running."""

    __slots__ = ("id", "process", "conn", "job", "last_beat", "kill_cause")

    def __init__(self, worker_id, process, conn):
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.job = None          # job id currently dispatched, if any
        self.last_beat = time.monotonic()
        self.kill_cause = None   # set before a deliberate SIGKILL


class _Job:
    """Supervisor-side job state (specs themselves live in ``spec``)."""

    __slots__ = (
        "id", "spec", "state", "attempt", "attempt_records",
        "degradations", "checkpoint", "cycles", "result", "failure",
        "flight", "next_eligible", "cancel_requested", "error",
        "submitted",
    )

    def __init__(self, job_id, spec):
        self.id = job_id
        self.spec = spec
        self.state = JOB_PENDING
        self.attempt = 0              # attempts started so far
        self.attempt_records = []     # one dict per failed attempt
        self.degradations = []        # policy actions taken
        self.checkpoint = None        # latest resume payload
        self.cycles = 0               # cycle position of that payload
        self.result = None            # set on completion
        self.failure = None           # JobFailure dict on quarantine
        self.flight = []              # last reported flight recording
        self.next_eligible = 0.0      # monotonic dispatch-not-before
        self.cancel_requested = False
        self.error = None             # last in-worker error message
        self.submitted = time.time()


def _pick_context(start_method=None):
    """Fork when the platform has it (workers inherit loaded modules
    for free); spawn otherwise.  ``worker_main`` is module-level, so
    both work."""
    methods = multiprocessing.get_all_start_methods()
    if start_method is None:
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


class Supervisor:
    """A supervised simulation worker pool.

    ``workers`` fixes the pool size (dead workers are replaced, never
    mourned); ``cache_dir`` is the shared simulation-table cache
    directory handed to every worker; ``policy`` a
    :class:`~repro.service.job.ServicePolicy`; ``tenants`` maps tenant
    name to :class:`~repro.service.job.TenantBudget` (absent tenants
    are unmetered).  Usable as a context manager::

        with Supervisor(workers=4, cache_dir=cache) as pool:
            job = pool.submit(spec)
            pool.drain(timeout=120)
            result = pool.result(job)
    """

    def __init__(self, workers=2, cache_dir=None, policy=None,
                 tenants=None, start_method=None):
        if workers < 1:
            raise ServiceError("a pool needs at least one worker")
        self.policy = policy if policy is not None else ServicePolicy()
        self.cache_dir = cache_dir
        self.metrics = MetricsRegistry()
        self._tenants = dict(tenants) if tenants else {}
        self._tenant_cycles = {}
        self._ctx = _pick_context(start_method)
        self._lock = threading.RLock()
        self._jobs = {}
        self._order = []              # job ids in submit order (FIFO)
        self._workers = []
        self._ids = itertools.count(1)
        self._worker_ids = itertools.count(1)
        self._closed = False
        for _ in range(workers):
            self._spawn_worker()

    # -- pool plumbing ------------------------------------------------------

    def _spawn_worker(self):
        worker_id = next(self._worker_ids)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, self.cache_dir),
            name="repro-worker-%d" % worker_id,
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its own end
        worker = _Worker(worker_id, process, parent_conn)
        self._workers.append(worker)
        return worker

    def _kill_worker(self, worker, cause):
        """SIGKILL a worker we have given up on; the death is then
        handled uniformly through its sentinel."""
        worker.kill_cause = cause
        try:
            os.kill(worker.process.pid, signal.SIGKILL)
        except (OSError, TypeError):  # already gone
            pass

    # -- submission and queries ---------------------------------------------

    def submit(self, spec):
        """Queue a job; returns its id.

        ``spec`` is a :class:`~repro.service.job.JobSpec` or its dict
        form.  Raises
        :class:`~repro.support.errors.BudgetExceededError` when the
        tenant's admission budget rejects the job.
        """
        # always a private copy: degradation rewrites spec fields
        # (backend, kind) and must never mutate the caller's object
        spec = JobSpec.from_dict(
            spec.to_dict() if isinstance(spec, JobSpec) else spec
        )
        with self._lock:
            if self._closed:
                raise ServiceError("the supervisor is shut down")
            self._check_tenant_budget(spec)
            job_id = "job-%06d" % next(self._ids)
            self._jobs[job_id] = _Job(job_id, spec)
            self._order.append(job_id)
            self.metrics.inc("service.jobs_submitted")
            self.metrics.bump("service.tenant_jobs", spec.tenant)
            return job_id

    def _check_tenant_budget(self, spec):
        budget = self._tenants.get(spec.tenant)
        if budget is None:
            return
        if (budget.max_cycles_per_job is not None
                and spec.max_cycles > budget.max_cycles_per_job):
            raise BudgetExceededError(
                "tenant %r may run at most %d cycles per job (asked "
                "for %d)" % (spec.tenant, budget.max_cycles_per_job,
                             spec.max_cycles),
                tenant=spec.tenant, budget="max_cycles_per_job",
            )
        if budget.max_active_jobs is not None:
            active = sum(
                1 for job in self._jobs.values()
                if job.spec.tenant == spec.tenant
                and job.state not in TERMINAL_STATES
            )
            if active >= budget.max_active_jobs:
                raise BudgetExceededError(
                    "tenant %r already has %d active job(s) (limit %d)"
                    % (spec.tenant, active, budget.max_active_jobs),
                    tenant=spec.tenant, budget="max_active_jobs",
                )
        if budget.max_total_cycles is not None:
            used = self._tenant_cycles.get(spec.tenant, 0)
            if used >= budget.max_total_cycles:
                raise BudgetExceededError(
                    "tenant %r has consumed %d simulated cycles "
                    "(lifetime limit %d)"
                    % (spec.tenant, used, budget.max_total_cycles),
                    tenant=spec.tenant, budget="max_total_cycles",
                )

    def _job(self, job_id):
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError("unknown job %r" % job_id)
        return job

    def status(self, job_id):
        """The job's current state as a JSON-compatible dict."""
        with self._lock:
            job = self._job(job_id)
            return {
                "job": job.id,
                "name": job.spec.name,
                "tenant": job.spec.tenant,
                "state": job.state,
                "attempt": job.attempt,
                "attempts": list(job.attempt_records),
                "degradations": list(job.degradations),
                "kind": job.spec.kind,
                "backend": job.spec.backend,
                "cycles": job.cycles,
                "cause": (job.failure or {}).get("cause"),
                "error": job.error,
            }

    def result(self, job_id):
        """The completed job's result payload.

        Raises :class:`ServiceError` unless the job completed; a
        quarantined job's error surfaces in the message.
        """
        with self._lock:
            job = self._job(job_id)
            if job.state == JOB_COMPLETED:
                payload = dict(job.result)
                payload["job"] = job.id
                payload["state"] = job.state
                payload["degradations"] = list(job.degradations)
                return payload
            if job.state == JOB_FAILED:
                raise ServiceError(
                    "job %s was quarantined (%s): %s"
                    % (job.id, (job.failure or {}).get("cause"),
                       job.error)
                )
            raise ServiceError(
                "job %s has no result (state: %s)" % (job.id, job.state)
            )

    def failure(self, job_id):
        """The quarantined job's :class:`JobFailure` report dict, or
        ``None`` while the job is not failed."""
        with self._lock:
            return self._job(job_id).failure

    def cancel(self, job_id):
        """Cancel a job: immediately when pending, by killing its
        worker when running; terminal jobs are left untouched."""
        with self._lock:
            job = self._job(job_id)
            if job.state in TERMINAL_STATES:
                return self.status(job_id)
            job.cancel_requested = True
            if job.state == JOB_PENDING:
                job.state = JOB_CANCELLED
                self.metrics.inc("service.jobs_cancelled")
            elif job.state == JOB_RUNNING:
                for worker in self._workers:
                    if worker.job == job.id:
                        self._kill_worker(worker, "cancelled")
                        break
            return self.status(job_id)

    def jobs(self):
        """``[(job_id, state), ...]`` in submission order."""
        with self._lock:
            return [(jid, self._jobs[jid].state) for jid in self._order]

    def metrics_snapshot(self):
        with self._lock:
            return self.metrics.snapshot()

    # -- the event loop -----------------------------------------------------

    def pump(self, timeout=0.05):
        """One event-loop turn: dispatch, wait, handle.  Returns the
        number of worker events handled (0 on a quiet turn)."""
        with self._lock:
            self._enforce_heartbeats()
            self._dispatch()
            waitables = {}
            for worker in self._workers:
                waitables[worker.conn] = worker
                waitables[worker.process.sentinel] = worker
        if not waitables:
            time.sleep(timeout)
            return 0
        ready = _mp_wait(list(waitables), timeout)
        handled = 0
        with self._lock:
            for obj in ready:
                worker = waitables.get(obj)
                if worker is None or worker not in self._workers:
                    continue  # replaced while we were waiting
                handled += 1
                if obj is worker.process.sentinel:
                    self._on_worker_death(worker)
                else:
                    self._drain_conn(worker)
            self._dispatch()
        return handled

    def drain(self, timeout=None, poll=0.05):
        """Pump until every submitted job is terminal.

        Raises :class:`ServiceError` if ``timeout`` (seconds) elapses
        first -- the bounded-time guarantee chaos tests lean on.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            with self._lock:
                if all(job.state in TERMINAL_STATES
                       for job in self._jobs.values()):
                    return
            if deadline is not None and time.monotonic() > deadline:
                with self._lock:
                    stuck = sorted(
                        jid for jid, job in self._jobs.items()
                        if job.state not in TERMINAL_STATES
                    )
                raise ServiceError(
                    "drain timed out after %gs with %d job(s) "
                    "unfinished: %s"
                    % (timeout, len(stuck), ", ".join(stuck))
                )
            self.pump(poll)

    def wait(self, job_id, timeout=None, poll=0.05):
        """Pump until one job is terminal; returns its status dict."""
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            with self._lock:
                job = self._job(job_id)
                if job.state in TERMINAL_STATES:
                    return self.status(job_id)
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    "job %s still %s after %gs"
                    % (job_id, self.status(job_id)["state"], timeout)
                )
            self.pump(poll)

    # -- event handling (lock held) ----------------------------------------

    def _dispatch(self):
        now = time.monotonic()
        for worker in self._workers:
            if worker.job is not None:
                continue
            job = self._next_eligible(now)
            if job is None:
                return
            job.attempt += 1
            job.state = JOB_RUNNING
            worker.job = job.id
            worker.last_beat = now
            try:
                worker.conn.send({
                    "type": "job",
                    "job": job.id,
                    "attempt": job.attempt,
                    "spec": job.spec.to_dict(),
                    "checkpoint": job.checkpoint,
                })
            except (BrokenPipeError, OSError):
                # the worker died between polls; give the attempt back
                # and let the sentinel path replace the worker
                job.attempt -= 1
                job.state = JOB_PENDING
                worker.job = None

    def _next_eligible(self, now):
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state == JOB_PENDING and job.next_eligible <= now:
                return job
        return None

    def _enforce_heartbeats(self):
        limit = self.policy.heartbeat_timeout
        if limit is None:
            return
        now = time.monotonic()
        for worker in self._workers:
            if (worker.job is not None and worker.kill_cause is None
                    and now - worker.last_beat > limit):
                self._kill_worker(worker, "heartbeat_timeout")

    def _drain_conn(self, worker):
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._on_worker_death(worker)
                return
            self._on_message(worker, message)

    def _on_message(self, worker, message):
        worker.last_beat = time.monotonic()
        kind = message.get("type")
        job = self._jobs.get(message.get("job", ""))
        if job is None or worker.job != job.id:
            return  # stale message from a cancelled/replaced attempt
        if kind == "started":
            self.metrics.inc("service.attempts_started")
        elif kind == "checkpoint":
            job.checkpoint = message["payload"]
            job.cycles = message["cycles"]
            self.metrics.inc("service.heartbeats")
        elif kind == "result":
            self._on_result(worker, job, message)
        elif kind == "error":
            self._on_error(worker, job, message)

    def _on_result(self, worker, job, message):
        worker.job = None
        job.state = JOB_COMPLETED
        job.result = {
            "stats": message.get("stats", {}),
            "memory": message.get("memory", []),
            "metrics": message.get("metrics", {}),
            "cache_stats": message.get("cache_stats", {}),
            "attempt": message.get("attempt", job.attempt),
        }
        job.cycles = job.result["stats"].get("cycles", job.cycles)
        tenant = job.spec.tenant
        self._tenant_cycles[tenant] = (
            self._tenant_cycles.get(tenant, 0)
            + int(job.result["stats"].get("cycles") or 0)
        )
        self.metrics.inc("service.jobs_completed")
        self._fold_worker_metrics(job.result["metrics"])
        for key, value in job.result["cache_stats"].items():
            self.metrics.bump("service.cache", key, value)
        if job.cancel_requested:
            # the kill raced the result; the result wins
            job.cancel_requested = False

    def _on_error(self, worker, job, message):
        worker.job = None
        job.error = "%s: %s" % (message.get("error"),
                                message.get("message"))
        job.flight = message.get("flight") or []
        if message.get("checkpoint"):
            job.checkpoint = message["checkpoint"]
            job.cycles = message["checkpoint"].get("cycles", job.cycles)
        for key, value in (message.get("cache_stats") or {}).items():
            self.metrics.bump("service.cache", key, value)
        if job.cancel_requested:
            job.state = JOB_CANCELLED
            self.metrics.inc("service.jobs_cancelled")
            return
        category = message.get("category")
        detail = {
            "category": category,
            "error": message.get("error"),
            "message": message.get("message"),
            "cycles": message.get("cycles"),
            "worker": worker.id,
        }
        if category == "timeout":
            if message.get("budget") == "wall":
                # per-attempt wall budget: resurrect from checkpoint
                self._attempt_failed(job, "wall_timeout", detail)
            else:
                # the job's own cycle budget: deterministic, final
                self._quarantine(job, "cycle_budget_exhausted", detail)
        elif category in ("compile", "stale_table"):
            self._attempt_failed(job, "compile_fault", detail,
                                 retry_only_if_degraded=True)
        else:
            # model/decode/simulation/checkpoint/internal errors are
            # deterministic -- a retry would fail identically
            self._quarantine(job, "%s_error" % category, detail)

    def _on_worker_death(self, worker):
        if worker not in self._workers:
            return
        # a killed worker may have spoken its last words already
        try:
            while worker.conn.poll():
                self._on_message(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass
        self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=5.0)
        exitcode = worker.process.exitcode
        self.metrics.inc("service.worker_deaths")
        self.metrics.bump("service.worker_exit", str(exitcode))
        if not self._closed:
            self._spawn_worker()
        job = self._jobs.get(worker.job) if worker.job else None
        if job is None or job.state != JOB_RUNNING:
            return
        if job.cancel_requested or worker.kill_cause == "cancelled":
            job.state = JOB_CANCELLED
            self.metrics.inc("service.jobs_cancelled")
            return
        cause = worker.kill_cause or "worker_crash"
        self._attempt_failed(job, cause, {
            "worker": worker.id,
            "exitcode": exitcode,
            "cycles": job.cycles,
        })

    # -- failure policy (lock held) ----------------------------------------

    def _attempt_failed(self, job, cause, detail,
                        retry_only_if_degraded=False):
        job.attempt_records.append(
            {"attempt": job.attempt, "cause": cause, **detail}
        )
        degraded = self._maybe_degrade(job, cause)
        if retry_only_if_degraded and not degraded:
            return self._quarantine(job, cause, detail)
        if job.attempt >= self.policy.max_retries + 1:
            return self._quarantine(job, cause, detail)
        delay = min(
            self.policy.backoff_cap,
            self.policy.backoff_base * (2 ** max(job.attempt - 1, 0)),
        )
        job.state = JOB_PENDING
        job.next_eligible = time.monotonic() + delay
        self.metrics.inc("service.retries")

    def _maybe_degrade(self, job, cause):
        spec = job.spec
        policy = self.policy
        if (cause in CRASH_CAUSES and policy.degrade_native
                and spec.backend == "native"):
            spec.backend = "auto"
            action = {
                "attempt": job.attempt, "action": "backend",
                "from": "native", "to": "auto", "cause": cause,
            }
            job.degradations.append(action)
            self.metrics.bump("service.degradations", "native_to_python")
            return True
        if (cause == "compile_fault" and policy.degrade_compile
                and spec.kind not in ("interpretive", "predecoded")):
            action = {
                "attempt": job.attempt, "action": "kind",
                "from": spec.kind, "to": "interpretive", "cause": cause,
            }
            spec.kind = "interpretive"
            spec.backend = "auto"   # untabled kinds take no backend
            job.degradations.append(action)
            self.metrics.bump(
                "service.degradations", "compile_to_interpretive"
            )
            return True
        return False

    def _quarantine(self, job, cause, detail=None):
        if detail is not None and (not job.attempt_records
                                   or job.attempt_records[-1].get(
                                       "attempt") != job.attempt):
            job.attempt_records.append(
                {"attempt": job.attempt, "cause": cause, **detail}
            )
        job.state = JOB_FAILED
        failure = JobFailure(
            job_id=job.id,
            name=job.spec.name,
            tenant=job.spec.tenant,
            cause=cause,
            attempts=list(job.attempt_records),
            degradations=list(job.degradations),
            flight=list(job.flight),
            spec=spec_summary(job.spec),
        )
        job.failure = failure.to_dict()
        self.metrics.inc("service.jobs_quarantined")
        if self.policy.report_dir:
            try:
                failure.save(self.policy.report_dir)
            except OSError:
                pass  # an unwritable report dir must not wedge the pool

    def _fold_worker_metrics(self, snapshot):
        """Accumulate a worker's counters/families into the pool
        registry (gauges and histograms are per-run and stay with the
        job result)."""
        for name, value in (snapshot.get("counters") or {}).items():
            self.metrics.inc(name, value)
        for family, bucket in (snapshot.get("families") or {}).items():
            for key, value in bucket.items():
                self.metrics.bump(family, key, value)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, timeout=5.0):
        """Stop every worker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send({"type": "stop"})
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if worker.process.is_alive():
                self._kill_worker(worker, "shutdown")
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False
