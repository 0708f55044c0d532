"""Chaos harness: fault schedules and golden comparison for the service.

The service's robustness claim is concrete: a job batch completed
under injected faults -- workers SIGKILLed mid-job, shared-cache
entries corrupted on disk -- must be **bit-identical** to the same
batch run serially with no faults at all.  This module packages what
that takes:

* :func:`build_app_spec` turns a generated application
  (:mod:`repro.apps`) into a :class:`~repro.service.job.JobSpec` whose
  memory dumps cover exactly the app's golden cells;
* :func:`run_reference` produces the serial no-fault golden result for
  one spec, in-process;
* :func:`kill_plan` builds the serialisable SIGKILL schedules the
  workers replay via
  :meth:`repro.resilience.faults.FaultInjector.compile_plan`;
* :func:`corrupt_cache_entries` garbles on-disk simulation-table
  entries so recovery also exercises the cache's corrupt-entry
  quarantine path;
* :func:`run_chaos` drives a whole batch and compares, and
  ``python -m repro.service.chaos`` wraps it for CI.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from repro.service.job import JobSpec
from repro.support.errors import ReproError


def golden_dumps(app):
    """``(memory, base, length)`` windows spanning the app's golden
    cells -- what a job must return for bit-exact comparison."""
    dumps = []
    for memory, cells in sorted(app.expected.items()):
        base = min(cells)
        length = max(cells) - base + 1
        dumps.append((memory, base, length))
    return tuple(dumps)


def build_app_spec(app, toolset=None, **overrides):
    """A :class:`JobSpec` for a generated application.

    ``toolset`` (a :class:`repro.api.Toolset`) is built on demand when
    omitted.  Keyword overrides land on the spec (``kind``,
    ``backend``, ``checkpoint_every``, ``fault_plan``, ...).
    """
    if toolset is None:
        from repro.api import build_toolset, load_model

        toolset = build_toolset(load_model(app.model_name))
    program = app.assemble(toolset)
    fields = {
        "model": app.model_name,
        "program": program.to_dict(),
        "name": app.name,
        "max_cycles": app.max_cycles,
        "dumps": golden_dumps(app),
    }
    fields.update(overrides)
    return JobSpec.from_dict(JobSpec(**fields).to_dict())


def run_reference(spec):
    """The serial, no-fault golden result for one spec (in-process).

    Returns ``{"stats": ..., "memory": ...}`` shaped exactly like the
    service result payload, so comparison is a plain ``==``.
    """
    from repro.service.worker import _dump_memory, _resolve_model
    from repro.sim import create_simulator
    from repro.tools.objfile import Program

    model = _resolve_model(spec.model)
    program = Program.from_dict(spec.program)
    simulator = create_simulator(model, spec.kind, backend=spec.backend)
    simulator.load_program(program)
    stats = simulator.run(spec.max_cycles)
    return {
        "stats": stats.to_dict(),
        "memory": _dump_memory(simulator.state, spec.dumps),
    }


def kill_plan(cycle, attempts=(1,)):
    """A fault plan that SIGKILLs the worker at ``cycle``.

    ``attempts=(1,)`` kills only the first attempt -- the recovery
    scenario: the retry resumes past the kill point from the last
    checkpoint.  ``attempts=None`` kills *every* attempt; paired with
    a kill cycle below the checkpoint cadence it guarantees quarantine
    (no checkpoint ever lands, so no attempt escapes the kill).
    """
    entry = {"cycle": int(cycle), "action": "process_kill", "args": {}}
    if attempts is not None:
        entry["attempts"] = [int(a) for a in attempts]
    return (entry,)


def corrupt_cache_entries(cache_dir, limit=None):
    """Garble on-disk simulation-table entries in-place.

    Returns the number of entries corrupted.  The next worker to load
    one hits the cache's integrity check, which quarantines (deletes)
    the entry, counts ``corrupt_entries``, and rebuilds through the
    single-flight path -- self-healing the service relies on.
    """
    pattern = os.path.join(str(cache_dir), "**", "*.simtab")
    paths = sorted(glob.glob(pattern, recursive=True))
    if limit is not None:
        paths = paths[:limit]
    for path in paths:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            # truncating mid-blob defeats the marshal payload
            # deterministically (overwriting bytes might land inside
            # an unused constant and slip through)
            handle.truncate(max(len(b"reprosimtab"), size // 2))
    return len(paths)


def compare_results(reference, result, label="job"):
    """Raise :class:`ReproError` unless a service result is
    bit-identical to its serial reference (memory dumps and cycle and
    instruction counts; wall time is host noise and excluded)."""
    problems = []
    if result["memory"] != reference["memory"]:
        problems.append("memory dumps differ")
    for key in ("cycles", "instructions"):
        if result["stats"].get(key) != reference["stats"].get(key):
            problems.append(
                "%s differ: %r != %r"
                % (key, result["stats"].get(key),
                   reference["stats"].get(key))
            )
    if problems:
        raise ReproError(
            "%s diverged from the serial no-fault run: %s"
            % (label, "; ".join(problems))
        )


def run_chaos(workers=4, jobs=12, cache_dir=None, report_dir=None,
              kill_cycle=3_000, checkpoint_every=1_000,
              timeout=600.0, taps=8, samples=48):
    """Run a chaos batch; returns a JSON-compatible summary.

    Before the batch, one warmup build populates the shared cache, its
    entries are truncated on disk, and a clean *probe* job is drained:
    the probe hits the corrupt entry, whose quarantine-and-rebuild
    shows up as ``corrupt_entries`` in the service cache metrics.  The
    batch proper then starts with ``workers`` first-attempt SIGKILL
    jobs -- every (idle) worker's first dispatch is a kill job, so
    every worker dies at least once -- with later jobs alternating
    kill plans and clean runs.  The whole batch must complete
    bit-identical to the serial no-fault reference within ``timeout``
    seconds (the bounded-time guarantee).
    """
    from repro.api import build_toolset, load_model
    from repro.apps import build_fir
    from repro.service.job import ServicePolicy
    from repro.service.supervisor import Supervisor

    app = build_fir("c62x", taps=taps, samples=samples)
    toolset = build_toolset(load_model(app.model_name))
    base_spec = build_app_spec(
        app, toolset, checkpoint_every=checkpoint_every
    )
    reference = run_reference(base_spec)
    if cache_dir:
        # warm the shared cache, then corrupt what was stored
        warm = build_app_spec(app, toolset)
        from repro.service.worker import _resolve_model
        from repro.sim import create_simulator
        from repro.simcc.cache import SimulationCache
        from repro.tools.objfile import Program

        warm_sim = create_simulator(
            _resolve_model(warm.model), warm.kind,
            cache=SimulationCache(cache_dir),
        )
        warm_sim.load_program(Program.from_dict(warm.program))
        corrupted = corrupt_cache_entries(cache_dir)
    else:
        corrupted = 0

    policy = ServicePolicy(
        max_retries=3, backoff_base=0.01, backoff_cap=0.25,
        heartbeat_timeout=60.0, report_dir=report_dir,
    )
    specs = []
    for index in range(jobs):
        plan = ()
        if index < workers or index % 2 == 0:
            plan = kill_plan(kill_cycle + 37 * index)
        specs.append(build_app_spec(
            app, toolset, name="chaos-%02d" % index,
            checkpoint_every=checkpoint_every, fault_plan=plan,
        ))

    summary = {
        "workers": workers,
        "jobs": jobs,
        "corrupted_cache_entries": corrupted,
        "killed_jobs": sum(1 for s in specs if s.fault_plan),
        "mismatches": [],
    }
    with Supervisor(workers=workers, cache_dir=cache_dir,
                    policy=policy) as pool:
        if corrupted:
            # the probe repairs the corrupt entry on a worker that
            # survives to report it (a SIGKILLed worker cannot)
            probe = pool.submit(build_app_spec(
                app, toolset, name="chaos-probe",
                checkpoint_every=checkpoint_every,
            ))
            pool.wait(probe, timeout=timeout)
            compare_results(reference, pool.result(probe),
                            label="chaos-probe")
        ids = [pool.submit(spec) for spec in specs]
        pool.drain(timeout=timeout)
        summary["max_attempts"] = 0
        for job_id in ids:
            status = pool.status(job_id)
            summary["max_attempts"] = max(
                summary["max_attempts"], status["attempt"]
            )
            if status["state"] != "completed":
                summary["mismatches"].append(
                    "%s: %s" % (job_id, status["state"])
                )
                continue
            try:
                compare_results(reference, pool.result(job_id),
                                label=job_id)
            except ReproError as exc:
                summary["mismatches"].append(str(exc))
        metrics = pool.metrics_snapshot()
        summary["worker_deaths"] = metrics["counters"].get(
            "service.worker_deaths", 0
        )
        summary["retries"] = metrics["counters"].get(
            "service.retries", 0
        )
        summary["cache"] = metrics["families"].get("service.cache", {})
    summary["ok"] = not summary["mismatches"]
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.chaos",
        description="Chaos-test the simulation service: SIGKILL "
                    "schedules plus cache corruption, verified "
                    "bit-identical against serial no-fault runs.",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=12)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--report-dir", default=None)
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)
    summary = run_chaos(
        workers=args.workers, jobs=args.jobs,
        cache_dir=args.cache_dir, report_dir=args.report_dir,
        timeout=args.timeout,
    )
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
