"""Measure one ledger workload in this process.

Run from the repository root::

    python3 benchmarks/ledger/run.py --workload short_warm --seed 11 \\
        --seconds 12 --trace 0

The process sets up (imports, input generation, cache warm-up, worker
pool), then runs whole rounds of the workload's jobs until ``--seconds``
have passed.  A job goes from LISA text and assembly source to a final
state checked against the golden model; it also fails when its
``(cycles, retired)`` differ from another job of the same program.
Every metric is printed by name with its unit.  The second-to-last line
is ``LEDGER <json>``, the complete record; the last line is the JSON
result holding the metrics ``BENCHMARK.json`` lists: its ``end_to_end``
ones, or with ``--trace 1`` its ``per_layer`` ones.

Rates are medians over *windows*, one per round.  Every job is preceded
by a sample of :mod:`benchmarks.ledger.calibrate`'s reference work; a
window's time leaves the samples out and is normalised by their median
to the reference host's speed, and so is set-up time.  A traced run
measures half its time untraced and half with the layer wrappers of
:mod:`benchmarks.ledger.tracer` installed; its end-to-end metrics come
from the untraced half.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from benchmarks.ledger import calibrate, tracer, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_PY = os.path.join(HERE, "run.py")
WORK_ROOT = os.path.join(HERE, ".work")

#: Set-ups per untraced full-scale run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Calibration samples taken right after a set-up to normalise it.
SETUP_SAMPLES = 15
#: The service load: a closed loop with this many jobs outstanding.
SERVICE_OUTSTANDING = 2
SERVICE_WORKERS = 2
CHECKPOINT_EVERY = 5000
#: ``job_p95_s`` is reported only with at least ten samples beyond it.
P95_MIN_SAMPLES = 200

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p95_s": "s",
    "sim_cps": "cycles/s",
    "e2e_cps": "cycles/s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "host.speed": "ratio",
}


def unit_of(name):
    """The unit of any metric the ledger reports."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_per_s"):  # simcc.insn_per_s -> insn/s
        return name.rsplit(".", 1)[-1][:-len("_per_s")] + "/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        return json.load(h)


@dataclass
class Outcome:
    """One finished job.  ``error`` is None for a verified job; ``done``
    is when the job finished, on the :func:`time.perf_counter` clock;
    ``cal`` is the calibration sample taken for it."""

    job_id: str
    key: str
    wall: float
    done: float = 0.0
    cycles: int = 0
    retired: int = 0
    run_s: float = 0.0
    error: Optional[str] = None
    cache_stats: Optional[dict] = None
    queue_s: float = 0.0
    exec_s: float = 0.0
    cal: float = 0.0


@dataclass
class Phase:
    """The outcomes of one measured phase, in finishing order."""

    outcomes: list
    start: float
    window: int
    service_counters: dict = field(default_factory=dict)

    @property
    def verified(self):
        return [o for o in self.outcomes if o.error is None]

    def windows(self):
        """``(verified outcomes, wall seconds, slowdown)`` per ``window``
        finished jobs.  The wall time leaves out the calibration samples
        and is normalised by the window's slowdown."""
        previous = self.start
        for first in range(0, len(self.outcomes), self.window):
            chunk = self.outcomes[first:first + self.window]
            slow = calibrate.slowdown([o.cal for o in chunk])
            wall = chunk[-1].done - previous - sum(o.cal for o in chunk)
            previous = chunk[-1].done
            yield [o for o in chunk if o.error is None], wall / slow, slow


class _Dumped:
    """A service result's memory windows, read like a processor state,
    so :meth:`repro.apps.Application.verify` checks them."""

    def __init__(self, rows):
        self._cells = {
            (memory, base + offset): value
            for memory, base, values in rows
            for offset, value in enumerate(values)
        }

    def read_memory(self, memory, address):
        return self._cells.get((memory, address))


def _error(exc):
    return "%s: %s" % (type(exc).__name__, exc)


class Run:
    """Set-up, measured phases and checks of one workload."""

    def __init__(self, name, seed, smoke, workdir):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.lisa = None  # (source text, path) of the c62x model
        self.workload = None
        self.cache_root = None
        self.pool = None
        self.specs = None
        self.expected = {}  # program key -> (cycles, retired)
        self._ids = 0

    # -- set-up -------------------------------------------------------------

    def setup(self):
        """Imports, inputs, cache warm-up and worker pool."""
        # Everything a job reaches lazily, so no job pays a first import.
        import repro.analysis.absint  # noqa: F401
        import repro.resilience.watchdog  # noqa: F401
        import repro.simcc.native  # noqa: F401
        import repro.simcc.portable  # noqa: F401
        from repro.models import model_source, model_source_path

        self.lisa = (model_source("c62x"), model_source_path("c62x"))
        self.workload = workloads.build(self.name, self.seed, self.smoke)
        if self.workload.cache == "warm":
            self.cache_root = self.fresh_dir("cache")
        warmups = 1 if self.workload.cache == "warm" else 0
        if self.workload.service:
            from repro.service.chaos import build_app_spec

            self.specs = [
                (job, build_app_spec(job.app, kind=job.kind,
                                     backend=job.backend,
                                     checkpoint_every=CHECKPOINT_EVERY))
                for job in self.workload.jobs
            ]
            self.start_pool()
            # Workers build the telemetry variant of each native module
            # (they run a counters-mode observer): the first round
            # fills the cache, the second loads every module.
            warmups = 2
        for _ in range(warmups):
            failed = [o for o in self.phase(0).outcomes if o.error]
            if failed:
                raise RuntimeError("warm-up job failed: " + failed[0].error)

    def start_pool(self):
        from repro.api import load_model
        from repro.service import Supervisor

        load_model("c62x")  # forked workers inherit the compiled model
        self.pool = Supervisor(workers=SERVICE_WORKERS,
                               cache_dir=self.cache_root)

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def fresh_dir(self, prefix):
        return tempfile.mkdtemp(prefix=prefix + "-", dir=self.workdir)

    def _next_id(self):
        self._ids += 1
        return "j%d" % self._ids

    # -- measurement --------------------------------------------------------

    def phase(self, seconds, rec=None):
        """Run whole rounds until ``seconds`` have passed, at least one;
        ``rec`` records their spans."""
        phase = Phase([], time.perf_counter(), len(self.workload.jobs))
        while True:
            if self.workload.service:
                self._service_round(phase, rec)
            else:
                cache_root = (self.fresh_dir("cold")
                              if self.workload.cache == "cold"
                              else self.cache_root)
                for job in self.workload.jobs:
                    phase.outcomes.append(self._run_job(job, cache_root, rec))
            if time.perf_counter() - phase.start >= seconds:
                return phase

    def _run_job(self, job, cache_root, rec):
        cal = calibrate.sample()
        job_id = self._next_id()
        if rec is not None:
            rec.job = job_id
        start = time.perf_counter()
        stats, cache_stats, error = None, None, None
        with rec.span("job") if rec is not None else nullcontext():
            try:
                stats, cache_stats = self._execute(job, cache_root)
            except Exception as exc:  # a failing job is counted, not fatal
                error = _error(exc)
        done = time.perf_counter()
        outcome = Outcome(job_id, job.key, done - start, done, error=error,
                          cache_stats=cache_stats, cal=cal)
        if stats is not None:
            outcome.cycles = stats.cycles
            outcome.retired = stats.instructions
            outcome.run_s = stats.wall_seconds
        return self._cross_check(outcome)

    def _execute(self, job, cache_root):
        # Module attributes are looked up per call, so a traced run's
        # wrappers see these calls.
        from repro.api import build_toolset
        from repro.lisa import semantics
        from repro.sim import create_simulator
        from repro.simcc.cache import SimulationCache

        model = semantics.compile_source(*self.lisa)
        program = build_toolset(model).assembler.assemble_text(
            job.app.source, name=job.app.name)
        cache = SimulationCache(cache_root) if cache_root else None
        simulator = create_simulator(model, job.kind, backend=job.backend,
                                     cache=cache)
        simulator.load_program(program)
        stats = simulator.run(job.app.max_cycles)
        job.app.verify(simulator.state)
        return stats, (dict(cache.stats) if cache is not None else None)

    def _cross_check(self, outcome):
        if outcome.error is None:
            seen = (outcome.cycles, outcome.retired)
            first = self.expected.setdefault(outcome.key, seen)
            if seen != first:
                outcome.error = (
                    "%s reported (cycles, retired) %s, another job of the "
                    "same program %s" % (outcome.key, seen, first))
        return outcome

    def _service_round(self, phase, rec):
        """One round through the pool.  Its calibration samples are
        taken first, while the workers are idle."""
        from repro.service.job import (
            JOB_COMPLETED,
            JOB_PENDING,
            TERMINAL_STATES,
        )

        pool = self.pool
        before = pool.metrics_snapshot()["counters"]
        samples = deque(calibrate.sample() for _ in self.specs)
        queue = deque(self.specs)
        outstanding = {}  # job id -> [job, submitted, first seen running]
        while queue or outstanding:
            while queue and len(outstanding) < SERVICE_OUTSTANDING:
                job, spec = queue.popleft()
                job_id = pool.submit(spec)
                outstanding[job_id] = [job, time.perf_counter(), None]
                pool.pump(0)  # dispatch now
            pool.pump(0.05)
            now = time.perf_counter()
            for job_id, entry in list(outstanding.items()):
                state = pool.status(job_id)["state"]
                if entry[2] is None and state != JOB_PENDING:
                    entry[2] = now
                if state in TERMINAL_STATES:
                    del outstanding[job_id]
                    result = (pool.result(job_id) if state == JOB_COMPLETED
                              else None)
                    phase.outcomes.append(self._service_outcome(
                        job_id, entry, now, result, rec, samples.popleft()))
        after = pool.metrics_snapshot()["counters"]
        for name in ("service.heartbeats", "service.retries"):
            phase.service_counters[name] = (
                phase.service_counters.get(name, 0)
                + after.get(name, 0) - before.get(name, 0))

    def _service_outcome(self, job_id, entry, done, result, rec, cal):
        job, submitted, running = entry
        running = done if running is None else running
        if rec is not None:
            rec.job = job_id
        outcome = Outcome(job_id, job.key, 0.0, queue_s=running - submitted,
                          exec_s=done - running, cal=cal)
        checked = time.perf_counter()
        if result is None:
            outcome.error = self.pool.status(job_id)["error"] or "failed"
        else:
            stats = result["stats"]
            outcome.cycles = stats["cycles"]
            outcome.retired = stats["instructions"]
            outcome.run_s = stats["wall_seconds"]
            outcome.cache_stats = result["cache_stats"]
            try:
                job.app.verify(_Dumped(result["memory"]))
            except Exception as exc:  # a failing job is counted, not fatal
                outcome.error = _error(exc)
        outcome.done = time.perf_counter()
        outcome.wall = outcome.done - submitted
        if rec is not None:
            # Children: queue, exec, then the golden check from
            # ``checked`` on; what is left is noticing the result.
            rec.add("service.queue", submitted, running, running - submitted,
                    1, "job")
            rec.add("service.exec", running, done, done - running, 1, "job")
            rec.add("job", submitted, outcome.done, checked - done)
        return self._cross_check(outcome)


# -- metrics -------------------------------------------------------------------


def jobs_per_s(phase):
    return statistics.median(
        len(verified) / wall for verified, wall, _ in phase.windows())


def end_to_end(phase, setup_s, rss_mb):
    """The end-to-end metrics, every time normalised per window."""
    windows = list(phase.windows())
    walls = [o.wall / slow for verified, _, slow in windows
             for o in verified]
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": jobs_per_s(phase),
        "job_p50_s": statistics.median(walls) if walls else 0.0,
        "sim_cps": statistics.median(
            slow * tracer.ratio(sum(o.cycles for o in verified),
                                sum(o.run_s for o in verified))
            for verified, _, slow in windows),
        "e2e_cps": statistics.median(
            sum(o.cycles for o in verified) / wall
            for verified, wall, _ in windows),
        "peak_rss_mb": rss_mb,
    }
    if len(walls) >= P95_MIN_SAMPLES:
        metrics["job_p95_s"] = statistics.quantiles(walls, n=20)[18]
    return metrics


def normalised(metrics, slow):
    """``metrics`` with times divided and rates multiplied by ``slow``."""
    out = {}
    for name, value in metrics.items():
        unit = unit_of(name)
        if unit == "s":
            value /= slow
        elif unit.endswith("/s"):
            value *= slow
        out[name] = value
    return out


def setup_seconds(t0):
    """Seconds since ``t0``, normalised by samples taken right after."""
    elapsed = time.perf_counter() - t0
    return elapsed / calibrate.slowdown(
        [calibrate.sample() for _ in range(SETUP_SAMPLES)])


def counters(run, phases):
    """Counts every run reports: correctness totals, cache outcomes and
    the service's own bookkeeping."""
    outcomes = [o for phase in phases for o in phase.outcomes]
    failed = sum(1 for o in outcomes if o.error)
    keys = [job.key for job in run.workload.jobs]
    metrics = {
        "fail_ratio": failed / len(outcomes),
        # one round's totals: the same seed must give the same numbers
        "sim.cycles": sum(run.expected.get(key, (0, 0))[0] for key in keys),
        "sim.retired": sum(run.expected.get(key, (0, 0))[1] for key in keys),
    }
    stats = {}
    for outcome in outcomes:
        for name, value in (outcome.cache_stats or {}).items():
            stats[name] = stats.get(name, 0) + value
    hits = stats.get("memory_hits", 0) + stats.get("disk_hits", 0)
    metrics["cache.hit_ratio"] = tracer.ratio(
        hits, hits + stats.get("misses", 0))
    metrics["cache.native_hit_ratio"] = tracer.ratio(
        stats.get("native_hits", 0),
        stats.get("native_hits", 0) + stats.get("native_misses", 0))
    verified = [o for phase in phases for o in phase.verified]
    if run.workload.service and verified:
        metrics.update({
            "service.queue_wait_s": statistics.median(
                o.queue_s for o in verified),
            "service.exec_s": statistics.median(o.exec_s for o in verified),
            "service.worker_run_s": statistics.median(
                o.run_s for o in verified),
            "service.overhead_s": statistics.median(
                o.exec_s - o.run_s for o in verified),
            "service.checkpoints_per_job": sum(
                p.service_counters["service.heartbeats"] for p in phases)
            / len(verified),
            "service.retries": sum(
                p.service_counters["service.retries"] for p in phases),
            "service.worker_cache_memory_hits": stats.get("memory_hits", 0),
        })
    return metrics


def peak_rss_mb():
    """This process's peak RSS plus that of its largest reaped child
    (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_fingerprint():
    import importlib.util

    from repro.simcc import verify
    from repro.simcc.native import toolchain

    cc = toolchain.find_compiler()
    head = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        head = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "compiler": toolchain.compiler_identity(cc) if cc else None,
        "loader": "cffi" if importlib.util.find_spec("cffi") else "ctypes",
        "git_head": head,
        "verify_ir": verify.enabled(),
    }


# -- entry point -----------------------------------------------------------------


def _setup_child(args):
    """Set-up time of one fresh process, first line to ready."""
    cmd = [sys.executable, RUN_PY, "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _traced_phases(args, run):
    """An untraced half, then a traced half; returns both phases and the
    traced half's spans."""
    plain = run.phase(args.seconds / 2)
    rec = tracer.Recorder()
    span_dir = None
    if run.workload.service:
        run.close()
        span_dir = run.fresh_dir("spans")
    with tracer.installed(rec, span_dir):
        if span_dir is not None:
            # Workers fork with the wrappers in place.  One round warms
            # the new pool; its jobs are left out of the layer metrics.
            run.start_pool()
            run.phase(0)
        traced = run.phase(args.seconds / 2, rec)
        run.close()  # each worker writes its spans as it stops
    spans = rec.spans
    if span_dir is not None:
        spans += tracer.load_worker_spans(span_dir)
    return [plain, traced], spans


def _measure(args, run, t0):
    run.setup()
    setups = [setup_seconds(t0)]
    if args.trace:
        phases, spans = _traced_phases(args, run)
    else:
        phases = [run.phase(args.seconds)]
    run.close()  # reap the workers before reading their peak RSS
    rss = peak_rss_mb()
    if not args.trace and args.scale == "full":
        setups += [_setup_child(args) for _ in range(SETUP_REPEATS - 1)]
    slow = calibrate.slowdown(
        [o.cal for phase in phases for o in phase.outcomes])
    metrics = end_to_end(phases[0], statistics.median(setups), rss)
    metrics["host.speed"] = 1.0 / slow
    layers = counters(run, phases)
    if args.trace:
        traced = phases[1]
        layers.update(tracer.layer_metrics(
            spans, {o.job_id for o in traced.outcomes}))
    metrics.update(normalised(layers, slow))
    if args.trace:
        metrics["trace.overhead_ratio"] = (
            jobs_per_s(traced) / metrics["jobs_per_s"])
        tracer.write_chrome_trace(
            os.path.join(WORK_ROOT, "traces", "%s-s%d.json"
                         % (args.workload, args.seed)),
            spans, metrics, "ledger " + args.workload)
    outcomes = [o for phase in phases for o in phase.outcomes]
    errors = [o.error for o in outcomes if o.error]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": bool(args.trace),
        "attempted": len(outcomes),
        "failed": len(errors),
        "errors": errors[:5],
        "samples": {"jobs": len(phases[0].outcomes),
                    "round": len(run.workload.jobs),
                    "phase_s": phases[0].outcomes[-1].done - phases[0].start,
                    "setups": len(setups),
                    "reference_s": calibrate.REFERENCE_S},
        "host": host_fingerprint(),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Measure one performance-ledger workload.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=load_benchmark()["run_seconds"],
                        help="length of the measured phase (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also measure per-layer spans")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny programs and one set-up")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None, t0=None):
    t0 = time.perf_counter() if t0 is None else t0
    args = _parse(argv)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    os.environ["TMPDIR"] = workdir  # cc and tempfile write inside it
    tempfile.tempdir = None
    run = Run(args.workload, args.seed, args.scale == "smoke", workdir)
    try:
        if args.setup_only:
            run.setup()
            print(json.dumps({"setup_s": setup_seconds(t0)}))
            return 0
        record = _measure(args, run, t0)
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print_record(record)
    print("LEDGER " + json.dumps(record, sort_keys=True))
    section = "per_layer" if args.trace else "end_to_end"
    metrics = record["metrics"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {entry["name"]: metrics[entry["name"]]
                    for entry in load_benchmark()[section]},
    }))
    return 0


def print_record(record):
    samples = record["samples"]
    print("%s  seed %d  %d jobs in windows of %d over %.1f s, %d failed, "
          "%d set-up(s)"
          % (record["workload"], record["seed"], samples["jobs"],
             samples["round"], samples["phase_s"], record["failed"],
             samples["setups"]))
    for error in record["errors"]:
        print("  error: %s" % error)
    for name, metric in record["metrics"].items():
        print("  %-34s %16.6g %s" % (name, metric["value"], metric["unit"]))


def parse_output(text):
    """``(record, result)`` from a run's standard output."""
    lines = text.strip().splitlines()
    ledger = [line for line in lines if line.startswith("LEDGER ")]
    return json.loads(ledger[-1][len("LEDGER "):]), json.loads(lines[-1])
