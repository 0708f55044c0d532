"""The worker process: runs one job at a time, streams progress back.

A worker is a long-lived child process holding one end of a duplex
pipe.  It loops receiving ``job`` messages, runs each under the
existing :class:`repro.resilience.watchdog.RunBudget` machinery with
periodic autosnapshots, and reports back with a small message
vocabulary:

``started``
    The job message was received; carries the worker pid and attempt.
``checkpoint``
    One autosnapshot (``checkpoint_every`` cadence); carries the full
    resumable payload.  Doubles as the heartbeat -- a worker making
    progress is never silent for long.
``result``
    The job halted; carries run statistics, the requested memory
    dumps, the worker's :mod:`repro.obs` metrics snapshot and the
    shared-cache statistics.
``error``
    The job failed *in process* (model error, timeout, compile fault,
    simulation error); carries a category the supervisor's degradation
    policy dispatches on, the flight recording, and -- for timeouts --
    the resume checkpoint.

A worker that dies without a word (SIGKILL, native crash) is detected
by the supervisor through its process sentinel; that path deliberately
has no code here -- it must work when no code can run.
"""

from __future__ import annotations

import os
import signal

from repro.support.errors import (
    CheckpointError,
    DecodeError,
    ReproError,
    SimulationTimeout,
    StaleTableError,
)


def _resolve_model(spec_model):
    from repro.api import compile_lisa_file, list_models, load_model

    if spec_model in list_models():
        return load_model(spec_model)
    return compile_lisa_file(spec_model)


def classify_error(exc, phase):
    """Map an in-worker exception to a degradation-policy category.

    Any error while the job's model is read and compiled (phase
    ``model``) is category ``model``: the same spec fails identically on
    every retry and on every kind, so it is neither degraded nor
    retried.
    """
    if phase == "model":
        return "model"
    if not isinstance(exc, ReproError):
        return "internal"
    if isinstance(exc, SimulationTimeout):
        return "timeout"
    if isinstance(exc, StaleTableError):
        return "stale_table"
    if isinstance(exc, CheckpointError):
        return "checkpoint"
    if isinstance(exc, DecodeError):
        return "decode"
    if phase == "load":
        return "compile"
    return "simulation"


def _dump_memory(state, dumps):
    """The requested ``(memory, base, length)`` windows as JSON-safe
    ``[memory, base, [values...]]`` rows."""
    rows = []
    for memory, base, length in dumps:
        values = [
            state.read_memory(memory, base + offset)
            for offset in range(length)
        ]
        rows.append([memory, base, values])
    return rows


def run_job(conn, message, cache_dir):
    """Run one job message to a ``result``/``error`` reply on ``conn``."""
    from repro import obs
    from repro.resilience.checkpoint import Checkpoint
    from repro.resilience.faults import FaultInjector
    from repro.resilience.watchdog import RunBudget
    from repro.service.job import JobSpec
    from repro.sim import create_simulator
    from repro.tools.objfile import Program

    spec = JobSpec.from_dict(message["spec"])
    job_id = message["job"]
    attempt = int(message.get("attempt", 1))
    observer = obs.Observer(mode=obs.COUNTERS_MODE, record=False)
    recorder = observer.enable_flight_recorder(128)
    conn.send({
        "type": "started", "job": job_id, "attempt": attempt,
        "pid": os.getpid(),
    })
    phase = "model"
    cache = None
    try:
        model = _resolve_model(spec.model)
        phase = "load"
        program = Program.from_dict(spec.program)
        if cache_dir:
            from repro.simcc.cache import SimulationCache

            cache = SimulationCache(cache_dir)
        simulator = create_simulator(
            model, spec.kind, cache=cache, observer=observer,
            on_self_modify=(spec.on_self_modify
                            if spec.on_self_modify != "off" else None),
            backend=spec.backend,
        )
        simulator.load_program(program)
        resume_cycles = 0
        if message.get("checkpoint"):
            snapshot = Checkpoint.from_payload(message["checkpoint"])
            simulator.restore(snapshot)
            resume_cycles = snapshot.cycles
        phase = "run"
        # a beat between the (potentially slow) load and the first
        # autosnapshot, so model compilation never reads as a wedge
        conn.send({"type": "progress", "job": job_id, "phase": "loaded"})
        budget = RunBudget(
            max_wall_seconds=spec.max_wall_seconds,
            checkpoint_every=spec.checkpoint_every,
            check_interval=4_096,
        )

        def on_checkpoint(snapshot):
            conn.send({
                "type": "checkpoint", "job": job_id,
                "cycles": snapshot.cycles,
                "payload": snapshot.to_payload(),
            })

        if spec.fault_plan:
            injector = FaultInjector(observer)
            plan = injector.compile_plan(
                spec.fault_plan, attempt=attempt,
                resume_cycles=resume_cycles,
            )
            stats = injector.run_with_faults(
                simulator, plan, max_cycles=spec.max_cycles,
                budget=budget, on_checkpoint=on_checkpoint,
            )
        else:
            stats = simulator.run(
                spec.max_cycles, budget=budget,
                on_checkpoint=on_checkpoint,
            )
        conn.send({
            "type": "result", "job": job_id, "attempt": attempt,
            "stats": stats.to_dict(),
            "memory": _dump_memory(simulator.state, spec.dumps),
            "metrics": observer.snapshot(),
            "cache_stats": dict(cache.stats) if cache is not None else {},
        })
    except Exception as exc:  # never take the worker loop down on a job
        checkpoint = getattr(exc, "checkpoint", None)
        conn.send({
            "type": "error", "job": job_id, "attempt": attempt,
            "phase": phase,
            "category": classify_error(exc, phase),
            "error": type(exc).__name__,
            "message": str(exc),
            "budget": getattr(exc, "budget", None),
            "cycles": getattr(exc, "cycles", None),
            "checkpoint": (checkpoint.to_payload()
                           if checkpoint is not None else None),
            "flight": recorder.snapshot(),
            "cache_stats": dict(cache.stats) if cache is not None else {},
        })


def worker_main(conn, worker_id, cache_dir=None):
    """The worker process entry point: serve jobs until told to stop.

    SIGINT is ignored so an interactive Ctrl-C reaches only the
    supervisor, which then shuts the pool down deliberately.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message.get("type")
            if kind == "stop":
                break
            if kind == "job":
                try:
                    run_job(conn, message, cache_dir)
                except (BrokenPipeError, OSError):
                    break  # supervisor went away mid-report
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
