"""Common simulator shell: state, control, program loading, statistics."""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from repro import obs as _obs
from repro.machine.control import PipelineControl
from repro.machine.state import ProcessorState
from repro.support.errors import (
    ReproError,
    SimulationError,
    SimulationTimeout,
    annotate_simulation_error,
)


@dataclass(frozen=True)
class SimulationStats:
    """Summary of one simulation run.

    ``wall_seconds`` is the host wall-clock time accumulated inside
    :meth:`Simulator.run` (load-time simulation compilation is *not*
    included, matching the paper's split between its Figures 6 and 7).
    """

    cycles: int
    instructions: int
    wall_seconds: float = 0.0

    @property
    def cpi(self):
        """Cycles per instruction; NaN for a run that retired nothing."""
        if self.instructions == 0:
            return float("nan")
        return self.cycles / self.instructions

    @property
    def simulated_cycles_per_second(self):
        """Simulated cycles per host second (the paper's Figure 7 axis);
        NaN when no wall time was recorded."""
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.cycles / self.wall_seconds

    def to_dict(self):
        """JSON-compatible rendering (NaN becomes None)."""

        def _finite(value):
            return value if math.isfinite(value) else None

        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "wall_seconds": self.wall_seconds,
            "cpi": _finite(self.cpi),
            "simulated_cycles_per_second": _finite(
                self.simulated_cycles_per_second
            ),
        }


class Simulator:
    """Base class for all simulator kinds.

    Subclasses implement :meth:`_build_engine`, returning an *engine*:
    the dynamic :class:`repro.machine.Pipeline`, the static scheduler's
    pipeline, or either wrapped for native bursts.  An engine only
    advances time -- ``step()`` runs one cycle and ``run_chunk(n)`` up
    to ``n`` cycles, stopping early only once the program has halted
    and drained -- and exposes ``cycles``, ``instructions_retired``,
    ``drained`` and ``window_pcs``, plus ``restore_window``,
    ``wrap_frontend``, ``set_observer`` and ``invalidate(pcs)`` (drop
    anything memoised from the packets at ``pcs``).  Every stop of a
    run -- cycle limit, wall deadline, autosnapshot, fault-plan cycle
    -- belongs to :meth:`run`'s one loop.

    ``observer`` (a :class:`repro.obs.Observer`) wires the simulator
    into the observability layer: the engines emit per-cycle trace
    events, pipeline control emits stall/flush/halt events, load-time
    simulation compilation records phase spans, and :meth:`run`
    snapshots run-level metrics.  When omitted, the process-wide
    observer installed via :func:`repro.obs.install` applies; with
    neither, every hook site short-circuits on a ``None`` check and the
    pipeline drivers run their unhooked step functions.
    """

    kind = "abstract"

    def __init__(self, model, observer=None):
        self.model = model
        self.state = ProcessorState(model)
        self.control = PipelineControl()
        self.program = None
        self._engine = None
        self._wall_seconds = 0.0
        self._guard_policy = None
        self.guard = None
        self.observer = (
            observer if observer is not None else _obs.get_observer()
        )
        self._wire_observer()

    # -- observability ---------------------------------------------------------

    def _wire_observer(self):
        self.state._obs = self.observer
        self.control.observer = self.observer

    def attach_observer(self, observer):
        """Attach (or detach, with None) an observer; may be called
        before or after :meth:`load_program`."""
        self.observer = observer
        self._wire_observer()
        if self._engine is not None:
            self._engine.set_observer(observer)
        return observer

    def _attach_flight_recording(self, exc):
        """Pin the observer's flight-recorder ring to a failing run's
        exception (``exc.flight_recording``) for post-mortems."""
        observer = self.observer
        if observer is None:
            return exc
        recorder_of = getattr(observer, "flight_recorder", None)
        recorder = recorder_of() if callable(recorder_of) else None
        if recorder is not None:
            exc.flight_recording = recorder.snapshot()
        return exc

    # -- lifecycle -----------------------------------------------------------

    def load_program(self, program):
        """Load ``program`` and prepare the simulation engine.

        For compiled simulators this is where simulation compilation
        happens (decode, sequencing, instantiation); the ``sim.load``
        span (with the compile-phase spans nested inside) makes the
        paper's "compilation speed" (its Figure 6) a built-in
        measurement.
        """
        observer = self.observer
        with _obs.span(
            observer, "sim.load", kind=self.kind,
            program=getattr(program, "name", None),
        ):
            self.state.reset()
            self.control.reset()
            program.load_into(self.state)
            self.program = program
            self._engine = self._build_engine(program)
            if observer is not None:
                self._engine.set_observer(observer)
            self.guard = None
            if self._guard_policy is not None:
                self._arm_guard()
        self._wall_seconds = 0.0
        return self

    def reset(self):
        """Reset state and reload the current program."""
        if self.program is None:
            raise SimulationError("no program loaded")
        self.load_program(self.program)

    def _build_engine(self, program):
        raise NotImplementedError

    @property
    def engine(self):
        if self._engine is None:
            raise SimulationError("no program loaded")
        return self._engine

    # -- resilience: write guard ----------------------------------------------

    def enable_write_guard(self, policy):
        """Watch stores into program memory; degrade per ``policy``.

        ``policy`` is ``"error"`` or ``"recover"`` (see
        :mod:`repro.resilience.guard`); ``None``/``"off"`` disarms.
        May be called before or after :meth:`load_program` -- the guard
        is (re)armed on every program load.  Returns the armed
        :class:`~repro.resilience.guard.ProgramMemoryGuard` (or None
        when disarming).
        """
        if policy in (None, "off"):
            if self.guard is not None:
                self.guard.disarm()
            self._guard_policy = None
            self.guard = None
            return None
        from repro.resilience.guard import GUARD_POLICIES

        if policy not in GUARD_POLICIES:
            raise ReproError(
                "unknown self-modify policy %r (choose from %s)"
                % (policy, ", ".join(GUARD_POLICIES))
            )
        self._guard_policy = policy
        if self._engine is not None:
            self._arm_guard()
        return self.guard

    def _arm_guard(self):
        from repro.resilience.guard import ProgramMemoryGuard

        guard = ProgramMemoryGuard(self, self._guard_policy)
        self.guard = guard.attach(
            self._guard_target(self._engine), self._engine
        )

    def _guard_target(self, engine):
        raise SimulationError(
            "simulator kind %r does not support the program-memory "
            "write guard" % self.kind
        )

    # -- resilience: checkpoint / restore --------------------------------------

    def checkpoint(self, auto=False):
        """Snapshot the run into a portable, resumable
        :class:`repro.resilience.checkpoint.Checkpoint`."""
        from repro.resilience.checkpoint import Checkpoint

        snapshot = Checkpoint.capture(self)
        if self.observer is not None:
            self.observer.on_checkpoint(
                snapshot.cycles, self.kind, auto=auto
            )
        return snapshot

    def restore(self, checkpoint):
        """Resume from a checkpoint (possibly taken under another kind).

        The currently loaded program and model must match the
        checkpoint's digests (:class:`repro.support.errors.CheckpointError`
        otherwise).  Architectural state is restored in place, pipeline
        control is re-established, and the in-flight window is re-fetched
        through this kind's own front-end -- so execution continues
        bit-exactly from the snapshot on *any* simulator kind.
        """
        engine = self.engine
        checkpoint.validate_for(self)
        guard = self.guard
        if guard is not None:
            guard.suspend()
        self.state.restore_snapshot(checkpoint.state)
        self.control.reset()
        self.control.halted = checkpoint.halted
        self.control.stall_cycles = checkpoint.stall_cycles
        if guard is not None:
            guard.resync()
        engine.restore_window(
            checkpoint.window, checkpoint.cycles, checkpoint.instructions
        )
        self._wall_seconds = checkpoint.wall_seconds
        if self.observer is not None:
            self.observer.on_restore(checkpoint.cycles, self.kind)
        return self

    # -- running ---------------------------------------------------------------

    def step(self):
        """Simulate a single cycle."""
        self.engine.step()

    def run(self, max_cycles=50_000_000, budget=None, on_checkpoint=None):
        """Run to completion; returns :class:`SimulationStats`.

        ``budget`` (a :class:`repro.resilience.watchdog.RunBudget`)
        additionally bounds the run by wall-clock time and/or cycles and
        can take periodic autosnapshots, delivered to ``on_checkpoint``.
        Budget exhaustion raises a typed
        :class:`repro.support.errors.SimulationTimeout` carrying the
        position and a checkpoint to :meth:`restore` from; any other
        mid-run :class:`ReproError` is annotated with the cycle count
        and fetch PC before propagating.
        """
        return self._drive(max_cycles, budget, on_checkpoint, ())

    def _drive(self, max_cycles, budget, on_checkpoint, plan):
        """The one loop that drives the engine through a run.

        Its stops, in engine cycles: the cycle limit (counted from this
        call's start), a wall-deadline check at least every
        ``budget.check_interval`` cycles, an autosnapshot every
        ``budget.checkpoint_every`` cycles from the start, and each
        ``(cycle, action)`` of the fault ``plan``.  A fault fires before
        a snapshot or timeout at its cycle, so the snapshot carries it;
        nothing fires once the program has halted and drained.  Between
        stops the engine runs ``run_chunk`` up to the nearest one.  Wall
        time is folded into the stats before each autosnapshot, so the
        snapshot carries it too.
        """
        engine = self.engine
        control = self.control
        clock = time.perf_counter()
        start = engine.cycles
        limit = max_cycles
        deadline = every = next_snapshot = None
        if budget is not None:
            if budget.max_cycles is not None:
                limit = min(limit, budget.max_cycles)
            if budget.max_wall_seconds is not None:
                deadline = clock + budget.max_wall_seconds
            every = budget.checkpoint_every
            if every is not None:
                next_snapshot = start + every
        end = start + limit
        faults = deque(sorted(plan, key=itemgetter(0)))
        timeout = None
        try:
            while not (control.halted and engine.drained):
                now = engine.cycles
                while faults and faults[0][0] <= now:
                    faults.popleft()[1](self)
                if next_snapshot is not None and now >= next_snapshot:
                    tick = time.perf_counter()
                    self._wall_seconds += tick - clock
                    clock = tick
                    snapshot = self.checkpoint(auto=True)
                    if on_checkpoint is not None:
                        on_checkpoint(snapshot)
                    next_snapshot = now + every
                if now >= end:
                    timeout = SimulationTimeout(
                        "simulation exceeded %d cycles without halting"
                        % limit, budget="cycles", limit=limit, cycles=now,
                    )
                    break
                stop = end
                if deadline is not None:
                    if time.perf_counter() >= deadline:
                        timeout = SimulationTimeout(
                            "simulation exceeded wall-clock budget of %gs"
                            % budget.max_wall_seconds, budget="wall",
                            limit=budget.max_wall_seconds, cycles=now,
                        )
                        break
                    stop = min(stop, now + budget.check_interval)
                if next_snapshot is not None:
                    stop = min(stop, next_snapshot)
                if faults:
                    stop = min(stop, faults[0][0])
                engine.run_chunk(stop - now)
        except ReproError as exc:
            raise self._attach_flight_recording(annotate_simulation_error(
                exc, cycles=engine.cycles, pc=self.state.pc
            ))
        finally:
            self._wall_seconds += time.perf_counter() - clock
        if timeout is not None:
            raise self._timed_out(timeout)
        stats = self.stats
        if self.observer is not None:
            self.observer.finish_run(self, stats)
        return stats

    def _timed_out(self, exc):
        """Complete a :class:`SimulationTimeout` raised at the current
        position: fetch pc, a checkpoint to resume from (best-effort),
        the ``on_timeout`` hook and the flight recording."""
        exc.pc = self.state.pc
        try:
            exc.checkpoint = self.checkpoint()
        except ReproError:
            pass  # resumability is best-effort on a timeout
        if self.observer is not None:
            self.observer.on_timeout(exc.budget, exc.cycles, exc.limit)
        return self._attach_flight_recording(exc)

    def run_until(self, predicate, max_cycles=50_000_000):
        """Step until ``predicate(self)`` is true or the program halts.

        The debugger primitive: breakpoints, watchpoints and state
        conditions are all predicates.  Returns True when the predicate
        fired, False when the program halted first.
        """
        engine = self.engine
        try:
            for _ in range(max_cycles):
                if predicate(self):
                    return True
                if self.halted:
                    return False
                engine.step()
        except ReproError as exc:
            raise self._attach_flight_recording(annotate_simulation_error(
                exc, cycles=engine.cycles, pc=self.state.pc
            ))
        raise self._timed_out(SimulationTimeout(
            "run_until exceeded %d cycles" % max_cycles,
            budget="cycles", limit=max_cycles, cycles=engine.cycles,
        ))

    def run_to_pc(self, pc, max_cycles=50_000_000):
        """Run until the next fetch address reaches ``pc`` (breakpoint).

        Note this triggers when the *fetch* PC reaches the address --
        before the instruction there has executed, like a hardware
        breakpoint.
        """
        return self.run_until(
            lambda sim: sim.state.pc == pc, max_cycles
        )

    @property
    def cycles(self):
        return self.engine.cycles

    @property
    def stats(self):
        return SimulationStats(
            cycles=self.engine.cycles,
            instructions=self.engine.instructions_retired,
            wall_seconds=self._wall_seconds,
        )

    @property
    def halted(self):
        return self.control.halted and self.engine.drained
