"""The hybrid burst engine: native cycles when proven, Python otherwise.

:class:`NativePipeline` wraps any engine satisfying the simulator
engine contract (the dynamic :class:`repro.machine.driver.Pipeline` or
the static scheduler's pipeline) and drives *bursts* of cycles through
the compiled ``repro_burst`` entry whenever the whole pipeline window
consists of natively-proven packets.  The Python<->C boundary is
crossed once per burst: state is pushed into the flat layout buffer,
the burst runs until completion / budget / a fetch of a non-native
packet / a trap, state is pulled back and the inner engine is re-synced
through its ``restore_window``.  The wrapped
:class:`repro.machine.state.ProcessorState` therefore stays the single
source of truth at every burst boundary -- checkpoints, guards and
observers keep working unchanged.

Observability: per-cycle trace events cannot be emitted from C, so an
observer in ``trace`` mode disables bursts and the run takes the
per-cycle Python path, events complete.  An observer in ``profile`` or
``counters`` mode keeps bursting when the module was built with
telemetry: the generated C counts per-packet dispatches and attributed
cycles into a side-region of the state buffer, and the engine flushes
that region into the observer's :class:`repro.obs.MetricsRegistry`
after every burst -- per-packet counters come out bit-identical to a
per-cycle traced run.  Bursts are also disabled for packets the
self-modifying-code guard has invalidated
(:meth:`NativePipeline.invalidate`).

:meth:`repro.sim.base.Simulator.run` owns every stop of a run (cycle
limit, wall deadline, autosnapshot, fault-plan cycle) and calls
:meth:`NativePipeline.run_chunk` between them, so bursts run right up
to each stop.
"""

from __future__ import annotations

from array import array

from repro.simcc.native import layout as L
from repro.support.errors import SimulationError

#: Burst exit codes (mirrored in the generated C).
EXIT_COMPLETED = 0
EXIT_BUDGET = 1
EXIT_NEED_PYTHON = 2
EXIT_TRAP = 3


def _trap_exception(code, trap_pc):
    if code == L.TRAP_DIV_ZERO:
        return ZeroDivisionError("integer division or modulo by zero")
    if code == L.TRAP_NEG_SHIFT:
        return ValueError("negative shift count")
    if code == L.TRAP_INDEX:
        return IndexError("list index out of range")
    if code == L.TRAP_NEG_STALL:
        return SimulationError("stall() needs a non-negative cycle count")
    if code == L.TRAP_UNDEFINED:
        return SimulationError(
            "fetch outside the compiled region (pc=0x%x)" % trap_pc
        )
    return SimulationError("native burst trapped with unknown code %d"
                           % code)


class NativePipeline:
    """Engine wrapper dispatching proven windows to compiled bursts."""

    def __init__(self, inner, state, control, module):
        self._inner = inner
        self._state = state
        self._control = control
        self._module = module
        self._observer = None
        layout = module.layout
        plan = module.plan
        self._telemetry = getattr(module, "telemetry", None)
        self._tel_seed_pc = None
        self._buf = layout.new_buffer(
            self._telemetry.slots if self._telemetry is not None else 0
        )
        self._buf_addr = self._buf.buffer_info()[0]
        # Packets that must run through the Python path: table packets
        # the analysis rejected (plus, later, guard-invalidated ones).
        # Table holes and out-of-range addresses stay native -- the
        # burst fetches them as trap pseudo-slots like the front-end.
        self._python_pcs = set(plan.reasons)
        self._ok = array("q", b"\x01\x00\x00\x00\x00\x00\x00\x00"
                         * plan.n_pc)
        for pc in self._python_pcs:
            self._ok[pc - plan.pc_base] = 0
        self._ok_addr = self._ok.buffer_info()[0]
        #: Per-window dispatch counters, surfaced through observability.
        self.dispatch_counts = {
            "bursts": 0,
            "native_cycles": 0,
            "python_cycles": 0,
            "need_python_exits": 0,
            "traps": 0,
        }

    # -- delegation ---------------------------------------------------------

    @property
    def cycles(self):
        return self._inner.cycles

    @property
    def instructions_retired(self):
        return self._inner.instructions_retired

    @property
    def drained(self):
        return self._inner.drained

    @property
    def window_pcs(self):
        return self._inner.window_pcs

    def step(self):
        self._step_python()

    def set_observer(self, observer):
        self._observer = observer
        self._inner.set_observer(observer)

    def restore_window(self, pcs, cycles, instructions_retired):
        self._inner.restore_window(pcs, cycles, instructions_retired)

    def wrap_frontend(self, wrapper):
        self._inner.wrap_frontend(wrapper)

    def invalidate(self, pcs):
        """Permanently demote ``pcs`` to the Python path.

        Called by the resilience guard when a program-memory write
        lands inside a packet: the compiled artifact still encodes the
        *old* micro-ops, so those windows must never burst again.  The
        guard's refreshed table serves them through the inner engine,
        which drops its own memoised windows too.
        """
        plan = self._module.plan
        for pc in pcs:
            if plan.pc_base <= pc < plan.pc_limit:
                self._ok[pc - plan.pc_base] = 0
            self._python_pcs.add(pc)
        self._inner.invalidate(pcs)

    # -- execution ----------------------------------------------------------

    def run_chunk(self, cycles):
        control = self._control
        start = self.cycles
        end = start + cycles
        while self.cycles < end and not (
            control.halted and self._inner.drained
        ):
            if self._can_burst():
                rc = self._burst(end - self.cycles)
                if rc == EXIT_NEED_PYTHON:
                    self._step_python()
            else:
                self._step_python()
        return self.cycles - start

    def _step_python(self):
        self._inner.step()
        self.dispatch_counts["python_cycles"] += 1

    def _can_burst(self):
        observer = self._observer
        if observer is not None:
            # Trace-mode observers (and anything not declaring its
            # needs) require one event per cycle: Python path.  Profile
            # and counters modes are served by the telemetry flush --
            # but only when the module was built instrumented.
            if self._telemetry is None:
                return False
            if getattr(observer, "wants_cycle_events", True):
                return False
        python_pcs = self._python_pcs
        for pc in self._inner.window_pcs:
            if pc is not None and pc in python_pcs:
                return False
        return True

    def _burst(self, budget):
        inner = self._inner
        control = self._control
        module = self._module
        layout = module.layout
        buf = self._buf

        before = inner.cycles
        buf[L.HDR_CYCLES] = before
        buf[L.HDR_INSNS] = inner.instructions_retired
        buf[L.HDR_HALTED] = 1 if control.halted else 0
        buf[L.HDR_STALL] = control.stall_cycles
        buf[L.HDR_FLUSH_BELOW] = -1
        buf[L.HDR_CUR_STAGE] = -1
        buf[L.HDR_TRAP_CODE] = 0
        for depth_index, pc in enumerate(inner.window_pcs):
            buf[L.WIN_BASE + depth_index] = -1 if pc is None else pc
        layout.push(self._state, buf, module.push_set)
        telemetry = self._telemetry
        if telemetry is not None and self._observer is not None:
            # Seed the attribution anchor: bubbles at the head of the
            # burst bill to the packet the Python path issued last.
            seed = getattr(self._observer, "last_issue_pc", None)
            self._tel_seed_pc = seed
            buf[telemetry.base + L.TEL_LAST] = -1 if seed is None else seed

        rc = module.burst(self._buf_addr, self._ok_addr, budget)

        layout.pull(self._state, buf, module.pull_set)
        control.halted = bool(buf[L.HDR_HALTED])
        control.stall_cycles = buf[L.HDR_STALL]
        control.flush_below = -1
        pcs = tuple(
            None if buf[L.WIN_BASE + d] < 0 else buf[L.WIN_BASE + d]
            for d in range(layout.depth)
        )
        inner.restore_window(pcs, buf[L.HDR_CYCLES], buf[L.HDR_INSNS])

        counts = self.dispatch_counts
        counts["bursts"] += 1
        counts["native_cycles"] += buf[L.HDR_CYCLES] - before
        if telemetry is not None and self._observer is not None:
            # Flush before any trap re-raise: the cycles leading up to
            # the trap are exactly what a post-mortem wants counted.
            self._flush_telemetry()
        if rc == EXIT_NEED_PYTHON:
            counts["need_python_exits"] += 1
        if rc == EXIT_TRAP:
            counts["traps"] += 1
            raise _trap_exception(buf[L.HDR_TRAP_CODE],
                                  buf[L.HDR_TRAP_PC])
        return rc

    def _flush_telemetry(self):
        """Fold the burst's telemetry side-region into the observer's
        metrics and zero it for the next burst."""
        telemetry = self._telemetry
        buf = self._buf
        plan = self._module.plan
        base = telemetry.base
        last = buf[base + L.TEL_LAST]
        self._observer.on_burst_telemetry(
            pc_base=plan.pc_base,
            dispatch=buf[telemetry.disp_base:
                         telemetry.disp_base + telemetry.n_pc],
            cycles=buf[telemetry.cyc_base:
                       telemetry.cyc_base + telemetry.n_pc],
            insns=plan.metric_insns,
            drain_bubbles=buf[base + L.TEL_DRAIN],
            stall_bubbles=buf[base + L.TEL_STALL],
            squashed=buf[base + L.TEL_SQUASH],
            ctrl_stalls=buf[base + L.TEL_CTRL_STALL],
            ctrl_flushes=buf[base + L.TEL_CTRL_FLUSH],
            ctrl_halts=buf[base + L.TEL_CTRL_HALT],
            stray_cycles=buf[base + L.TEL_STRAY_CYC],
            stray_pc=self._tel_seed_pc,
            last_pc=None if last < 0 else last,
        )
        buf[base:base + telemetry.slots] = array(
            "q", bytes(8 * telemetry.slots)
        )
