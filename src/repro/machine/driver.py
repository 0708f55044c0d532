"""The generic pipeline driver.

One driver serves every simulator level; only the *front-end* differs:

* interpretive: the front-end fetches, decodes, schedules and binds
  behaviours on every call (all work at run-time),
* compiled levels: the front-end is a table lookup into pre-computed
  issue slots (work moved to simulation-compile time).

Cycle semantics (one :meth:`Pipeline.step`):

1. *advance*: the oldest issue slot retires, everything shifts one stage
   deeper, and (unless stalled or halted) the front-end provides a new
   slot for stage 0 from the current PC; the PC advances past the
   fetched words.
2. *execute*: occupied stages run their micro-operations, **oldest
   (deepest) stage first**.  Same-cycle writes from older instructions
   are therefore visible to younger instructions in earlier stages,
   which yields sequential semantics for interlock-free pipelines and
   exposed-latency semantics (delay slots) when results are written in
   late stages.
3. *control*: a ``flush()`` raised at stage *k* squashes the slots in
   stages younger than *k* in the same cycle, before they execute;
   ``halt()`` additionally stops fetching, and
   :meth:`Pipeline.run_chunk` returns once the pipeline has drained.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

from repro.support.errors import SimulationError


@dataclass(frozen=True)
class IssueSlot:
    """Everything one fetch issues into the pipeline in one cycle.

    For scalar models this is one instruction; for VLIW models one
    *execute packet* (several instructions issued together).

    ``ops_by_stage``
        Per pipeline stage, the tuple of argument-less callables to run
        when the slot occupies that stage.
    ``words``
        Program-memory words consumed (PC advance).
    ``insn_count``
        Instructions contained (statistics).
    ``label``
        Optional human-readable description (tracing/debug).
    """

    ops_by_stage: Tuple[Tuple[object, ...], ...]
    words: int
    insn_count: int
    label: Optional[str] = None


def trap_slot(model, message):
    """An issue slot that raises when (and only when) it executes.

    Front-ends return trap slots for fetches that cannot be decoded or
    fall outside the known program.  The pipeline keeps fetching past
    taken branches and ``halt`` until they execute, so such fetches are
    normal -- they are squashed before their execute stage and the trap
    never fires.  If one *does* reach its execute stage, the program
    really ran into undefined memory and the trap reports it.
    """
    if model.config.execute_stage is not None:
        stage = model.pipeline.stage_index(model.config.execute_stage)
    else:
        stage = model.pipeline.depth - 1

    def trap():
        raise SimulationError(message)

    ops = tuple(
        (trap,) if index == stage else ()
        for index in range(model.pipeline.depth)
    )
    return IssueSlot(ops_by_stage=ops, words=1, insn_count=1, label="<trap>")


class Pipeline:
    """Drives issue slots through the model's pipeline stages.

    Observability: ``step`` is an instance attribute selected by
    :meth:`set_observer` -- the unhooked :meth:`_step_plain` when no
    observer is attached (bytecode-identical to the pre-instrumentation
    hot loop, so the disabled path costs nothing) or
    :meth:`_step_traced`, which additionally emits fetch/bubble/squash
    trace events and updates the metrics registry.
    """

    __slots__ = (
        "_model", "_state", "_control", "_frontend", "_pc_name",
        "_depth", "_read_pc", "_write_pc", "slots", "pcs",
        "cycles", "instructions_retired", "_observer", "step",
    )

    def __init__(self, model, state, control, frontend, observer=None):
        self._model = model
        self._state = state
        self._control = control
        self._frontend = frontend
        self._pc_name = model.pc_name
        self._depth = model.pipeline.depth
        # Bound accessors so the hot loop skips the per-cycle attribute
        # name lookup (the PC register is fixed for the model's lifetime).
        self._read_pc = partial(getattr, state, self._pc_name)
        self._write_pc = partial(setattr, state, self._pc_name)
        self.slots = [None] * self._depth
        # Issue addresses parallel to ``slots`` (None for bubbles):
        # checkpointing captures this window and restore re-fetches it,
        # so in-flight work survives a snapshot on any simulator kind.
        self.pcs = [None] * self._depth
        self.cycles = 0
        self.instructions_retired = 0
        self._observer = None
        self.step = self._step_plain
        if observer is not None:
            self.set_observer(observer)

    def set_observer(self, observer):
        """Attach (or detach, with None) a :class:`repro.obs.Observer`."""
        self._observer = observer
        self.step = (
            self._step_plain if observer is None else self._step_traced
        )

    @property
    def state(self):
        return self._state

    @property
    def control(self):
        return self._control

    @property
    def drained(self):
        return all(slot is None for slot in self.slots)

    @property
    def window_pcs(self):
        """Issue addresses of the in-flight window, stage 0 first."""
        return tuple(self.pcs)

    def wrap_frontend(self, wrapper):
        """Replace the front-end with ``wrapper(current_frontend)``.

        Used by the resilience layer to interpose the program-memory
        write guard between the pipeline and the simulation table.
        """
        self._frontend = wrapper(self._frontend)

    def invalidate(self, pcs):
        """Nothing past the front-end is memoised here: no-op."""

    def restore_window(self, pcs, cycles, instructions_retired):
        """Rebuild the in-flight window from checkpointed issue pcs.

        The front-end is a pure function of (pc, program memory), so
        re-fetching against restored memory reproduces the checkpointed
        slots exactly -- on *any* simulator kind, which is what makes
        checkpoints portable across kinds.
        """
        pcs = list(pcs)
        if len(pcs) != self._depth:
            raise SimulationError(
                "checkpoint window depth %d does not match pipeline "
                "depth %d" % (len(pcs), self._depth)
            )
        self.slots = [
            None if pc is None else self._frontend(pc) for pc in pcs
        ]
        self.pcs = pcs
        self.cycles = cycles
        self.instructions_retired = instructions_retired

    def _step_plain(self):
        """Simulate one cycle (unhooked path; keep in sync with
        :meth:`_step_traced`)."""
        control = self._control
        slots = self.slots
        pcs = self.pcs

        # -- advance ------------------------------------------------------
        retiring = slots.pop()
        pcs.pop()
        if retiring is not None:
            self.instructions_retired += retiring.insn_count
        if control.halted:
            incoming = None
            issue_pc = None
        elif control.stall_cycles > 0:
            control.stall_cycles -= 1
            incoming = None
            issue_pc = None
        else:
            pc = self._read_pc()
            incoming = self._frontend(pc)
            issue_pc = pc if incoming is not None else None
            if incoming is not None:
                self._write_pc(pc + incoming.words)
        slots.insert(0, incoming)
        pcs.insert(0, issue_pc)

        # -- execute (oldest first) + same-cycle flush ---------------------
        for stage in range(self._depth - 1, -1, -1):
            slot = slots[stage]
            if slot is None:
                continue
            if stage < control.flush_below:
                slots[stage] = None
                pcs[stage] = None
                continue
            ops = slot.ops_by_stage[stage]
            if ops:
                control.current_stage = stage
                for fn in ops:
                    fn()
        control.flush_below = -1

        self.cycles += 1

    def _step_traced(self):
        """One cycle with trace hooks (same semantics as
        :meth:`_step_plain`, plus event emission)."""
        control = self._control
        slots = self.slots
        pcs = self.pcs
        observer = self._observer

        # -- advance ------------------------------------------------------
        retiring = slots.pop()
        pcs.pop()
        if retiring is not None:
            self.instructions_retired += retiring.insn_count
        if control.halted:
            incoming = None
            issue_pc = None
            observer.on_bubble(self.cycles, "drain")
        elif control.stall_cycles > 0:
            control.stall_cycles -= 1
            incoming = None
            issue_pc = None
            observer.on_bubble(self.cycles, "stall")
        else:
            pc = self._read_pc()
            incoming = self._frontend(pc)
            issue_pc = pc if incoming is not None else None
            if incoming is not None:
                self._write_pc(pc + incoming.words)
                observer.on_issue(self.cycles, pc, incoming)
            else:
                observer.on_bubble(self.cycles, "frontend")
        slots.insert(0, incoming)
        pcs.insert(0, issue_pc)

        # -- execute (oldest first) + same-cycle flush ---------------------
        squashed = 0
        for stage in range(self._depth - 1, -1, -1):
            slot = slots[stage]
            if slot is None:
                continue
            if stage < control.flush_below:
                slots[stage] = None
                pcs[stage] = None
                squashed += 1
                continue
            ops = slot.ops_by_stage[stage]
            if ops:
                control.current_stage = stage
                for fn in ops:
                    fn()
        control.flush_below = -1
        if squashed:
            observer.on_squash(self.cycles, squashed)

        self.cycles += 1

    def run_chunk(self, cycles):
        """Step for up to ``cycles`` cycles or until halted-and-drained;
        returns how many cycles actually ran.

        The engine's only run primitive: every stop of a run (cycle
        limit, wall deadline, autosnapshot, fault-plan cycle) belongs to
        :meth:`repro.sim.base.Simulator.run`, which calls this between
        them.
        """
        start = self.cycles
        end = start + cycles
        control = self._control
        while self.cycles < end and not (control.halted and self.drained):
            self.step()
        return self.cycles - start
