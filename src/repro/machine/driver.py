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

A simulation table knows which stages carry code at all
(``SimulationTable.active_stages``: every stage where some slot has an
op, plus the execute stage, where trap slots raise).  The execute phase
visits only those, deepest first, and then squashes every live slot
below the cycle's final flush mark.  That is exact: the mark only rises
within a cycle, and only to the stage whose op requested it, so a stage
is below the final mark exactly when it was below the mark when its
turn came -- the moment a visit of every stage would have squashed it.
Skipped stages run nothing, so the squash is all they need.  An error
raised at stage *k* ends the cycle before the squash, and then no
deeper stage can be below the mark either (else *k* would be too, and
would have been squashed instead of run).
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
    stage = model.execute_stage_index

    def trap():
        raise SimulationError(message)

    ops = tuple(
        (trap,) if index == stage else ()
        for index in range(model.pipeline.depth)
    )
    return IssueSlot(ops_by_stage=ops, words=1, insn_count=1, label="<trap>")


def all_stages(depth):
    """Every stage of a ``depth``-stage pipeline, deepest first."""
    return tuple(range(depth - 1, -1, -1))


class Pipeline:
    """Drives issue slots through the model's pipeline stages.

    ``active_stages`` are the stages the execute phase visits, deepest
    first: a simulation table's ``active_stages``, or every stage when
    omitted (the interpretive and predecoded front-ends have no table).
    :meth:`wrap_frontend` puts the pipeline back on every stage, because
    the slots a wrapper serves may carry code anywhere.

    Observability: with no observer attached, :meth:`run_chunk` runs
    the cycle body inline (:meth:`_run_plain`) and ``step`` is its
    one-cycle case, :meth:`_step_plain`; with one, both go through
    :meth:`_step_traced`, which additionally emits fetch/bubble/squash
    trace events and updates the metrics registry.
    """

    __slots__ = (
        "_model", "_state", "_control", "_frontend", "_pc_name",
        "_depth", "_read_pc", "_write_pc", "_active", "slots", "pcs",
        "cycles", "instructions_retired", "_observer", "step",
    )

    def __init__(self, model, state, control, frontend, observer=None,
                 active_stages=None):
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
        self._active = (
            all_stages(self._depth) if active_stages is None
            else active_stages
        )
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
    def active_stages(self):
        """The stages the execute phase visits, deepest first."""
        return self._active

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
        write guard between the pipeline and the simulation table.  The
        guard's recompiled and interpreted slots may use stages where
        the table has no code, so from here on every stage is visited.
        """
        self._frontend = wrapper(self._frontend)
        self._active = all_stages(self._depth)

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

    def run_chunk(self, cycles):
        """Step for up to ``cycles`` cycles or until halted-and-drained;
        returns how many cycles actually ran.

        The engine's only run primitive: every stop of a run (cycle
        limit, wall deadline, autosnapshot, fault-plan cycle) belongs to
        :meth:`repro.sim.base.Simulator.run`, which calls this between
        them.
        """
        control = self._control
        if cycles <= 0 or (control.halted and self.drained):
            return 0
        if self._observer is None:
            return self._run_plain(cycles)
        start = self.cycles
        end = start + cycles
        while True:
            self._step_traced()
            if self.cycles >= end or (control.halted and self.drained):
                return self.cycles - start

    def _step_plain(self):
        """Simulate one cycle: the plain loop's one-cycle case."""
        self._run_plain(1)

    def _run_plain(self, cycles):
        """Run at least one and up to ``cycles`` cycles with no
        observer, stopping early once halted and drained; returns the
        cycles run.  Keep the cycle body in sync with
        :meth:`_step_traced`.

        The front-end and the active stages are read every cycle: the
        write guard can wrap the front-end from inside an op.  The
        counters live in locals and are written back even when an op
        raises, so an error leaves them where a per-cycle step would.
        """
        control = self._control
        slots = self.slots
        pcs = self.pcs
        read_pc = self._read_pc
        write_pc = self._write_pc
        retired = self.instructions_retired
        ran = 0
        try:
            while True:
                # -- advance ----------------------------------------------
                retiring = slots.pop()
                pcs.pop()
                if retiring is not None:
                    retired += retiring.insn_count
                if control.halted:
                    incoming = None
                    issue_pc = None
                elif control.stall_cycles > 0:
                    control.stall_cycles -= 1
                    incoming = None
                    issue_pc = None
                else:
                    pc = read_pc()
                    incoming = self._frontend(pc)
                    issue_pc = pc if incoming is not None else None
                    if incoming is not None:
                        write_pc(pc + incoming.words)
                slots.insert(0, incoming)
                pcs.insert(0, issue_pc)

                # -- execute (oldest first) + same-cycle flush -------------
                for stage in self._active:
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
                below = control.flush_below
                if below > 0:
                    # squash what the visit skipped (see the module doc)
                    slots[:below] = [None] * below
                    pcs[:below] = [None] * below
                control.flush_below = -1

                ran += 1
                if ran >= cycles or (
                    control.halted and all(s is None for s in slots)
                ):
                    return ran
        finally:
            self.cycles += ran
            self.instructions_retired = retired

    def _step_traced(self):
        """One cycle with trace hooks (same semantics as
        :meth:`_run_plain`, plus event emission; visits every stage)."""
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
