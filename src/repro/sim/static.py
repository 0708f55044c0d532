"""Static scheduling of the simulation table (paper Section 3).

Dynamic scheduling selects the operations of the instructions
overlapping in the pipeline at run-time, cycle by cycle.  *Static*
scheduling performs that composition once per pipeline occupancy: for a
window of issue addresses in flight, the cross-instruction *column* of
the simulation table (the paper's Figure 3) is flattened into a single
operation list -- or, at level 3, fused into one generated function
(full simulation-loop unfolding).

Implementation: pipeline occupancies are interned as *window nodes*.
A node carries the composed column and a transition dictionary keyed by
the next fetch address, so the steady-state loop body runs as

    node = node.next[pc]; for fn in node.column: fn()

with no per-cycle allocation, no table lookup and no per-stage
scheduling -- the paper's "operations scheduled at compile time".

Windows containing instructions that may raise pipeline-control
requests (flush/stall/halt) are never composed statically, because
same-cycle squash semantics require per-stage interleaving; those
cycles fall back to the dynamic path, and a flush re-interns the
squashed window.  PC redirection needs no special handling: the fetch
address is read from the live PC, so delay-slot branches work inside
static columns.

That is the only rule.  A composed column runs the same ops in the same
deepest-stage-first order as the dynamic per-stage path, so a window
whose in-flight packets read and write the same storage across cycles
(a cross-cycle data hazard, which :mod:`repro.analysis` reports as a
lint finding) composes and still delivers every value at the same time.
"""

from __future__ import annotations

from functools import partial

from repro.machine.driver import all_stages
from repro.sim.base import Simulator
from repro.simcc import ir
from repro.simcc.generator import generate_simulation_compiler
from repro.support.errors import SimulationError


class _WindowNode:
    """One interned pipeline occupancy."""

    __slots__ = ("pcs", "slots", "column", "retire_insns", "empty", "next")

    def __init__(self, pcs, slots, column, retire_insns, empty):
        self.pcs = pcs  # tuple of issue pcs (None = bubble), stage 0 first
        self.slots = slots  # parallel tuple of IssueSlots / None
        self.column = column  # flattened ops (oldest first) or None
        self.retire_insns = retire_insns  # insn_count leaving on advance
        self.empty = empty
        self.next = {}  # incoming pc (or None) -> _WindowNode


class StaticPipeline:
    """Pipeline driver running statically scheduled columns.

    Windows that run dynamically visit only the table's active stages
    (see :class:`repro.machine.driver.Pipeline`), or every stage once
    :meth:`wrap_frontend` has interposed a front-end.  With no observer,
    :meth:`run_chunk` runs the cycle body inline (:meth:`_run_plain`)
    and :meth:`step` is its one-cycle case.

    A program's loops make the interned window graph cyclic (through
    ``_WindowNode.next``); the pipeline unlinks it when it is freed, so
    the graph, its slots and its columns go with it by reference
    counting.
    """

    __slots__ = (
        "_model", "_state", "_control", "_table", "_frontend",
        "_column_compiler", "_pc_name", "_depth", "_read_pc",
        "_write_pc", "_active", "_interned", "_root", "_node", "cycles",
        "instructions_retired", "_observer",
    )

    def __init__(self, model, state, control, table, column_compiler=None,
                 observer=None):
        self._model = model
        self._state = state
        self._control = control
        self._table = table
        self._frontend = table.make_frontend(model)
        self._column_compiler = column_compiler
        self._pc_name = model.pc_name
        self._depth = model.pipeline.depth
        # Bound accessors: the hot loop reads/writes the PC every cycle
        # and the register name never changes after construction.
        self._read_pc = partial(getattr, state, self._pc_name)
        self._write_pc = partial(setattr, state, self._pc_name)
        self._active = (
            all_stages(self._depth) if table.active_stages is None
            else table.active_stages
        )
        self._observer = observer
        self._interned = {}
        self._root = self._intern((None,) * self._depth, (None,) * self._depth)
        self._node = self._root
        self.cycles = 0
        self.instructions_retired = 0

    def __del__(self):
        self._unlink()

    def set_observer(self, observer):
        """Attach (or detach, with None) a :class:`repro.obs.Observer`."""
        self._observer = observer

    # -- bookkeeping ----------------------------------------------------------

    @property
    def active_stages(self):
        """The stages a dynamic window visits, deepest first."""
        return self._active

    @property
    def drained(self):
        return self._node.empty

    @property
    def window_pcs(self):
        """Issue addresses of the in-flight window, stage 0 first."""
        return tuple(self._node.pcs)

    def wrap_frontend(self, wrapper):
        """Replace the front-end with ``wrapper(current_frontend)`` (the
        resilience write guard interposes here); flushes the interned
        window graph so cached transitions cannot bypass the wrapper,
        and visits every stage from here on, as
        :meth:`repro.machine.driver.Pipeline.wrap_frontend` does."""
        self._frontend = wrapper(self._frontend)
        self._active = all_stages(self._depth)
        self.invalidate(())

    def invalidate(self, pcs):
        """Drop every interned window and cached transition.

        Called after simulation-table entries at ``pcs`` are invalidated
        (self-modifying code): any interned node may hold their
        pre-fetched slots or pre-composed columns, so future transitions
        must re-fetch through the (guarded) front-end.  The current
        in-flight window keeps its already-fetched slots -- matching
        hardware, where instructions past fetch execute the code that
        was fetched.
        """
        self._unlink()
        depth = self._depth
        self._root = self._intern((None,) * depth, (None,) * depth)

    def _unlink(self):
        """Cut every transition of the interned window graph and forget
        the nodes (the current one keeps its window)."""
        for node in self._interned.values():
            node.next.clear()
        self._node.next.clear()
        self._interned = {}

    def restore_window(self, pcs, cycles, instructions_retired):
        """Rebuild the in-flight window from checkpointed issue pcs by
        replaying the fetches through the (pure) front-end -- see
        :meth:`repro.machine.driver.Pipeline.restore_window`."""
        pcs = tuple(pcs)
        if len(pcs) != self._depth:
            raise SimulationError(
                "checkpoint window depth %d does not match pipeline "
                "depth %d" % (len(pcs), self._depth)
            )
        node = self._root
        for pc in reversed(pcs):  # oldest instruction advances first
            slot = None if pc is None else self._frontend(pc)
            node = self._advance_node(node, pc, slot)
        self._node = node
        self.cycles = cycles
        self.instructions_retired = instructions_retired

    # -- interning --------------------------------------------------------------

    def _intern(self, pcs, slots):
        node = self._interned.get(pcs)
        if node is None:
            node = _WindowNode(
                pcs=pcs,
                slots=slots,
                column=self._compose_column(pcs, slots),
                retire_insns=slots[-1].insn_count if slots[-1] else 0,
                empty=all(pc is None for pc in pcs),
            )
            self._interned[pcs] = node
        return node

    def _advance_node(self, node, pc, slot):
        """The interned node for ``node``'s window shifted by one fetch."""
        next_node = node.next.get(pc)
        if next_node is None:
            pcs = (pc,) + node.pcs[:-1]
            slots = (slot,) + node.slots[:-1]
            next_node = self._intern(pcs, slots)
            node.next[pc] = next_node
        return next_node

    def _compose_column(self, pcs, slots):
        """Statically schedule one occupancy, or None if it contains a
        control-capable (or unknown/trap) instruction."""
        observer = self._observer
        has_control = self._table.has_control
        for pc in pcs:
            if pc is not None and has_control.get(pc, True):
                if observer is not None:
                    observer.on_fallback(pcs, pc, "control")
                return None
        if self._column_compiler is not None:
            return self._column_compiler(pcs, slots)
        ops = []
        for stage in range(self._depth - 1, -1, -1):
            slot = slots[stage]
            if slot is not None:
                ops.extend(slot.ops_by_stage[stage])
        return tuple(ops)

    # -- execution ----------------------------------------------------------------

    def step(self):
        """One cycle: the plain loop's one-cycle case, or a traced cycle
        when an observer is attached (see
        :meth:`repro.machine.driver.Pipeline.step`)."""
        if self._observer is None:
            self._run_plain(1)
        else:
            self._step_traced()

    def _run_plain(self, cycles):
        """Run at least one and up to ``cycles`` cycles with no
        observer, stopping early once halted and drained; returns the
        cycles run (see :meth:`repro.machine.driver.Pipeline._run_plain`).
        Keep the cycle body in sync with :meth:`_step_traced`."""
        control = self._control
        read_pc = self._read_pc
        write_pc = self._write_pc
        node = self._node
        retired = self.instructions_retired
        ran = 0
        try:
            while True:
                # -- advance ----------------------------------------------
                retired += node.retire_insns
                if control.halted:
                    node = self._advance_node(node, None, None)
                elif control.stall_cycles > 0:
                    control.stall_cycles -= 1
                    node = self._advance_node(node, None, None)
                else:
                    pc = read_pc()
                    next_node = node.next.get(pc)
                    if next_node is None:
                        next_node = self._advance_node(
                            node, pc, self._frontend(pc)
                        )
                    node = next_node
                    write_pc(pc + node.slots[0].words)

                # -- execute -------------------------------------------------
                # the window advances before it executes, so an error
                # raised at execute leaves it where the dynamic driver's
                # and a burst's is
                self._node = node
                column = node.column
                if column is not None:
                    for fn in column:
                        fn()
                else:
                    node = self._node = self._execute_dynamic(node, control)

                ran += 1
                if ran >= cycles or (control.halted and node.empty):
                    return ran
        finally:
            self.cycles += ran
            self.instructions_retired = retired

    def _step_traced(self):
        """One cycle with trace hooks (same semantics as
        :meth:`_run_plain`); counts static vs dynamic cycles and emits
        fetch/bubble/squash events so the metrics agree with the
        per-fetch simulator kinds even across cached transitions."""
        control = self._control
        node = self._node
        observer = self._observer

        # -- advance ------------------------------------------------------
        self.instructions_retired += node.retire_insns
        if control.halted:
            next_node = self._advance_node(node, None, None)
            observer.on_bubble(self.cycles, "drain")
        elif control.stall_cycles > 0:
            control.stall_cycles -= 1
            next_node = self._advance_node(node, None, None)
            observer.on_bubble(self.cycles, "stall")
        else:
            pc = self._read_pc()
            next_node = node.next.get(pc)
            if next_node is None:
                slot = self._frontend(pc)
                next_node = self._advance_node(node, pc, slot)
            self._write_pc(pc + next_node.slots[0].words)
            observer.on_issue(self.cycles, pc, next_node.slots[0])

        # -- execute ---------------------------------------------------------
        self._node = next_node
        column = next_node.column
        if column is not None:
            observer.on_static_cycle()
            for fn in column:
                fn()
        else:
            observer.on_dynamic_cycle()
            entered = next_node
            next_node = self._node = self._execute_dynamic(next_node,
                                                           control)
            if next_node is not entered:
                squashed = sum(
                    1 for before, after in zip(entered.pcs, next_node.pcs)
                    if before is not None and after is None
                )
                if squashed:
                    observer.on_squash(self.cycles, squashed)
        self.cycles += 1

    def _execute_dynamic(self, node, control):
        """Per-stage execution over the active stages with flush
        handling; returns the node for the (possibly squashed) resulting
        window."""
        slots = node.slots
        squashed = None
        for stage in self._active:
            slot = slots[stage]
            if slot is None:
                continue
            if stage < control.flush_below:
                if squashed is None:
                    squashed = list(node.pcs)
                squashed[stage] = None
                continue
            ops = slot.ops_by_stage[stage]
            if ops:
                control.current_stage = stage
                for fn in ops:
                    fn()
        below = control.flush_below
        control.flush_below = -1
        for stage in range(below - 1, -1, -1):
            # squash what the visit skipped (see repro.machine.driver)
            if slots[stage] is not None:
                if squashed is None:
                    squashed = list(node.pcs)
                squashed[stage] = None
        if squashed is None:
            return node
        new_slots = tuple(
            slot if pc is not None else None
            for pc, slot in zip(squashed, node.slots)
        )
        return self._intern(tuple(squashed), new_slots)

    def run_chunk(self, cycles):
        """Step for up to ``cycles`` cycles or until halted-and-drained;
        returns the cycles actually run (see
        :meth:`repro.machine.driver.Pipeline.run_chunk`)."""
        control = self._control
        if cycles <= 0 or (control.halted and self._node.empty):
            return 0
        if self._observer is None:
            return self._run_plain(cycles)
        start = self.cycles
        end = start + cycles
        while True:
            self._step_traced()
            if self.cycles >= end or (control.halted and self._node.empty):
                return self.cycles - start


class _ColumnFuser:
    """Level-3 column fusion for one bound table (see
    :class:`StaticScheduledSimulator`).

    It holds the table, state, control and the simulator's
    ``column_stats``, never the simulator, so a finished simulator is
    freed by reference counting.  ``count`` counts the fused columns.
    """

    __slots__ = ("_table", "_state", "_control", "_model", "_stats",
                 "count")

    def __init__(self, model, table, state, control, stats):
        self._model = model
        self._table = table
        self._state = state
        self._control = control
        self._stats = stats
        self.count = 0

    def __call__(self, pcs, slots):
        """Fuse a whole pipeline column into one generated function.

        The column concatenates the lowered IR of each in-flight
        instruction, deepest stage (oldest instruction) first, then
        re-runs dead-write elimination: composition opens exactly one
        new optimisation -- a write made dead by a younger instruction
        writing the same cell later in the same cycle.  A column of one
        function opens none (that function already went through the
        passes), so it runs the slot's bound op as it stands.  A slot
        binds one op per IR function, so only a column that fuses reads
        its packets' IR (and, on a table loaded from the cache, decodes
        it).
        """
        stages = [
            stage for stage in range(self._model.pipeline.depth - 1, -1, -1)
            if slots[stage] is not None and slots[stage].ops_by_stage[stage]
        ]
        if not stages:
            return ()
        first = slots[stages[0]].ops_by_stage[stages[0]]
        if len(stages) == 1 and len(first) == 1:
            return first
        ir_by_stage = self._table.ir_by_stage
        ops = [
            op for stage in stages
            for func in ir_by_stage[pcs[stage]][stage]
            for op in func.ops
        ]
        self.count += 1
        func = ir.optimize_column(
            "column_%d" % self.count, ops, self._model, stats=self._stats,
        )
        return (ir.compile_function(func, self._state, self._control),)


class StaticScheduledSimulator(Simulator):
    """Simulation-table simulator with static scheduling.

    ``cache`` behaves as on
    :class:`repro.sim.compiled.CompiledSimulator`.  Level-3 column
    *fusion* concatenates the lowered per-stage IR of every in-flight
    instruction (oldest first), re-runs dead-write elimination over the
    combined sequence -- a write superseded by a younger instruction in
    the same cycle is dropped -- and compiles one function per interned
    occupancy that joins two or more functions; a column of one
    function runs the table's bound op.  Every level-3 table is bound
    from a portable table, so the IR is always there, cached or not.
    ``column_stats`` accumulates the pass counters across every fused
    column (the ``dead_writes_removed`` count is the observable proof
    that column DCE fires).
    """

    def __init__(self, model, level="sequenced", cache=None,
                 observer=None, backend="auto"):
        super().__init__(model, observer=observer)
        self._level = level
        self._simcc = generate_simulation_compiler(model, validate=False)
        self._cache = cache
        self.backend = backend
        self.table = None
        self.column_stats = ir.PassStats()

    @property
    def kind(self):
        if self._level == "sequenced":
            return "static"
        return "unfolded_static"

    @property
    def level(self):
        return self._level

    @property
    def cache(self):
        return self._cache

    def _guard_target(self, engine):
        from repro.resilience.guard import TableGuardTarget

        return TableGuardTarget(self, engine)

    def _build_engine(self, program):
        from repro.sim.compiled import (
            build_simulation_table,
            maybe_wrap_native,
        )

        self.table = build_simulation_table(self, program)
        fuser = None
        if self._level == "instantiated":
            fuser = _ColumnFuser(self.model, self.table, self.state,
                                 self.control, self.column_stats)
        engine = StaticPipeline(
            self.model, self.state, self.control, self.table,
            column_compiler=fuser,
        )
        return maybe_wrap_native(self, engine)
