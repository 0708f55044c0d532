"""Program-memory write guard: self-modifying code under compiled simulation.

Compiled simulation bakes decode and sequencing results into the
simulation table at simulation-compile time.  A program that writes into
its own program memory invalidates that work: the table still holds the
*old* instruction's behaviours, so the simulation silently diverges from
the interpretive reference.  The guard closes this coherence hole:

* program-memory storage is wrapped in :class:`GuardedMemory`, a list
  subclass whose ``__setitem__`` notifies the guard (generated and
  interpreted behaviour code writes resources through plain list item
  assignment, so every store path is covered);
* the guard maps each written address to the issue packets whose encoding
  covers it and marks those packets *stale*;
* the write that first marks a packet stale wraps the engine's
  front-end, so a fetch of a stale packet degrades per policy instead
  of executing stale behaviours (until then every fetch is clean, and
  the front-end runs unwrapped):

  ``error``
      raise a typed :class:`repro.support.errors.StaleTableError` at the
      *write* (fail fast, the conservative default semantics),
  ``recover``
      on the first stale fetch of a packet, re-decode just that packet
      from live program memory through the existing simulation-compiler
      pipeline (and cache) and patch the simulation table in place; a
      packet written again after that recompile is served from an
      interpretive fetch-decode-execute fallback from then on, so code
      the program keeps rewriting stops paying a compile per write while
      the rest of the program keeps its compiled speed.

Every degradation is observable: ``resilience.self_mod_writes``,
``resilience.invalidated_packets``, ``resilience.recompiled_packets``
and ``resilience.interpreted_fetches`` metrics plus
``resilience.self_modify`` / ``resilience.resolve`` trace events.
"""

from __future__ import annotations

from repro.machine.packets import packet_extent
from repro.support.errors import StaleTableError
from repro.tools.objfile import Program

GUARD_POLICIES = ("error", "recover")


class GuardedMemory(list):
    """Program-memory storage that notifies the guard on item stores.

    A plain ``list`` subclass so that *reads* (the hot fetch path and all
    behaviour loads) keep native list speed; only ``__setitem__`` pays
    for the hook, and only a single attribute load + None check when no
    guard is armed.
    """

    __slots__ = ("on_write",)

    def __init__(self, iterable=()):
        list.__init__(self, iterable)
        self.on_write = None

    def __setitem__(self, index, value):
        list.__setitem__(self, index, value)
        hook = self.on_write
        if hook is not None:
            hook(index)


class ProgramMemoryGuard:
    """Watches stores into the program region and degrades per policy.

    One guard serves one loaded program on one simulator; it is re-armed
    by ``Simulator.load_program``.  The kind-specific coupling (how to
    enumerate packets, how to invalidate and re-materialise them) lives
    in a small *target* adapter supplied by the simulator -- see
    :class:`TableGuardTarget`, :class:`PredecodedGuardTarget` and
    :class:`CoherentGuardTarget` below.
    """

    def __init__(self, simulator, policy):
        # ``policy`` was checked by Simulator.enable_write_guard
        self.simulator = simulator
        self.policy = policy
        self.stale = set()
        # packet issue pcs recover has recompiled once; a later stale
        # fetch of one of them is interpreted instead
        self.recompiled = set()
        self.stats = {
            "program_writes": 0,
            "self_mod_writes": 0,
            "invalidated_packets": 0,
            "recompiled_packets": 0,
            "interpreted_fetches": 0,
        }
        self._pmem_name = simulator.model.config.program_memory
        self._target = None
        self._engine = None
        self._interposed = False
        # address -> set of packet issue pcs whose encoding covers it
        self._covering = {}
        # packet issue pc -> words covered (for incremental re-covering)
        self._extent_of = {}
        self._suspended = False
        # the interpretive fetch serving rewritten packets (lazy)
        self._interpreter = None

    @property
    def observer(self):
        # Read through to the simulator so attach_observer on the
        # simulator is immediately visible here too.
        return self.simulator.observer

    # -- arming ------------------------------------------------------------

    def attach(self, target, engine):
        """Arm the guard: wrap program memory and build the cover map.

        The fetch interposer is not installed here but by the write that
        first marks a packet stale (:meth:`_note_write`).  That is exact
        because the interposer diverts only fetches of stale pcs, and
        ``stale`` grows only in :meth:`_note_write` -- and in
        :meth:`resync`, from packets :meth:`_resolve` recompiled, which
        only the installed interposer calls.  Every engine reads its
        front-end at each fetch, and the static engine flushes its
        interned windows when the front-end is wrapped, as it already
        does mid-step on every invalidation.  Stores into program memory
        run in Python through :class:`GuardedMemory` (the native
        backend admits no packet that makes one), so no store can stale
        a packet unseen.  A run that never rewrites its code, or writes
        only data that happens to live in program memory, fetches
        through the unwrapped front-end throughout.
        """
        self._target = target
        self._engine = engine
        self._wrap_memory()
        self._covering = {}
        self._extent_of = {}
        for pc, words in target.packet_map().items():
            self._cover(pc, words)
        return self

    def disarm(self):
        """Stop watching writes (an installed front-end wrapper stays,
        inert)."""
        storage = getattr(self.simulator.state, self._pmem_name, None)
        if isinstance(storage, GuardedMemory):
            storage.on_write = None
        self.stale.clear()

    def _wrap_memory(self):
        state = self.simulator.state
        storage = getattr(state, self._pmem_name)
        if not isinstance(storage, GuardedMemory):
            storage = GuardedMemory(storage)
            # Generated/interpreted behaviour code resolves the storage
            # attribute on every access, so the swap is visible to all
            # already-compiled behaviours immediately.
            setattr(state, self._pmem_name, storage)
        storage.on_write = self._on_write

    def _cover(self, pc, words):
        old = self._extent_of.get(pc)
        if old is not None:
            for address in range(pc, pc + old):
                pcs = self._covering.get(address)
                if pcs is not None:
                    pcs.discard(pc)
        self._extent_of[pc] = words
        for address in range(pc, pc + words):
            self._covering.setdefault(address, set()).add(pc)

    # -- the write path ----------------------------------------------------

    def _on_write(self, index):
        if self._suspended:
            return
        if isinstance(index, slice):
            storage = getattr(self.simulator.state, self._pmem_name)
            for address in range(*index.indices(len(storage))):
                self._note_write(address)
        else:
            self._note_write(index)

    def _note_write(self, address):
        self.stats["program_writes"] += 1
        pcs = self._covering.get(address)
        if not pcs:
            return  # a data store that happens to live in program memory
        self.stats["self_mod_writes"] += 1
        coherent = self._target.coherent
        fresh = (
            []
            if coherent
            else sorted(pc for pc in pcs if pc not in self.stale)
        )
        observer = self.observer
        if observer is not None:
            observer.on_self_modify(address, self.policy, len(fresh))
        if coherent:
            return  # e.g. interpretive: re-decodes every fetch anyway
        if self.policy == "error":
            raise StaleTableError(
                "store to program memory address 0x%x invalidates "
                "compiled packet(s) at %s; rerun with "
                "--on-self-modify %s or use the interpretive simulator"
                % (
                    address,
                    ", ".join("0x%x" % pc for pc in sorted(pcs)),
                    "|".join(p for p in GUARD_POLICIES if p != "error"),
                ),
                address=address,
                pcs=sorted(pcs),
            )
        if fresh:
            if not self._interposed:
                # the first stale packet: from here on fetches divert
                self._interposed = True
                self._engine.wrap_frontend(self._make_frontend)
            self.stats["invalidated_packets"] += len(fresh)
            self.stale.update(fresh)
        # Invalidate on *every* self-modifying write, not just the first
        # for a packet: an interpreted packet stays stale, and a repeat
        # write must still flush engine-side memoisation (interned
        # static transitions) built from the previous decode.
        self._target.invalidate(sorted(pcs))

    # -- the fetch path ----------------------------------------------------

    def _make_frontend(self, base):
        stale = self.stale
        resolve = self._resolve

        def guarded_frontend(pc):
            if pc in stale:
                return resolve(pc)
            return base(pc)

        return guarded_frontend

    def _resolve(self, pc):
        observer = self.observer
        if pc not in self.recompiled:
            slot, updates = self._target.refresh(pc)
            for updated_pc, words in updates.items():
                self._cover(updated_pc, words)
                self.stale.discard(updated_pc)
                self.recompiled.add(updated_pc)
            self.stats["recompiled_packets"] += 1
            if observer is not None:
                observer.on_guard_resolve(pc, "recompile")
            return slot
        slot = self._interpret(pc)
        self.stats["interpreted_fetches"] += 1
        if observer is not None:
            observer.on_guard_resolve(pc, "interpret")
        return slot

    def _interpret(self, pc):
        """The interpretive simulator's fetch over *live* program memory;
        the packet stays stale, so every fetch of it re-decodes --
        correct for regions the program keeps rewriting."""
        if self._interpreter is None:
            from repro.sim.interpretive import InterpretiveFetch

            simulator = self.simulator
            self._interpreter = InterpretiveFetch(
                simulator.model, simulator.state, simulator.control
            )
        return self._interpreter.fetch(pc)

    # -- checkpoint/restore coupling ---------------------------------------

    def suspend(self):
        """Stop classifying writes (used while a restore rewrites state)."""
        self._suspended = True

    def resync(self):
        """Re-derive staleness after a state restore.

        Any program-memory cell that differs from the loaded program
        image is treated as a (replayed) self-modifying write, so a
        checkpoint taken after an SMC event restores with the same
        stale set -- including raising under the ``error`` policy.

        A packet ``recover`` has recompiled was patched in place from the
        memory of that time, which the restored memory may predate (and
        then match the program image, so the scan below would miss it).
        Every such packet goes stale again and, being recompiled, is
        interpreted over live memory from then on.
        """
        self._suspended = False
        simulator = self.simulator
        program = simulator.program
        if program is None:
            return
        if self.recompiled:
            again = self.recompiled - self.stale
            self.stats["invalidated_packets"] += len(again)
            self.stale.update(again)
            # flush even already-stale packets: interned windows may
            # hold interpreted slots decoded from the pre-restore memory
            self._target.invalidate(sorted(self.recompiled))
        pmem = getattr(simulator.state, self._pmem_name)
        canonical = simulator.model.memories[self._pmem_name].dtype.canonical
        for segment in program.segments_in(self._pmem_name):
            for offset, word in enumerate(segment.words):
                address = segment.base + offset
                if pmem[address] != canonical(word):
                    self._note_write(address)


def _segment_limit(simulator, pmem_name, pc, default):
    """End of the loaded program segment holding ``pc``, else
    ``default``: a refresh decodes no packet past its segment."""
    for segment in simulator.program.segments_in(pmem_name):
        if segment.base <= pc < segment.end:
            return segment.end
    return default


class TableGuardTarget:
    """Guard coupling for the simulation-table kinds.

    Serves ``compiled``, ``unfolded``, ``static`` and
    ``unfolded_static`` simulators: packets come from
    ``SimulationTable.slots`` and a refresh builds a table for the
    touched region the way the simulator built its own (see
    :func:`repro.sim.compiled.build_simulation_table`), patching the
    table in place.
    """

    coherent = False

    def __init__(self, simulator, engine):
        self._sim = simulator
        self._engine = engine
        self._pmem_name = simulator.model.config.program_memory

    def packet_map(self):
        return {
            pc: slot.words for pc, slot in self._sim.table.slots.items()
        }

    def invalidate(self, pcs):
        # Static composition (and level-3 column fusion) read per-pc
        # metadata and IR straight from the table, which is stale until
        # refreshed; flag the packets so every window containing them
        # takes the dynamically-composed path, which executes the live
        # (guard-resolved) slots.  A later refresh() restores the flags.
        table = self._sim.table
        for pc in pcs:
            table.has_control[pc] = True
        # The engine drops whatever it memoised from the stale slots:
        # interned static windows are re-fetched through the guarded
        # front-end, and native bursts demote the packets to the Python
        # path for good (the refreshed table serves them there).
        self._engine.invalidate(pcs)

    def refresh(self, pc):
        """Re-decode the packet at ``pc`` from live memory; patch table."""
        from repro.sim.compiled import build_simulation_table

        sim = self._sim
        state = sim.state
        pmem = getattr(state, self._pmem_name)
        limit = _segment_limit(sim, self._pmem_name, pc, len(pmem))
        extent = packet_extent(sim.model, pmem.__getitem__, pc, limit)
        words = [int(word) for word in pmem[pc:pc + extent]]
        patch = Program(name="<recompile:0x%x>" % pc, entry=pc)
        patch.add_segment(self._pmem_name, pc, words)
        updates = self._merge(build_simulation_table(sim, patch))
        return sim.table.slots[pc], updates

    def _merge(self, mini):
        table = self._sim.table
        ir_by_stage = table.ir_by_stage
        if ir_by_stage is not None:
            # A bound table shares its IR with the portable table it was
            # bound from; patch a copy of its own (decoding what is left).
            ir_by_stage = table.ir_by_stage = dict(ir_by_stage)
        updates = {}
        for pc, slot in mini.slots.items():
            table.slots[pc] = slot
            table.has_control[pc] = mini.has_control.get(pc, True)
            if ir_by_stage is not None:
                # Same route as the table itself, so both carry IR --
                # except a trap packet, which has none.
                ir = mini.ir_by_stage.get(pc)
                if ir is None:
                    ir_by_stage.pop(pc, None)
                else:
                    ir_by_stage[pc] = ir
            updates[pc] = slot.words
        return updates


class PredecodedGuardTarget:
    """Guard coupling for the predecoded simulator.

    Packets are the program front end's per-address decodes plus
    extents; a refresh re-reads the touched packet from live memory
    into it.
    """

    coherent = False

    def __init__(self, simulator):
        self._sim = simulator
        self._pmem_name = simulator.model.config.program_memory

    def packet_map(self):
        return dict(self._sim.front.extents)

    def invalidate(self, pcs):
        pass

    def refresh(self, pc):
        sim = self._sim
        front = sim.front
        pmem = getattr(sim.state, self._pmem_name)
        members = front.reload(
            pmem.__getitem__, pc,
            _segment_limit(sim, self._pmem_name, pc, len(pmem)),
        )
        updates = {address: front.extents[address] for address in members}
        return sim._fetch(pc), updates


class CoherentGuardTarget:
    """Guard coupling for simulators that re-decode on every fetch.

    The interpretive simulator is always coherent with program memory:
    no packet of it ever goes stale, so the guard never interposes on
    its fetches.  The guard still *classifies* and counts
    self-modifying writes, which keeps metrics comparable across kinds
    (and lets tests assert the reference also saw the SMC event).
    """

    coherent = True

    def __init__(self, simulator):
        self._sim = simulator

    def packet_map(self):
        program = self._sim.program
        pmem_name = self._sim.model.config.program_memory
        return {
            address: 1
            for segment in program.segments_in(pmem_name)
            for address in range(segment.base, segment.end)
        }
