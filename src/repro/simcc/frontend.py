"""The program front end: each program word decoded, scheduled and
lowered once.

Every consumer of a loaded program starts the same way: decode each
word of program memory (the paper's first compiled-simulation step),
find the execute packet each entry pc issues, build each instruction's
per-stage schedule and lower it into SimIR (:mod:`repro.simcc.ir`).
:class:`ProgramFrontEnd` does that work once per word, and it is the
only load-time code that does it:

* the *decode layer* holds, per word, the decoded node or the
  :class:`~repro.support.errors.DecodeError` text, plus the packet
  extent of every entry pc -- everything the predecoded simulator
  (level 1) reads;
* the *lowering layer* adds, per word and on demand, the per-stage
  schedule items, their raw (pre-pass) SimIR lowered once per item,
  and the per-stage :class:`~repro.analysis.effects.InstructionEffects`
  read off that IR.

The level-2 compiler, the portable builder (level 3 and native), and
CFG recovery with its hazard verdicts and packet-collision check
(``repro-lint``) all read their words from one front end.  Both layers
are lazy.  Both table builders lay out their table with one packet
scan, :meth:`ProgramFrontEnd.table_layout`, and differ only in the
*cells* it places: schedule items at level 2, generated functions'
names at level 3.

An entry pc whose packet has an undecodable member issues the slot the
interpretive simulator's fetch makes for it:
``trap_slot(model, message)`` -- one word, one instruction,
control-capable -- which raises the decoder's message only if it
executes.  An undecodable word that is fetched but squashed (data
behind a ``halt``) therefore runs like it does on the interpretive
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro.analysis.effects import InstructionEffects, read_effects
from repro.coding.decoder import InstructionDecoder
from repro.machine.packets import packet_extent
from repro.machine.schedule import build_schedule
from repro.simcc import ir
from repro.support.errors import DecodeError, ReproError


@dataclass(frozen=True)
class LoweredWord:
    """One instruction's raw SimIR and the effects read off it.

    ``ops`` holds, per pipeline stage, the raw (pre-pass) micro-ops of
    the stage's schedule items back to back.  ``error`` is the first
    item that failed to lower; its ops are missing, and ``effects`` is
    then truncated.
    """

    ops: Tuple[Tuple[object, ...], ...]
    effects: InstructionEffects
    error: Optional[ReproError]


class TableLayout(NamedTuple):
    """A simulation table before binding: the paper's Figure 1 with
    cells where the ops go.

    ``spec`` maps each entry pc whose members all decode to
    ``(per_stage_cells, extent, extent)`` (the table spec
    :func:`repro.machine.driver.bind_table` binds); ``traps`` maps every
    other entry pc to the decoder's message; ``has_control`` covers
    both, a trap pc being control-capable.
    """

    spec: Dict[int, Tuple[Tuple[Tuple[object, ...], ...], int, int]]
    has_control: Dict[int, bool]
    traps: Dict[int, str]


def lower_stages(model, lowerer, stages):
    """Lower per-stage ``(node, behaviour)`` items into a
    :class:`LoweredWord`, one ``lower_statements`` call per item."""
    ops = []
    error = None
    for items in stages:
        stage_ops = []
        for node, behavior in items:
            try:
                stage_ops.extend(
                    lowerer.lower_statements(behavior.statements, node)
                )
            except ReproError as exc:  # unresolvable or too deep
                error = error or exc
        ops.append(tuple(stage_ops))
    return LoweredWord(
        ops=tuple(ops),
        effects=read_effects(model, ops, truncated=error is not None),
        error=error,
    )


class ProgramFrontEnd:
    """Decode, packet, schedule and lowering results of one program.

    ``words`` and ``extents`` cover every program-memory word (each word
    is also an entry pc); ``segments`` lists ``(base, limit)`` per
    segment.  Decoding and lowering happen on first use and are kept.
    """

    def __init__(self, model, program):
        self.model = model
        self.entry = program.entry
        self.segments = []
        self.words = {}
        self.extents = {}
        self.nodes = {}
        self.errors = {}
        self._decoder = InstructionDecoder(model)
        self._lowerer = ir.Lowerer(model)
        self._items = {}
        self._lowered = {}
        for segment in program.segments_in(model.config.program_memory):
            base = segment.base
            limit = base + len(segment.words)
            self.segments.append((base, limit))
            self.words.update(zip(range(base, limit), segment.words))
        read_word = self.words.__getitem__
        for base, limit in self.segments:
            for pc in range(base, limit):
                self.extents[pc] = packet_extent(model, read_word, pc, limit)

    # -- decode layer ---------------------------------------------------------

    def decode(self, pc):
        """The decoded node of the word at ``pc``, or None when it does
        not decode (``errors[pc]`` then holds the decoder's message)."""
        node = self.nodes.get(pc)
        if node is None and pc not in self.errors:
            try:
                node = self.nodes[pc] = self._decoder.decode(
                    self.words[pc], address=pc
                )
            except DecodeError as exc:
                self.errors[pc] = str(exc)
        return node

    def decode_all(self):
        for pc in self.words:
            self.decode(pc)

    def trap_message(self, pc):
        """The message of the first undecodable member of the packet at
        ``pc``, or None when every member decodes."""
        for address in range(pc, pc + self.extents[pc]):
            if self.decode(address) is None:
                return self.errors[address]
        return None

    def packets(self):
        """``(pc, extent)`` of every canonical packet: boundaries scanned
        from each segment base, the decomposition the fetch stream sees."""
        for base, limit in self.segments:
            pc = base
            while pc < limit:
                extent = self.extents[pc]
                yield pc, extent
                pc += extent

    def reload(self, read_word, pc, limit):
        """Re-read the packet at ``pc`` through ``read_word`` (live
        program memory, up to ``limit``): its members' words, decodes
        and extents.  Returns the member addresses."""
        members = range(pc, pc + packet_extent(self.model, read_word, pc,
                                               limit))
        for address in members:
            self.words[address] = int(read_word(address))
            for cache in (self.nodes, self.errors, self._items,
                          self._lowered):
                cache.pop(address, None)
            self.decode(address)
        for address in members:
            self.extents[address] = packet_extent(
                self.model, read_word, address, limit
            )
        return members

    # -- lowering layer -------------------------------------------------------

    def stage_items(self, pc):
        """Per pipeline stage, the ``(node, behaviour)`` items the
        decoded word at ``pc`` schedules."""
        items = self._items.get(pc)
        if items is None:
            stages = [[] for _ in range(self.model.pipeline.depth)]
            for item in build_schedule(self.decode(pc), self.model):
                stages[item.stage].append((item.node, item.behavior))
            items = self._items[pc] = tuple(tuple(s) for s in stages)
        return items

    def lowered(self, pc):
        """The :class:`LoweredWord` of the decoded word at ``pc``."""
        word = self._lowered.get(pc)
        if word is None:
            word = self._lowered[pc] = lower_stages(
                self.model, self._lowerer, self.stage_items(pc)
            )
        return word

    def effects(self, pc):
        return self.lowered(pc).effects

    def table_layout(self, cells_of):
        """Scan every entry pc into a :class:`TableLayout`.

        ``cells_of(pc)`` gives, per stage, the cells of the decoded word
        at ``pc``.  It runs once per word, the first time a packet holds
        the word: in address order of the packets, member by member.
        """
        word_cells = {}
        spec, has_control, traps = {}, {}, {}
        for pc, extent in self.extents.items():
            message = self.trap_message(pc)
            if message is not None:
                traps[pc] = message
                has_control[pc] = True
                continue
            members = []
            for member in range(pc, pc + extent):
                cells = word_cells.get(member)
                if cells is None:
                    cells = word_cells[member] = cells_of(member)
                members.append(cells)
            if extent == 1:
                per_stage = members[0]
            else:  # per stage, the members' cells back to back
                per_stage = tuple(
                    sum(column, ()) for column in zip(*members)
                )
            spec[pc] = (per_stage, extent, extent)
            has_control[pc] = self.control_capable(pc)
        return TableLayout(spec, has_control, traps)

    def control_capable(self, pc):
        """Whether the packet at ``pc``, every member of which decodes,
        may raise pipeline control: a member requests it, or its
        lowering was cut short."""
        for address in range(pc, pc + self.extents[pc]):
            effects = self.effects(address)
            if effects.truncated or effects.has_control:
                return True
        return False


__all__ = [
    "LoweredWord",
    "ProgramFrontEnd",
    "TableLayout",
    "lower_stages",
]
