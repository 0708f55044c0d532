"""The interpretive reference simulator (the role of TI's sim62x).

Everything happens at run-time, on every single fetch: the instruction
words are read from simulated program memory, decoded through the coding
tree, IF/SWITCH variants are resolved, the per-stage operation schedule
is rebuilt and behaviours are executed by AST interpretation.  No
caching -- deliberately, because this simulator is the baseline against
which compiled simulation is measured.
"""

from __future__ import annotations

from repro.behavior.evaluator import EvalContext
from repro.coding.decoder import InstructionDecoder
from repro.machine.driver import Pipeline, trap_slot
from repro.machine.packets import packet_extent
from repro.machine.schedule import sequence_slot
from repro.sim.base import Simulator
from repro.support.errors import DecodeError


class InterpretiveFetch:
    """The interpretive front-end: fetch, decode, schedule and bind the
    packet at a pc from *live* program memory, on every call.

    Also serves the write guard's interpreted fetches of packets a
    program keeps rewriting.
    """

    def __init__(self, model, state, control):
        self._model = model
        self._state = state
        self._control = control
        self._decoder = InstructionDecoder(model)
        self._pmem_name = model.config.program_memory
        self._pmem_size = model.memories[self._pmem_name].size

    def fetch(self, pc):
        """Fetch, decode, schedule and bind -- all at run-time."""
        if pc < 0 or pc >= self._pmem_size:
            return trap_slot(
                self._model,
                "instruction fetch outside program memory (pc=0x%x)" % pc,
            )
        pmem = getattr(self._state, self._pmem_name)
        extent = packet_extent(
            self._model, pmem.__getitem__, pc, self._pmem_size
        )
        nodes = []
        for address in range(pc, pc + extent):
            try:
                nodes.append(
                    self._decoder.decode(pmem[address], address=address)
                )
            except DecodeError as exc:
                return trap_slot(self._model, str(exc))
        return sequence_slot(
            self._model, nodes,
            EvalContext(self._state, self._control, self._model),
        )


class InterpretiveSimulator(Simulator):
    kind = "interpretive"

    def _guard_target(self, engine):
        from repro.resilience.guard import CoherentGuardTarget

        return CoherentGuardTarget(self)

    def _build_engine(self, program):
        return Pipeline(
            self.model, self.state, self.control,
            InterpretiveFetch(self.model, self.state, self.control).fetch,
        )
