"""The interpretive reference simulator (the role of TI's sim62x).

Everything happens at run-time, on every single fetch: the instruction
words are read from simulated program memory, decoded through the coding
tree, IF/SWITCH variants are resolved, the per-stage operation schedule
is rebuilt and behaviours are executed by AST interpretation.  No
caching -- deliberately, because this simulator is the baseline against
which compiled simulation is measured.
"""

from __future__ import annotations

from functools import partial

from repro.behavior.evaluator import EvalContext, execute_behavior
from repro.coding.decoder import InstructionDecoder
from repro.machine.driver import IssueSlot, Pipeline, trap_slot
from repro.machine.schedule import build_schedule
from repro.sim.base import Simulator
from repro.machine.packets import packet_extent
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
        self._depth = model.pipeline.depth
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
        ctx = EvalContext(self._state, self._control, self._model)
        stages = [[] for _ in range(self._depth)]
        for address in range(pc, pc + extent):
            try:
                node = self._decoder.decode(pmem[address], address=address)
            except DecodeError as exc:
                return trap_slot(self._model, str(exc))
            for item in build_schedule(node, self._model):
                stages[item.stage].append(
                    partial(
                        execute_behavior, item.behavior.statements,
                        item.node, ctx,
                    )
                )
        return IssueSlot(
            ops_by_stage=tuple(tuple(stage) for stage in stages),
            words=extent,
            insn_count=extent,
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
