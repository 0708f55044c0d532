"""Level-1 compiled simulation: compile-time decoding only.

The whole program is decoded once, when it is loaded (the paper's first
compiled-simulation step), by the program front end's decode layer
(:class:`repro.simcc.frontend.ProgramFrontEnd`).  Operation sequencing
still happens at run-time: on every fetch the per-stage schedule is
rebuilt from the pre-decoded instruction and behaviours are
AST-interpreted, though with decode-time variants cached (variant
resolution is part of decoding).  A packet with an undecodable member
issues the interpretive fetch's trap slot.
"""

from __future__ import annotations

from repro.behavior.evaluator import EvalContext
from repro.machine.driver import Pipeline, trap_slot
from repro.machine.schedule import sequence_slot
from repro.sim.base import Simulator


class PredecodedSimulator(Simulator):
    kind = "predecoded"

    def __init__(self, model, observer=None):
        super().__init__(model, observer=observer)
        self.front = None
        self._ctx = None

    def _guard_target(self, engine):
        from repro.resilience.guard import PredecodedGuardTarget

        return PredecodedGuardTarget(self)

    def _build_engine(self, program):
        from repro.simcc.frontend import ProgramFrontEnd

        # Compile-time decoding: one pass over the program image.
        self.front = ProgramFrontEnd(self.model, program)
        self.front.decode_all()
        self._ctx = EvalContext(
            self.state, self.control, self.model, variant_cache={}
        )
        return Pipeline(self.model, self.state, self.control, self._fetch)

    def _fetch(self, pc):
        """Run-time operation sequencing over pre-decoded instructions."""
        front = self.front
        extent = front.extents.get(pc)
        if extent is None:
            return trap_slot(
                self.model,
                "fetch outside the pre-decoded region (pc=0x%x)" % pc,
            )
        nodes = front.nodes
        members = []
        for address in range(pc, pc + extent):
            node = nodes.get(address)
            if node is None:
                return trap_slot(self.model, front.errors[address])
            members.append(node)
        return sequence_slot(self.model, members, self._ctx)
