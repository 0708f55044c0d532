"""The simulation compiler: target object code -> simulation table.

The simulation table (the paper's Figure 1) is two-dimensional: one
dimension is the program locations of the target application, the other
holds, per pipeline stage, the operations contributing to the transition
function.  Building it performs, at simulation-compile time:

1. instruction decoding (once per program word),
2. decode-time IF/SWITCH variant resolution,
3. operation sequencing (the per-stage micro-operation schedule),
4. VLIW execute-packet formation,
5. at level ``instantiated``, per-instruction Python code generation
   (through :mod:`repro.simcc.portable`).

Steps 1-4 come from the program front end
(:class:`repro.simcc.frontend.ProgramFrontEnd`), which decodes and
lowers each word once, and whose one packet scan
(:meth:`~repro.simcc.frontend.ProgramFrontEnd.table_layout`) lays out
every table.  One binder (:func:`repro.machine.driver.bind_table`)
turns a layout's cells into issue slots, so the levels differ only in
what a cell binds to: :meth:`SimulationCompiler.compile` binds schedule
items to the AST evaluator (level 2), a portable table binds generated
functions (level 3).  A packet with an undecodable member gets the
interpretive fetch's trap slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Mapping, Optional, Tuple

from repro.behavior.evaluator import EvalContext, execute_behavior
from repro.machine.driver import (
    IssueSlot,
    active_stages,
    bind_table,
    table_frontend,
)
from repro.support.errors import SimulationError


@dataclass
class SimulationTable:
    """The compiled image of one program for one (state, control) pair.

    ``ir_by_stage`` maps each packet start to the lowered
    :class:`repro.simcc.ir.IRFunction` per member and stage -- the form
    the static scheduler fuses whole columns from and the native backend
    renders.  Every table bound from a
    :class:`repro.simcc.portable.PortableTable` has it (a mapping that
    decodes each packet on first read); only the level-2 table
    :meth:`SimulationCompiler.compile` builds directly has ``None``.

    ``proofs`` maps packet starts to
    :class:`repro.analysis.absint.PacketProof` facts (nativisability,
    per-resource value intervals).  Portable tables carry them through
    :meth:`bind`; ``None`` means no proof is available (the direct
    level-2 table), and native admission must stay conservative.

    ``active_stages`` are the stages where some slot has an op, plus
    the model's execute stage (where trap slots raise), deepest first:
    the only stages the Python drivers visit (``None``, for a hand-built
    table: every stage).  On a table whose packets are all native it
    equals the burst driver's ``NativePlan.active_stages``.

    ``digest`` is the portable table's level-free content digest, which
    keys the native artifact (``None`` on the direct level-2 table).
    """

    level: str
    slots: Dict[int, IssueSlot]
    has_control: Dict[int, bool]
    instruction_count: int = 0
    word_count: int = 0
    ir_by_stage: Optional[Mapping[int, Tuple[Tuple[object, ...], ...]]] = None
    proofs: Optional[Mapping[int, object]] = None
    active_stages: Optional[Tuple[int, ...]] = None
    digest: Optional[str] = None

    def slot_at(self, pc):
        slot = self.slots.get(pc)
        if slot is None:
            raise SimulationError(
                "simulation table has no entry for address 0x%x -- the "
                "program left the compiled region (compiled simulation "
                "cannot execute self-modified or unknown code)" % pc
            )
        return slot

    def make_frontend(self, model):
        """A pipeline front-end over this table
        (:func:`repro.machine.driver.table_frontend`): unknown addresses
        yield trap slots instead of raising."""
        return table_frontend(self.slots, model.pipeline.depth,
                              model.execute_stage_index)


class SimulationCompiler:
    """A processor-specific simulation compiler.

    Instances are produced by
    :func:`repro.simcc.generator.generate_simulation_compiler`; they are
    bound to one machine model and can compile any number of programs.
    """

    def __init__(self, model):
        self._model = model

    @property
    def model(self):
        return self._model

    def compile(self, program, state, control, observer=None):
        """Compile ``program`` into the level-2 :class:`SimulationTable`.

        The produced micro-operations are bound to ``state`` and
        ``control``; the table is only valid for that pair (this is the
        compiled-simulation trade-off: per-application, per-simulator
        specialisation in exchange for run-time speed).  A cell of the
        layout is already an op: one schedule item bound to the AST
        evaluator, ``partial(execute_behavior, statements, node, ctx)``,
        with its variant resolved once -- the paper's level 2.  Level 3
        is :meth:`compile_portable` bound to the pair.

        ``observer`` records one phase-timing span per simulation-
        compilation step (decoding, sequencing, packet formation) -- the
        paper's Figure 6 measurement as a built-in.
        """
        from repro import obs as _obs
        from repro.simcc.frontend import ProgramFrontEnd

        model = self._model
        ctx = EvalContext(state, control, model, {})

        with _obs.span(observer, "simcc.compile", level="sequenced"):
            front = ProgramFrontEnd(model, program)
            # Step 1+2+3: decode and schedule every word once.
            with _obs.span(observer, "simcc.decode", words=len(front.words)):
                front.decode_all()
            with _obs.span(observer, "simcc.sequence",
                           words=len(front.nodes)):
                bound = {
                    pc: tuple(
                        tuple(
                            partial(execute_behavior, behavior.statements,
                                    node, ctx)
                            for node, behavior in items
                        )
                        for items in front.stage_items(pc)
                    )
                    for pc in front.nodes
                }

            # Step 4: form execute packets for every possible entry pc.
            with _obs.span(observer, "simcc.packetize",
                           words=len(front.words)):
                layout = front.table_layout(bound.__getitem__)
                slots = bind_table(
                    layout.spec, layout.traps, lambda op: op,
                    model.pipeline.depth, model.execute_stage_index,
                )

        return SimulationTable(
            level="sequenced",
            slots=slots,
            has_control=layout.has_control,
            instruction_count=len(front.words),
            word_count=len(front.words),
            active_stages=active_stages(layout.spec,
                                        model.execute_stage_index),
        )

    def compile_portable(self, program, level="sequenced", observer=None):
        """Compile ``program`` into a state-independent
        :class:`repro.simcc.portable.PortableTable`.

        This is the cacheable form of simulation compilation: the table
        can be serialised, stored, and later bound to any state/control
        pair without re-running the compiler.
        """
        from repro.simcc.portable import build_portable_table

        return build_portable_table(self._model, program, level,
                                    observer=observer)
