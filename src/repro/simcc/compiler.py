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
lowers each word once for the table, its control flags and its hazard
verdicts alike.  A packet with an undecodable member gets the
interpretive fetch's trap slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.behavior.evaluator import EvalContext, execute_behavior
from repro.machine.driver import IssueSlot, trap_slot
from repro.support.errors import ReproError, SimulationError

LEVELS = ("sequenced", "instantiated")


@dataclass
class SimulationTable:
    """The compiled image of one program for one (state, control) pair.

    ``ir_by_stage`` carries the lowered :class:`repro.simcc.ir.
    IRFunction` per packet member and stage -- the form the static
    scheduler fuses whole columns from and the native backend renders.
    Every table bound from a :class:`repro.simcc.portable.PortableTable`
    has it; only the level-2 table :meth:`SimulationCompiler.compile`
    builds directly has ``None``.

    ``schedule_safety`` maps canonical packet starts to hazard verdicts
    from :func:`repro.analysis.schedule_safety` (``hazard_free`` /
    ``conflicting`` / ``unknown``); the static scheduler composes
    columns only over proven regions.  ``None`` (hand-built or legacy
    tables) disables the gate.

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
    """

    level: str
    slots: Dict[int, IssueSlot]
    has_control: Dict[int, bool]
    instruction_count: int = 0
    word_count: int = 0
    schedule_safety: Optional[Dict[int, str]] = None
    ir_by_stage: Optional[Dict[int, Tuple[Tuple[object, ...], ...]]] = None
    proofs: Optional[Dict[int, object]] = None
    active_stages: Optional[Tuple[int, ...]] = None

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
        """A pipeline front-end over this table.

        Unknown addresses yield trap slots instead of raising, so fetches
        past a not-yet-executed halt/branch behave like on the
        interpretive simulator (squashed before they execute).
        """
        from repro.machine.driver import trap_slot

        slots = self.slots

        def frontend(pc):
            slot = slots.get(pc)
            if slot is None:
                return trap_slot(
                    model,
                    "fetch outside the compiled region (pc=0x%x)" % pc,
                )
            return slot

        return frontend


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

    def compile(self, program, state, control, level="sequenced",
                observer=None):
        """Compile ``program`` into a :class:`SimulationTable`.

        The produced micro-operations are bound to ``state`` and
        ``control``; the table is only valid for that pair (this is the
        compiled-simulation trade-off: per-application, per-simulator
        specialisation in exchange for run-time speed).

        Level ``sequenced`` binds :class:`_BoundBehavior` operations run
        by the AST evaluator -- the paper's level 2.  Level
        ``instantiated`` is :meth:`compile_portable` bound to the pair.

        ``observer`` records one phase-timing span per simulation-
        compilation step (decoding, sequencing, packet formation, hazard
        analysis) plus a ``hazard.verdict`` trace event per analysed
        packet -- the paper's Figure 6 measurement as a built-in.
        """
        if level not in LEVELS:
            raise ReproError(
                "unknown simulation level %r (expected one of %s)"
                % (level, ", ".join(LEVELS))
            )
        if level == "instantiated":
            return self.compile_portable(
                program, level=level, observer=observer
            ).bind(state, control)
        from repro import obs as _obs
        from repro.analysis import schedule_safety
        from repro.simcc.frontend import ProgramFrontEnd

        model = self._model
        ctx = EvalContext(state, control, model, {})
        slots = {}
        has_control = {}
        active = {model.execute_stage_index}

        with _obs.span(observer, "simcc.compile", level=level):
            front = ProgramFrontEnd(model, program)
            # Step 1+2+3: decode and schedule every word once.
            with _obs.span(observer, "simcc.decode", words=len(front.words)):
                front.decode_all()
            with _obs.span(observer, "simcc.sequence",
                           words=len(front.nodes)):
                bound = {
                    pc: tuple(
                        tuple(
                            _BoundBehavior(behavior.statements, node, ctx)
                            for node, behavior in items
                        )
                        for items in front.stage_items(pc)
                    )
                    for pc in front.nodes
                }

            # Step 4: form execute packets for every possible entry pc.
            with _obs.span(observer, "simcc.packetize",
                           words=len(front.words)):
                for pc, extent in front.extents.items():
                    message = front.trap_message(pc)
                    if message is not None:
                        slots[pc] = trap_slot(model, message)
                        has_control[pc] = True
                        continue
                    members = range(pc, pc + extent)
                    ops_by_stage = tuple(
                        tuple(itertools.chain.from_iterable(
                            bound[member][stage] for member in members
                        ))
                        for stage in range(model.pipeline.depth)
                    )
                    active.update(
                        stage for stage, ops in enumerate(ops_by_stage)
                        if ops
                    )
                    slots[pc] = IssueSlot(
                        ops_by_stage=ops_by_stage,
                        words=extent,
                        insn_count=extent,
                    )
                    has_control[pc] = front.control_capable(pc)

            with _obs.span(observer, "simcc.analyze"):
                safety = schedule_safety(front)
            if observer is not None and safety:
                for pc, verdict in sorted(safety.items()):
                    observer.on_hazard_verdict(pc, verdict)

        return SimulationTable(
            level=level,
            slots=slots,
            has_control=has_control,
            instruction_count=len(front.words),
            word_count=len(front.words),
            schedule_safety=safety,
            active_stages=tuple(sorted(active, reverse=True)),
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


class _BoundBehavior:
    """A pre-bound behaviour execution (level-2 micro-operation).

    Equivalent to ``functools.partial(execute_behavior, ...)`` but also
    carries its binding for inspection by tests and the emitter.
    """

    __slots__ = ("statements", "node", "ctx")

    def __init__(self, statements, node, ctx):
        self.statements = statements
        self.node = node
        self.ctx = ctx

    def __call__(self):
        execute_behavior(self.statements, self.node, self.ctx)
