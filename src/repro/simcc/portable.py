"""Portable (state-independent) simulation tables.

A :class:`~repro.simcc.compiler.SimulationTable` binds its
micro-operations to one concrete state/control pair -- fast to execute,
but impossible to persist.  A :class:`PortableTable` is the
state-independent form such a table is bound from (every table except
the direct level-2 one): the full result of simulation compilation
(decode, variant resolution, scheduling, packet formation, operation
instantiation) expressed as

* lowered, post-pass :class:`repro.simcc.ir.IRFunction` micro-operation
  functions, one per occupied (pc, stage),
* a table spec mapping program addresses to per-stage function names
  plus packet extents,
* the per-address control-capability flags the static scheduler needs,
* the decoder's message for every entry pc whose packet has an
  undecodable member (``traps``); such a pc has no table-spec entry and
  binds to a trap slot.

:func:`build_portable_table` reads every word from the program front
end (:mod:`repro.simcc.frontend`), which decodes and lowers each word
once; the IR passes then run over those raw ops, one function per
(pc, stage), after the effects have been read off them.

A portable table can be bound to any state/control pair (:meth:`bind`),
serialised byte-for-byte (:mod:`repro.simcc.cache`), or rendered as a
standalone module (:mod:`repro.simcc.emit`).  The persisted form is the
*IR*, not source text: both backends render from it on demand, and
binding never re-runs the simulation compiler -- warm loads cost one
``exec`` of pre-compiled code plus argument binding.

Note one deliberate asymmetry: a portable table is always *operation
instantiated* (generated code), even when built for level
``sequenced``.  The level still participates in cache keys so that
tables built for different levels never alias, and the bound table
reports the level it was compiled for.  Execution results are
bit-identical across the representations -- the code generator and the
AST evaluator are required to agree exactly, and the cross-check
benchmarks enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.behavior.runtime import CODEGEN_GLOBALS, bind_function
from repro.machine.driver import IssueSlot, trap_slot
from repro.simcc.ir import (
    IRFunction,
    ModuleBackend,
    function_from_payload,
    function_to_payload,
    run_passes,
)


@dataclass
class PortableTable:
    """A serialisable, state-independent compiled simulation.

    ``functions`` is a tuple of lowered, post-pass
    :class:`repro.simcc.ir.IRFunction` objects in a fixed (pc-major,
    stage-minor) order; ``table_spec`` maps each program address to
    ``(per_stage_names, words, insn_count)``, except the entry pcs in
    ``traps``, which map to the decoder's message.
    """

    level: str
    model_name: str
    program_name: str
    functions: Tuple[object, ...]
    table_spec: Dict[int, Tuple[Tuple[Tuple[str, ...], ...], int, int]]
    has_control: Dict[int, bool]
    instruction_count: int
    word_count: int
    schedule_safety: Optional[Dict[int, str]] = None
    proofs: Optional[Dict[int, object]] = None
    traps: Dict[int, str] = field(default_factory=dict)
    _code: Optional[object] = field(default=None, repr=False, compare=False)
    _namespace: Optional[dict] = field(default=None, repr=False, compare=False)
    _stages: Optional[frozenset] = field(default=None, repr=False,
                                         compare=False)

    # -- code ---------------------------------------------------------------

    def functions_source(self):
        """All IR functions rendered by the module backend as one
        module-sized string."""
        return ModuleBackend().render_functions(self.functions)

    def code(self):
        """The compiled code object for :meth:`functions_source` (cached)."""
        if self._code is None:
            self._code = compile(
                self.functions_source(), "<portable-simtab>", "exec"
            )
        return self._code

    def namespace(self):
        """Execute the generated functions once; returns the namespace.

        The functions take ``(s, c)`` parameters and are therefore
        shareable between any number of bound tables.
        """
        if self._namespace is None:
            namespace = dict(CODEGEN_GLOBALS)
            exec(self.code(), namespace)
            self._namespace = namespace
        return self._namespace

    def active_stages(self, model):
        """The stages where some packet has a function, plus ``model``'s
        execute stage (where trap slots raise), deepest first."""
        if self._stages is None:
            self._stages = frozenset(
                stage
                for per_stage, _words, _insns in self.table_spec.values()
                for stage, stage_names in enumerate(per_stage)
                if stage_names
            )
        return tuple(sorted(self._stages | {model.execute_stage_index},
                            reverse=True))

    # -- binding ------------------------------------------------------------

    def bind(self, state, control):
        """Rehydrate into a :class:`SimulationTable` bound to a
        state/control pair, without re-running the simulation compiler.

        Each op is a zero-argument function over the shared code
        (:func:`repro.behavior.runtime.bind_function`).  The bound table
        carries ``ir_by_stage`` rebuilt from the persisted IR, so static
        level-3 column *fusion* works on cache-rehydrated tables too.
        """
        from repro.simcc.compiler import SimulationTable

        namespace = self.namespace()
        by_name = {func.name: func for func in self.functions}
        slots = {}
        ir_by_stage = {}
        empty = ()
        for pc, (per_stage, words, insn_count) in self.table_spec.items():
            ops_by_stage = tuple(
                tuple(
                    bind_function(namespace[name], state, control)
                    for name in stage_names
                ) if stage_names else empty
                for stage_names in per_stage
            )
            slots[pc] = IssueSlot(
                ops_by_stage=ops_by_stage,
                words=words,
                insn_count=insn_count,
            )
            ir_by_stage[pc] = tuple(
                tuple(by_name[name] for name in stage_names)
                for stage_names in per_stage
            )
        for pc, message in self.traps.items():
            slots[pc] = trap_slot(state.model, message)
        return SimulationTable(
            level=self.level,
            slots=slots,
            has_control=dict(self.has_control),
            instruction_count=self.instruction_count,
            word_count=self.word_count,
            schedule_safety=(
                dict(self.schedule_safety)
                if self.schedule_safety is not None else None
            ),
            ir_by_stage=ir_by_stage,
            proofs=(
                dict(self.proofs) if self.proofs is not None else None
            ),
            active_stages=self.active_stages(state.model),
        )

    # -- (de)serialisation --------------------------------------------------

    def to_payload(self, with_code=True):
        """A marshal-compatible payload (ints, strings, tuples, dicts,
        and optionally the compiled code object).  Functions serialise
        as IR payloads (tagged tuples), not source text."""
        payload = {
            "level": self.level,
            "model": self.model_name,
            "program": self.program_name,
            "instruction_count": self.instruction_count,
            "word_count": self.word_count,
            "functions": tuple(
                function_to_payload(func) for func in self.functions
            ),
            "table_spec": {
                pc: (per_stage, words, insns)
                for pc, (per_stage, words, insns) in self.table_spec.items()
            },
            "has_control": dict(self.has_control),
            "schedule_safety": (
                dict(self.schedule_safety)
                if self.schedule_safety is not None else None
            ),
            "proofs": self._proofs_payload(),
            "code": self.code() if with_code else None,
        }
        if self.traps:
            # Written only when present, so trap-free payloads stay
            # byte-identical; a reader without the key still traps
            # there, because the pc has no table-spec entry.
            payload["traps"] = dict(self.traps)
        return payload

    def _proofs_payload(self):
        if self.proofs is None:
            return None
        from repro.analysis import absint

        return absint.proofs_to_payload(self.proofs)

    @classmethod
    def from_payload(cls, payload):
        from repro.analysis import absint

        return cls(
            proofs=absint.proofs_from_payload(payload.get("proofs")),
            level=payload["level"],
            model_name=payload["model"],
            program_name=payload["program"],
            functions=tuple(
                function_from_payload(func) for func in payload["functions"]
            ),
            table_spec={
                int(pc): (
                    tuple(tuple(names) for names in per_stage),
                    words,
                    insns,
                )
                for pc, (per_stage, words, insns)
                in payload["table_spec"].items()
            },
            has_control={
                int(pc): bool(flag)
                for pc, flag in payload["has_control"].items()
            },
            schedule_safety=(
                {
                    int(pc): str(verdict)
                    for pc, verdict in payload["schedule_safety"].items()
                }
                if payload.get("schedule_safety") is not None else None
            ),
            instruction_count=payload["instruction_count"],
            word_count=payload["word_count"],
            traps={
                int(pc): str(message)
                for pc, message in payload.get("traps", {}).items()
            },
            _code=payload.get("code"),
        )


# -- construction ------------------------------------------------------------


def build_portable_table(model, program, level="sequenced", observer=None):
    """Run full simulation compilation into a :class:`PortableTable`.

    ``observer`` records one phase-timing span per compilation step.
    """
    from repro import obs as _obs
    from repro.analysis import absint, schedule_safety
    from repro.simcc import verify
    from repro.simcc.compiler import LEVELS
    from repro.simcc.frontend import ProgramFrontEnd
    from repro.support.errors import ReproError

    if level not in LEVELS:
        raise ReproError(
            "unknown simulation level %r (expected one of %s)"
            % (level, ", ".join(LEVELS))
        )
    depth = model.pipeline.depth
    pmem_name = model.config.program_memory

    with _obs.span(observer, "simcc.compile", level=level, portable=True):
        front = ProgramFrontEnd(model, program)
        with _obs.span(observer, "simcc.decode", words=len(front.words)):
            for pc in front.words:
                if front.decode(pc) is not None:
                    front.lowered(pc)

        names_by_pc = {}
        functions = []

        def word_names(pc):
            # Each word's functions, built the first time a packet uses
            # them: pc-major, stage-minor, as the packets are scanned.
            names = names_by_pc.get(pc)
            if names is None:
                lowered = front.lowered(pc)
                if lowered.error is not None:
                    raise lowered.error
                names = []
                for stage, ops in enumerate(lowered.ops):
                    if not front.stage_items(pc)[stage]:
                        names.append(None)
                        continue
                    name = "insn_%x_stage_%d" % (pc, stage)
                    functions.append(
                        run_passes(IRFunction(name=name, ops=ops), model)
                    )
                    names.append(name)
                names = names_by_pc[pc] = tuple(names)
            return names

        table_spec = {}
        has_control = {}
        traps = {}
        with _obs.span(observer, "simcc.packetize", words=len(front.words)):
            for pc, extent in front.extents.items():
                message = front.trap_message(pc)
                if message is not None:
                    traps[pc] = message
                    has_control[pc] = True
                    continue
                members = [word_names(member)
                           for member in range(pc, pc + extent)]
                per_stage = tuple(
                    tuple(names[stage] for names in members
                          if names[stage] is not None)
                    for stage in range(depth)
                )
                table_spec[pc] = (per_stage, extent, extent)
                has_control[pc] = front.control_capable(pc)

        with _obs.span(observer, "simcc.analyze"):
            safety = schedule_safety(front)
        if observer is not None and safety:
            for pc, verdict in sorted(safety.items()):
                observer.on_hazard_verdict(pc, verdict)

        if verify.enabled():
            with _obs.span(observer, "simcc.verify",
                           functions=len(functions)):
                for func in functions:
                    verify.verify_function(func, model, context="portable")

        by_name = {func.name: func for func in functions}
        with _obs.span(observer, "simcc.absint",
                       packets=len(table_spec)):
            proofs = {
                pc: absint.analyze_packet(
                    [
                        [by_name[name] for name in stage_names]
                        for stage_names in per_stage
                    ],
                    model, pmem_name,
                )
                for pc, (per_stage, _words, _insns) in table_spec.items()
            }

    return PortableTable(
        level=level,
        model_name=model.name,
        program_name=program.name,
        functions=tuple(functions),
        table_spec=table_spec,
        has_control=has_control,
        instruction_count=len(front.words),
        word_count=len(front.words),
        schedule_safety=safety,
        proofs=proofs,
        traps=traps,
    )
