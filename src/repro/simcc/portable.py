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
(pc, stage), after the effects have been read off them.  The front
end's packet scan lays the function names out as the table spec, the
layout the level-2 table is built from too.

A portable table can be bound to any state/control pair (:meth:`bind`,
through the run-time's one table binder,
:func:`repro.machine.driver.bind_table`), serialised byte-for-byte
(:mod:`repro.simcc.cache`), or rendered as a standalone module
(:mod:`repro.simcc.emit`) that binds through the same binder.  The
persisted form is the *IR*, not source text: both backends render from
it on demand, and binding never re-runs the simulation compiler --
warm loads cost one ``exec`` of pre-compiled code plus argument
binding.

A table read back from its payload (:meth:`PortableTable.from_payload`)
keeps each IR function and each packet proof in its marshalled form
until something reads it: static column fusion (one packet at a time),
native rendering on a cache miss, the write guard's refresh,
``--dump-c`` and :meth:`PortableTable.to_payload`.  A warm load that
only binds the pre-compiled code decodes none of them.

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

from collections.abc import Mapping

from repro.behavior.runtime import CODEGEN_GLOBALS, bind_function
from repro.machine.driver import active_stages, bind_table, map_cells
from repro.simcc.ir import (
    IRFunction,
    function_from_payload,
    function_to_payload,
    render_function_source,
    run_passes,
)

LEVELS = ("sequenced", "instantiated")


class _Decoded(Mapping):
    """A read-only mapping whose values are decoded the first time each
    is read, then kept: ``payloads`` maps each key to its payload, and
    ``decode`` turns one payload into its value."""

    __slots__ = ("_payloads", "_decode", "_values")

    def __init__(self, payloads, decode):
        self._payloads = payloads
        self._decode = decode
        self._values = {}

    def __getitem__(self, key):
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._decode(self._payloads[key])
        return value

    def __contains__(self, key):
        return key in self._payloads

    def __iter__(self):
        return iter(self._payloads)

    def __len__(self):
        return len(self._payloads)


class PortableTable:
    """A serialisable, state-independent compiled simulation.

    ``table_spec`` maps each program address to ``(per_stage_names,
    words, insn_count)``, except the entry pcs in ``traps``, which map
    to the decoder's message.  :attr:`functions` are the lowered,
    post-pass :class:`repro.simcc.ir.IRFunction` objects in a fixed
    (pc-major, stage-minor) order, :meth:`function` reads one by name,
    and ``proofs`` maps each packet start to its
    :class:`repro.analysis.absint.PacketProof`; on a table read back
    from its payload both decode on first read.

    ``digest`` is the level-free content digest of what the table was
    compiled from (:func:`repro.simcc.cache.content_digest`): both
    levels build the same code, so it keys the native artifact.
    """

    def __init__(self, level, model_name, program_name, functions,
                 table_spec, has_control, instruction_count, word_count,
                 proofs=None, traps=None, code=None, digest=None):
        self.level = level
        self.model_name = model_name
        self.program_name = program_name
        self._functions = functions  # name -> IRFunction, in table order
        self.table_spec = table_spec
        self.has_control = has_control
        self.instruction_count = instruction_count
        self.word_count = word_count
        self.proofs = proofs
        self.traps = {} if traps is None else traps
        self.digest = digest
        self._code = code
        self._namespace = None
        self._stages = None
        self._ir = None

    # -- IR -----------------------------------------------------------------

    @property
    def functions(self):
        """Every IR function, in table order."""
        return tuple(self._functions.values())

    def function(self, name):
        """The IR function ``name``."""
        return self._functions[name]

    def ir_by_stage(self):
        """``{pc: per-stage tuples of IR functions}`` over the table
        spec (see :func:`repro.machine.driver.map_cells`), each packet
        assembled the first time it is read; shared by every binding."""
        if self._ir is None:
            function = self._functions.__getitem__
            self._ir = _Decoded(self.table_spec, lambda entry: tuple(
                tuple(map(function, names)) for names in entry[0]
            ))
        return self._ir

    # -- code ---------------------------------------------------------------

    def functions_source(self):
        """All IR functions rendered as one module-sized string of
        ``(s, c)`` functions."""
        return "\n".join(
            render_function_source(func) for func in self.functions
        )

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

    # -- binding ------------------------------------------------------------

    def bind(self, state, control):
        """Rehydrate into a :class:`SimulationTable` bound to a
        state/control pair, without re-running the simulation compiler.

        Each function binds once, as a zero-argument function over the
        shared code (:func:`repro.behavior.runtime.bind_function`), and
        :func:`repro.machine.driver.bind_table` assembles the slots.  The
        bound table shares :meth:`ir_by_stage` and ``proofs``, so static
        level-3 column *fusion* and native rendering work on
        cache-rehydrated tables too, decoding only what they read.
        """
        from repro.simcc.compiler import SimulationTable

        namespace = self.namespace()
        model = state.model
        if self._stages is None:  # the same for every binding
            self._stages = active_stages(self.table_spec,
                                         model.execute_stage_index)
        return SimulationTable(
            level=self.level,
            slots=bind_table(
                self.table_spec, self.traps,
                lambda name: bind_function(namespace[name], state, control),
                model.pipeline.depth, model.execute_stage_index,
            ),
            has_control=dict(self.has_control),
            instruction_count=self.instruction_count,
            word_count=self.word_count,
            ir_by_stage=self.ir_by_stage(),
            proofs=self.proofs,
            active_stages=self._stages,
            digest=self.digest,
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
        """The table :meth:`to_payload` wrote.  The spec, control flags
        and traps are used as marshal returns them (ints, strings and
        tuples); the IR functions and the proofs stay payloads until
        first read."""
        from repro.analysis.absint import PacketProof

        proofs = payload.get("proofs")
        return cls(
            level=payload["level"],
            model_name=payload["model"],
            program_name=payload["program"],
            functions=_Decoded(
                {func[0]: func for func in payload["functions"]},
                function_from_payload,
            ),
            table_spec=payload["table_spec"],
            has_control=payload["has_control"],
            instruction_count=payload["instruction_count"],
            word_count=payload["word_count"],
            proofs=(
                None if proofs is None
                else _Decoded(proofs, PacketProof.from_payload)
            ),
            traps=payload.get("traps"),
            code=payload.get("code"),
        )


# -- construction ------------------------------------------------------------


def build_portable_table(model, program, level="sequenced", observer=None):
    """Run full simulation compilation into a :class:`PortableTable`.

    ``observer`` records one phase-timing span per compilation step.
    """
    from repro import obs as _obs
    from repro.analysis import absint
    from repro.simcc import verify
    from repro.simcc.cache import content_digest
    from repro.simcc.frontend import ProgramFrontEnd
    from repro.support.errors import ReproError

    if level not in LEVELS:
        raise ReproError(
            "unknown simulation level %r (expected one of %s)"
            % (level, ", ".join(LEVELS))
        )
    pmem_name = model.config.program_memory

    with _obs.span(observer, "simcc.compile", level=level, portable=True):
        front = ProgramFrontEnd(model, program)
        with _obs.span(observer, "simcc.decode", words=len(front.words)):
            for pc in front.words:
                if front.decode(pc) is not None:
                    front.lowered(pc)

        functions = []

        def word_names(pc):
            # Each word's functions, built the first time a packet uses
            # them: pc-major, stage-minor, as the packets are scanned.
            lowered = front.lowered(pc)
            if lowered.error is not None:
                raise lowered.error
            names = []
            for stage, ops in enumerate(lowered.ops):
                if not front.stage_items(pc)[stage]:
                    names.append(())
                    continue
                name = "insn_%x_stage_%d" % (pc, stage)
                functions.append(
                    run_passes(IRFunction(name=name, ops=ops), model)
                )
                names.append((name,))
            return tuple(names)

        with _obs.span(observer, "simcc.packetize", words=len(front.words)):
            layout = front.table_layout(word_names)

        if verify.enabled():
            with _obs.span(observer, "simcc.verify",
                           functions=len(functions)):
                for func in functions:
                    verify.verify_function(func, model, context="portable")

        by_name = {func.name: func for func in functions}
        with _obs.span(observer, "simcc.absint",
                       packets=len(layout.spec)):
            proofs = {
                pc: absint.analyze_packet(funcs_by_stage, model, pmem_name)
                for pc, funcs_by_stage
                in map_cells(layout.spec, by_name.__getitem__).items()
            }

    return PortableTable(
        level=level,
        model_name=model.name,
        program_name=program.name,
        functions=by_name,
        table_spec=layout.spec,
        has_control=layout.has_control,
        instruction_count=len(front.words),
        word_count=len(front.words),
        proofs=proofs,
        traps=layout.traps,
        digest=content_digest(model, program),
    )
