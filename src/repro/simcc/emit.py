"""Emission of a standalone compiled-simulator module.

The paper's simulation-compiler generator produces C++ source; the
analogous artefact here is a Python module containing the specialised
behaviour functions for one program (operation instantiation) plus the
simulation table connecting them to pipeline stages.  The module has no
dependency on the model or the front-end -- only on the small run-time
(:mod:`repro.behavior.runtime`, :mod:`repro.machine`) -- demonstrating
that simulation compilation is a *translation*, not an interpretation.

The emitter is a thin renderer over
:class:`repro.simcc.portable.PortableTable` -- the same relocatable
form the on-disk cache stores -- so :func:`render_module` can render a
cached table without re-running the simulation compiler.  The module
holds data and functions only: its ``build()`` and ``make_frontend()``
call the run-time's table binder and table front end
(:func:`repro.machine.driver.bind_table`,
:func:`~repro.machine.driver.table_frontend`), the code a cached table
rehydrates through.  The behaviour functions are the table's post-pass
IR, so their stores are raw exactly where the IR passes proved the
value canonical, as in every other backend.  A packet with an
undecodable member (``traps``) raises the decoder's message if it
executes, as the in-process simulators do.
"""

from __future__ import annotations

_HEADER = '''"""Auto-generated compiled simulator for model %(model)r,
program %(program)r.  Generated by repro.simcc.emit -- do not edit.

Usage::

    from repro.machine import Pipeline, PipelineControl, ProcessorState
    module.PROGRAM.load_into(state)
    frontend = module.make_frontend(state, control)
    pipeline = Pipeline(model, state, control, frontend)
    pipeline.run_chunk(max_cycles)  # stops early once halted and drained
"""

from repro.behavior.runtime import CODEGEN_GLOBALS as _G
from repro.behavior.runtime import bind_function as _bind
from repro.machine.driver import bind_table as _bind_table
from repro.machine.driver import table_frontend as _table_frontend
from repro.tools.objfile import Program as _Program

__sext = _G["__sext"]
__zext = _G["__zext"]
__sat = _G["__sat"]
__abs = _G["__abs"]
__min = _G["__min"]
__max = _G["__max"]
__idiv = _G["__idiv"]
__imod = _G["__imod"]

'''

_RUNTIME = '''

def build(state, control):
    """Bind the generated functions to a state/control pair (each op a
    zero-argument function over the shared code).

    Returns a dict mapping program addresses to IssueSlots; a pc in
    TRAPS (a packet with an undecodable member) gets a trap slot that
    raises the decoder's message if it executes.
    """
    namespace = globals()
    return _bind_table(
        TABLE_SPEC, TRAPS,
        lambda name: _bind(namespace[name], state, control),
        DEPTH, TRAP_STAGE,
    )


def make_frontend(state, control):
    """A ready-to-use pipeline front-end over the compiled table."""
    return _table_frontend(build(state, control), DEPTH, TRAP_STAGE)
'''


def emit_simulator_module(model, program, level="sequenced"):
    """Return Python source for a standalone compiled simulator.

    Builds the portable table for ``level`` and renders it with
    :func:`render_module` (which serves an already-built table).
    """
    from repro.simcc.portable import build_portable_table

    return render_module(
        model, program, build_portable_table(model, program, level)
    )


def render_module(model, program, portable):
    """Render a portable table as standalone module source.

    The behaviour functions are rendered from the table's lowered IR by
    :func:`repro.simcc.ir.render_function_source` -- the same IR the
    in-process exec backend compiles, so the emitted module is
    bit-identical in behaviour by construction.
    """
    from repro.simcc.ir import render_function_source

    chunks = [_HEADER % {"model": model.name, "program": program.name}]
    for func in portable.functions:
        chunks.append(render_function_source(func))

    spec_entries = [
        "    %d: (%r, %d, %d)," % (pc, per_stage, words, insn_count)
        for pc, (per_stage, words, insn_count)
        in sorted(portable.table_spec.items())
    ]
    chunks.append("TABLE_SPEC = {\n%s\n}\n" % "\n".join(spec_entries))
    chunks.append(
        "HAS_CONTROL = %r\n" % (dict(sorted(portable.has_control.items())),)
    )
    chunks.append("TRAPS = %r\n" % (dict(sorted(portable.traps.items())),))
    chunks.append(
        "PROGRAM = _Program.from_dict(%r)\n" % (program.to_dict(),)
    )
    chunks.append(
        "DEPTH = %d\nTRAP_STAGE = %d\n"
        % (model.pipeline.depth, model.execute_stage_index)
    )
    chunks.append(_RUNTIME)
    return "\n".join(chunks)
