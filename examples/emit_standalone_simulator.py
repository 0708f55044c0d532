#!/usr/bin/env python
"""Emit a standalone compiled simulator, like the paper emits C++.

The simulation-compiler generator can write the compiled simulation as
a self-contained Python module: every instruction of the application
becomes specialised source code with operands folded in (operation
instantiation / simulation-loop unfolding).  This script emits such a
module for a small program, prints an excerpt, then imports and runs
it -- without touching the LISA front-end again.
"""

import os
import sys
import tempfile

from repro import build_toolset, load_model
from repro.machine import Pipeline, PipelineControl, ProcessorState
from repro.simcc import emit_simulator_module

PROGRAM = """
        .entry start
start:  ldi r1, 11
        ldi r2, 31
        mul r3, r1, r2
        st r3, 16
        halt
"""


def main():
    model = load_model("tinydsp")
    tools = build_toolset(model)
    program = tools.assembler.assemble_text(PROGRAM, name="standalone")

    source = emit_simulator_module(model, program)
    print("emitted %d lines of specialised simulator source; excerpt:\n"
          % len(source.splitlines()))
    in_function = False
    shown = 0
    for line in source.splitlines():
        if line.startswith("def insn_"):
            in_function = True
        if in_function and shown < 12:
            print("   ", line)
            shown += 1
    print("    ...")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "standalone_sim.py")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        sys.path.insert(0, tmp)
        try:
            import standalone_sim
        finally:
            sys.path.pop(0)

    state = ProcessorState(model)
    control = PipelineControl()
    standalone_sim.PROGRAM.load_into(state)
    frontend = standalone_sim.make_frontend(state, control)
    pipeline = Pipeline(model, state, control, frontend)
    pipeline.run_chunk(10_000)

    print("\nran the emitted module: dmem[16] = %d (11 * 31 = %d)"
          % (state.dmem[16], 11 * 31))
    assert state.dmem[16] == 341


if __name__ == "__main__":
    main()
