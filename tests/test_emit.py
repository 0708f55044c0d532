"""Tests for the standalone simulator-module emitter."""

import pytest

from repro.machine.control import PipelineControl
from repro.machine.driver import Pipeline
from repro.machine.state import ProcessorState
from repro.sim import create_simulator
from repro.simcc.emit import emit_simulator_module
from repro.support.errors import SimulationError


@pytest.fixture(scope="module")
def program(testmodel_tools):
    return testmodel_tools.assembler.assemble_text("""
start:  ldi r1, 21
        add r2, r1, r1
        st r2, 7
        halt
""", name="emitted")


@pytest.fixture(scope="module")
def emitted_module(testmodel, program):
    source = emit_simulator_module(testmodel, program)
    namespace = {"__name__": "emitted_sim"}
    exec(compile(source, "<emitted>", "exec"), namespace)
    return source, namespace


class TestEmittedSource:
    def test_contains_generated_functions(self, emitted_module):
        source, namespace = emitted_module
        assert "def insn_0_stage_2" in source
        assert "TABLE_SPEC" in source
        assert "def build(state, control):" in source

    def test_constant_folded_operands(self, emitted_module):
        source, _ = emitted_module
        # ldi r1, 21 with sext folded at generation time would still
        # reference the literal 21 in the generated behaviour.
        assert "21" in source

    def test_program_embedded(self, emitted_module, program):
        _, namespace = emitted_module
        embedded = namespace["PROGRAM"]
        assert embedded.entry == program.entry
        assert embedded.to_dict() == program.to_dict()


class TestEmittedExecution:
    def test_matches_compiled_simulator(self, testmodel, program,
                                        emitted_module):
        _, namespace = emitted_module
        state = ProcessorState(testmodel)
        control = PipelineControl()
        namespace["PROGRAM"].load_into(state)
        frontend = namespace["make_frontend"](state, control)
        pipe = Pipeline(testmodel, state, control, frontend)
        pipe.run_chunk(1000)

        reference = create_simulator(testmodel, "compiled")
        reference.load_program(program)
        reference.run()

        assert state.differences(reference.state) == []
        assert pipe.cycles == reference.cycles

    def test_emitted_for_vliw_model(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text("""
        mvk a1, 5
     || mvk a2, 6
        add a3, a1, a2
        halt
""", name="vliw_emit")
        source = emit_simulator_module(c62x, program)
        namespace = {}
        exec(compile(source, "<emitted62>", "exec"), namespace)
        state = ProcessorState(c62x)
        control = PipelineControl()
        namespace["PROGRAM"].load_into(state)
        frontend = namespace["make_frontend"](state, control)
        pipe = Pipeline(c62x, state, control, frontend)
        pipe.run_chunk(1000)
        assert state.A[3] == 11


class TestEmittedTraps:
    """``build()`` holds a slot for every TABLE_SPEC and TRAPS pc; a
    trap slot raises the decoder's message only when it executes."""

    @pytest.fixture(scope="class")
    def trapping(self, testmodel, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
start:  ldi r1, 5
        nop
        .word 0xFFFF
        st r1, 3
        halt
""", name="emitted_trap")
        namespace = {"__name__": "emitted_trap"}
        exec(compile(emit_simulator_module(testmodel, program),
                     "<emitted_trap>", "exec"), namespace)
        return namespace

    @staticmethod
    def _raised(slot):
        for ops in slot.ops_by_stage:
            for op in ops:
                with pytest.raises(SimulationError) as info:
                    op()
                return str(info.value)
        return None

    def test_build_covers_spec_and_traps(self, testmodel, trapping):
        slots = trapping["build"](ProcessorState(testmodel),
                                  PipelineControl())
        assert trapping["TRAPS"]
        assert set(slots) == (set(trapping["TABLE_SPEC"])
                              | set(trapping["TRAPS"]))
        for pc, message in trapping["TRAPS"].items():
            assert slots[pc].label == "<trap>"
            assert self._raised(slots[pc]) == message

    def test_frontend_traps_outside_the_table(self, testmodel, trapping):
        frontend = trapping["make_frontend"](ProcessorState(testmodel),
                                             PipelineControl())
        assert self._raised(frontend(0x7FF)) == (
            "fetch outside the compiled region (pc=0x7ff)"
        )
