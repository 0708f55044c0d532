"""Tests for the simulation compiler and its generator."""

import pytest

from repro.machine.control import PipelineControl
from repro.machine.state import ProcessorState
from repro.simcc.compiler import SimulationCompiler
from repro.simcc.generator import generate_simulation_compiler
from repro.support.errors import ReproError, SimulationError
from repro.tools.objfile import Program


@pytest.fixture(scope="module")
def compiled_table(testmodel, testmodel_tools):
    program = testmodel_tools.assembler.assemble_text("""
start:  ldi r1, 5
        ldi r2, 7
        add r3, r1, r2
        st r3, 9
        halt
""")
    state = ProcessorState(testmodel)
    control = PipelineControl()
    program.load_into(state)
    simcc = generate_simulation_compiler(testmodel)
    table = simcc.compile(program, state, control)
    return table, program


class TestSimulationTable:
    def test_one_slot_per_program_word(self, compiled_table):
        table, program = compiled_table
        assert set(table.slots) == set(range(5))
        assert table.instruction_count == 5
        assert table.word_count == 5

    def test_slot_shape(self, compiled_table, testmodel):
        table, _ = compiled_table
        slot = table.slots[0]
        assert len(slot.ops_by_stage) == testmodel.pipeline.depth
        assert slot.words == 1
        assert slot.insn_count == 1
        # ldi has exactly one micro-op, at EX (stage 2).
        assert len(slot.ops_by_stage[2]) == 1
        assert slot.ops_by_stage[0] == ()

    def test_multi_stage_instruction(self, compiled_table):
        table, _ = compiled_table
        st_slot = table.slots[3]
        assert len(st_slot.ops_by_stage[2]) == 1  # st at EX
        assert len(st_slot.ops_by_stage[3]) == 1  # note_store at WB

    def test_has_control_flags(self, compiled_table):
        table, _ = compiled_table
        assert table.has_control[4]  # halt
        assert not table.has_control[0]  # ldi

    def test_slot_at_unknown_address_raises(self, compiled_table):
        table, _ = compiled_table
        with pytest.raises(SimulationError):
            table.slot_at(100)

    def test_frontend_returns_trap_for_unknown(self, compiled_table,
                                               testmodel):
        table, _ = compiled_table
        frontend = table.make_frontend(testmodel)
        slot = frontend(100)
        assert slot.label == "<trap>"


class TestLevels:
    def test_unknown_level_rejected(self, testmodel):
        simcc = SimulationCompiler(testmodel)
        with pytest.raises(ReproError):
            simcc.compile(Program(), None, None, level="ludicrous")

    def test_instantiated_level_fuses_per_stage(self, testmodel,
                                                testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(
            "st r1, 3\nhalt\n"
        )
        state = ProcessorState(testmodel)
        control = PipelineControl()
        program.load_into(state)
        table = SimulationCompiler(testmodel).compile(
            program, state, control, level="instantiated"
        )
        slot = table.slots[0]
        # Level 3: at most one generated function per occupied stage,
        # bound to the state/control pair as a zero-argument function.
        assert len(slot.ops_by_stage[2]) == 1
        assert len(slot.ops_by_stage[3]) == 1
        assert slot.ops_by_stage[2][0].__name__.startswith("insn_")

    def test_both_levels_execute_identically(self, testmodel,
                                             testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
        ldi r1, 9
        st r1, 4
        halt
""")
        results = []
        for level in ("sequenced", "instantiated"):
            state = ProcessorState(testmodel)
            control = PipelineControl()
            program.load_into(state)
            table = SimulationCompiler(testmodel).compile(
                program, state, control, level=level
            )
            # Drive the table directly through the generic driver.
            from repro.machine.driver import Pipeline

            pipe = Pipeline(
                testmodel, state, control, table.make_frontend(testmodel)
            )
            pipe.run_chunk(1000)
            assert pipe.drained and control.halted
            results.append(state.snapshot())
        assert results[0] == results[1]

    def test_undecodable_word_compiles_to_trap_slot(self, testmodel):
        # Like the interpretive fetch: one word, one instruction,
        # control-capable, raising the decoder's message only when it
        # executes -- not a compile-time failure.
        program = Program(entry=0)
        program.add_segment("pmem", 0, [0b0_0110_000_00000000])  # bad opcode
        state = ProcessorState(testmodel)
        control = PipelineControl()
        program.load_into(state)
        table = SimulationCompiler(testmodel).compile(program, state, control)
        slot = table.slots[0]
        assert (slot.words, slot.insn_count, slot.label) == (1, 1, "<trap>")
        assert table.has_control[0]
        assert table.schedule_safety[0] == "unknown"
        with pytest.raises(SimulationError,
                           match="no operation coding matches"):
            for ops in slot.ops_by_stage:
                for op in ops:
                    op()


class TestVliwPackets:
    def test_packets_merge_member_ops(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text("""
        mvk a1, 1
     || mvk a2, 2
     || mvk a3, 3
        halt
""")
        state = ProcessorState(c62x)
        control = PipelineControl()
        program.load_into(state)
        table = SimulationCompiler(c62x).compile(program, state, control)
        e1 = c62x.pipeline.stage_index("E1")
        # Packet starting at 0 spans 3 words and has 3 E1 micro-ops.
        slot = table.slots[0]
        assert slot.words == 3
        assert slot.insn_count == 3
        assert len(slot.ops_by_stage[e1]) == 3
        # Entry in the middle of the packet is still compiled (branch
        # targets may land there).
        assert table.slots[1].words == 2
        assert table.slots[2].words == 1

    def test_generator_validates_model(self, c62x):
        compiler = generate_simulation_compiler(c62x, validate=True)
        assert compiler.model is c62x
