"""Tests for the retargetable assembler."""

import pytest

from repro.support.errors import AssemblerError


def words_of(program, memory="pmem"):
    (segment,) = program.segments_in(memory)
    return segment.words


class TestBasics:
    def test_single_instruction(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("halt")
        assert words_of(program) == [0b0_0101_00000000000]

    def test_operands_and_registers(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("ldi r3, 17")
        assert words_of(program) == [0b0_0010_011_00010001]

    def test_case_matters_for_mnemonics(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text("HALT")

    def test_unknown_mnemonic_rejected_with_line(self, testmodel_tools):
        with pytest.raises(AssemblerError) as exc_info:
            testmodel_tools.assembler.assemble_text("nop\nfrob r1\n")
        assert "line 2" in str(exc_info.value)

    def test_comments_and_blank_lines(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
; full-line comment
        nop      ; trailing comment
        // another style
        halt     # shell style
""")
        assert len(words_of(program)) == 2

    def test_hex_and_binary_operands(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(
            "ldi r1, 0x10\nldi r2, 0b101\n"
        )
        words = words_of(program)
        assert words[0] & 0xFF == 0x10
        assert words[1] & 0xFF == 0b101

    def test_negative_immediates_encode_twos_complement(self,
                                                        testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("ldi r0, -1")
        assert words_of(program)[0] & 0xFF == 0xFF

    def test_negative_out_of_range_rejected(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text("ldi r0, -129")

    @pytest.mark.parametrize("operand", ["²", "١٢"])
    def test_non_ascii_digit_operand_rejected(self, testmodel_tools,
                                              operand):
        with pytest.raises(AssemblerError,
                           match="line 1: unexpected character"):
            testmodel_tools.assembler.assemble_text("ldi r1, " + operand)

    def test_positive_out_of_range_rejected(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text("ldi r0, 256")


class TestLabelsAndSymbols:
    def test_label_resolves_forward_and_backward(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
start:  brnz r1, fwd
        nop
fwd:    brnz r2, start
""")
        words = words_of(program)
        assert words[0] & 0xFF == 2  # fwd
        assert words[2] & 0xFF == 0  # start

    def test_symbols_recorded(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(
            "a: nop\nb: halt\n"
        )
        assert program.symbols == {"a": 0, "b": 1}

    def test_undefined_symbol_rejected(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text("brnz r0, nowhere")

    def test_duplicate_label_rejected(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text("x: nop\nx: nop\n")

    def test_symbol_arithmetic(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
        .equ BASE, 10
        ldi r1, BASE + 5
        ldi r2, BASE - 3
""")
        words = words_of(program)
        assert words[0] & 0xFF == 15
        assert words[1] & 0xFF == 7


class TestDirectives:
    def test_org_moves_location(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
        nop
        .org 0x10
        halt
""")
        segments = program.segments_in("pmem")
        assert [(s.base, len(s.words)) for s in segments] == [(0, 1), (16, 1)]

    def test_entry_symbol(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
        .entry main
        nop
main:   halt
""")
        assert program.entry == 1

    def test_entry_defaults_to_zero(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("nop")
        assert program.entry == 0

    def test_section_and_word(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
        .section dmem
        .org 4
vals:   .word 1, -2, 0x30
        .section pmem
        ldi r1, vals
        halt
""")
        (dseg,) = program.segments_in("dmem")
        assert dseg.base == 4
        assert dseg.words[0] == 1
        assert dseg.words[2] == 0x30
        assert words_of(program)[0] & 0xFF == 4  # label in data section

    def test_space_reserves_zeroes(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
        .section dmem
        .space 3
        .word 9
""")
        (segment,) = program.segments_in("dmem")
        assert segment.words == [0, 0, 0, 9]

    def test_unknown_section_rejected(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text(".section vram")

    def test_instructions_only_in_program_memory(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text(
                ".section dmem\nnop\n"
            )

    def test_unknown_directive_rejected(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text(".wibble 3")

    def test_equ_duplicate_rejected(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text(
                ".equ A, 1\n.equ A, 2\n"
            )

    def test_double_assembly_at_same_address_rejected(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text("""
        nop
        .org 0
        halt
""")


class TestNonOrthogonalGuards:
    """The paper's Section 5.1 feature, through the assembler."""

    def test_if_arm_sets_mode_bit(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(
            "add r1, r2, r3\naddl r1, r2, r3\n"
        )
        words = words_of(program)
        assert words[0] >> 15 == 0  # mode bit clear for 'add'
        assert words[1] >> 15 == 1  # mode bit set for 'addl'

    def test_guard_bound_fields_equal_syntax(self, testmodel_tools):
        # Same operand encoding either way, only the mode bit differs.
        program = testmodel_tools.assembler.assemble_text(
            "add r1, r2, r3\naddl r1, r2, r3\n"
        )
        words = words_of(program)
        assert words[0] & 0x7FFF == words[1] & 0x7FFF


class TestBacktracking:
    def test_postmodify_suffix_requires_backtracking(self, c54x_tools):
        program = c54x_tools.assembler.assemble_text(
            "lt *ar1\nlt *ar1+\nlt *ar1-\n"
        )
        words = words_of(program)
        pmods = [(w >> 6) & 0b11 for w in words]
        assert pmods == [0, 1, 2]

    def test_whole_line_must_be_consumed(self, c54x_tools):
        with pytest.raises(AssemblerError):
            c54x_tools.assembler.assemble_text("lt *ar1 banana")


class TestVliwParallel:
    def test_parallel_bar_sets_pbit_of_previous(self, c62x_tools):
        program = c62x_tools.assembler.assemble_text("""
        mvk a1, 1
     || mvk a2, 2
        mvk a3, 3
""")
        words = words_of(program)
        assert words[0] & 1 == 1  # chained to the next word
        assert words[1] & 1 == 0
        assert words[2] & 1 == 0

    def test_parallel_without_predecessor_rejected(self, c62x_tools):
        with pytest.raises(AssemblerError):
            c62x_tools.assembler.assemble_text("|| mvk a1, 1")

    def test_parallel_on_scalar_model_rejected(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text(
                "nop\n|| nop\n"
            )

    def test_parallel_bare_rejected(self, c62x_tools):
        with pytest.raises(AssemblerError):
            c62x_tools.assembler.assemble_text("mvk a1, 1\n||\n")


class TestDefaults:
    def test_unmentioned_fields_assemble_to_zero(self, testmodel_tools,
                                                 testmodel):
        # 'nop' says nothing about the root's mode bit: defaults to 0.
        program = testmodel_tools.assembler.assemble_text("nop")
        assert words_of(program) == [0]

    def test_fused_register_prefix(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("ldi r7, 1")
        assert (words_of(program)[0] >> 8) & 0b111 == 7

    def test_register_index_out_of_range_rejected(self, testmodel_tools):
        with pytest.raises(AssemblerError):
            testmodel_tools.assembler.assemble_text("ldi r9, 1")
