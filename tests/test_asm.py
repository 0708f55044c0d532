"""Tests for the retargetable assembler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.support.errors import AssemblerError
from repro.tools.asm import _PLAIN_WORDS


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

    @pytest.mark.parametrize("text, line", [
        (".entry nowhere\nnop\n", 1), ("nop\nhalt\n.entry nowhere\n", 3),
    ])
    def test_undefined_entry_reports_its_line(self, testmodel_tools, text,
                                              line):
        with pytest.raises(AssemblerError) as exc_info:
            testmodel_tools.assembler.assemble_text(text)
        assert str(exc_info.value) == \
            "line %d: undefined symbol 'nowhere'" % line

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

    @pytest.mark.parametrize("text, message", [
        (".org -2\nnop\n", "line 1: .org address -2 is negative"),
        (".section dmem\n.org -1\n.word 5\n",
         "line 2: .org address -1 is negative"),
        (".equ TOP, 4\n.org TOP - 6\n", "line 2: .org address -2 is negative"),
        (".org 0x7fffff\nnop\n",
         "line 2: address 0x7fffff is outside memory 'pmem' (8192 words)"),
        ("nop\n.org 8191\nnop\nnop\n",
         "line 4: address 0x2000 is outside memory 'pmem' (8192 words)"),
        (".section dmem\n.org 16383\n.word 1, 2\n",
         "line 3: address 0x4000 is outside memory 'dmem' (16384 words)"),
        (".section dmem\n.org 16383\n.word 1, 2 + 0\n",
         "line 3: address 0x4000 is outside memory 'dmem' (16384 words)"),
        (".section dmem\n.org 16380\n.space 8\n",
         "line 3: address 0x4000 is outside memory 'dmem' (16384 words)"),
        (".section dmem\n.org 20000\n.word 1\n",
         "line 3: address 0x4e20 is outside memory 'dmem' (16384 words)"),
    ])
    def test_placement_outside_memory_rejected_at_its_line(
            self, c62x_tools, text, message):
        with pytest.raises(AssemblerError) as exc_info:
            c62x_tools.assembler.assemble_text(text)
        assert str(exc_info.value) == message

    def test_placement_up_to_the_last_word_accepted(self, c62x_tools):
        program = c62x_tools.assembler.assemble_text(
            ".org 8191\nend: nop\n.org 8192\nafter:\n.section dmem\n"
            ".org 16382\n.word 1, 2\n.org 16384\n"
        )
        assert [(s.memory, s.base, len(s.words))
                for s in program.segments] == [("pmem", 8191, 1),
                                               ("dmem", 16382, 2)]
        assert program.symbols == {"end": 8191, "after": 8192}

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
        # The second line repeats the first: the memoised match must
        # still be checked for its placement.
        with pytest.raises(AssemblerError,
                           match="line 2: '\\|\\|' is only valid"):
            testmodel_tools.assembler.assemble_text(
                "nop\n|| nop\n"
            )

    def test_parallel_bare_rejected(self, c62x_tools):
        with pytest.raises(AssemblerError):
            c62x_tools.assembler.assemble_text("mvk a1, 1\n||\n")

    @pytest.mark.parametrize("line", [
        "|| .word 5", "|| .org 8", "||.section dmem", "|| here:",
        "|| here: there:",
    ])
    def test_parallel_needs_an_instruction(self, c62x_tools, line):
        with pytest.raises(AssemblerError,
                           match="line 2: '\\|\\|' must be followed by an "
                                 "instruction"):
            c62x_tools.assembler.assemble_text("mvk a1, 1\n" + line + "\n")

    def test_labelled_parallel_instruction_accepted(self, c62x_tools):
        program = c62x_tools.assembler.assemble_text(
            "mvk a1, 1\n|| here: mvk a2, 2\n"
        )
        assert program.symbols == {"here": 1}
        assert words_of(program)[0] & 1 == 1


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


class TestDataRanges:
    """``.word`` values must fit the section's memory word, as an
    instruction operand must fit its field; ``.space`` never rewinds."""

    @pytest.mark.parametrize("value", [
        "0x1FFFFFFFF", "4294967296", "-2147483649", "-0x80000001",
    ])
    def test_word_out_of_range_rejected(self, c62x_tools, value):
        with pytest.raises(AssemblerError,
                           match="line 2: value -?[0-9]+ does not fit in "
                                 "32-bit memory 'dmem'"):
            c62x_tools.assembler.assemble_text(
                ".section dmem\n.word 1, %s\n" % value
            )

    def test_symbolic_word_out_of_range_rejected(self, c62x_tools):
        with pytest.raises(AssemblerError, match="line 3: value"):
            c62x_tools.assembler.assemble_text(
                ".equ BIG, 0x100000000\n.section dmem\n.word BIG - 0\n"
            )

    @pytest.mark.parametrize("value, stored", [
        ("4294967295", 0xFFFFFFFF), ("-2147483648", 0x80000000),
        ("-1", 0xFFFFFFFF),
    ])
    def test_word_range_edges_accepted(self, c62x_tools, value, stored):
        program = c62x_tools.assembler.assemble_text(
            ".section dmem\n.word %s\n" % value
        )
        assert words_of(program, "dmem") == [stored]

    def test_narrow_memory_range(self, testmodel_tools):
        # testmodel's dmem holds 32-bit ints, its pmem 16-bit words.
        with pytest.raises(AssemblerError, match="16-bit memory 'pmem'"):
            testmodel_tools.assembler.assemble_text(".word 0x10000\n")

    def test_negative_space_rejected_at_its_line(self, c62x_tools):
        with pytest.raises(AssemblerError,
                           match="line 3: .space count -1 is negative"):
            c62x_tools.assembler.assemble_text(
                ".section dmem\n.word 1\n.space -1\n.word 2\n"
            )


class TestRepeatedLines:
    """A line's match is memoised by its text; every occurrence still
    gets its own placement checks and line number."""

    def test_repeated_line_in_data_section_rejected(self, c62x_tools):
        with pytest.raises(AssemblerError,
                           match="line 3: instructions must go to program "
                                 "memory"):
            c62x_tools.assembler.assemble_text(
                "mvk a1, 1\n.section dmem\nmvk a1, 1\n"
            )

    def test_repeated_out_of_range_line_reports_first(self, testmodel_tools):
        with pytest.raises(AssemblerError,
                           match="line 2: value 300 does not fit"):
            testmodel_tools.assembler.assemble_text(
                "nop\nldi r1, 300\nhalt\nldi r1, 300\n"
            )

    def test_repeated_symbolic_line_resolves_per_program(
            self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
top:    brnz r1, top
        brnz r1, top
mid:    brnz r1, top ; labelled: matched afresh
        brnz r1, mid
        brnz r1, top
""")
        assert [w & 0xFF for w in words_of(program)] == [0, 0, 0, 2, 0]

    def test_repeated_lines_encode_like_distinct_ones(self, c62x_tools):
        text = "mvk a1, 1\n|| mvk a2, 2\nmvk a1, 1\nmvk a2, 2\n"
        words = words_of(c62x_tools.assembler.assemble_text(text))
        assert words[0] & 1 == 1 and words[1] & 1 == 0
        assert words[2] == words[0] & ~1 and words[3] == words[1]


# -- the plain ``.word`` fast path ------------------------------------------

_SPACING = st.text(alphabet=" \t", max_size=2)


@st.composite
def _literal(draw, value):
    """``value`` spelled in one of the lexer's integer forms."""
    form = draw(st.sampled_from(["dec", "x", "X", "b", "B"]))
    magnitude = abs(value)
    if form == "dec":
        digits = str(magnitude)
    elif form in "xX":
        digits = "0%s%x" % (form, magnitude)
        if draw(st.booleans()):
            digits = digits[:2] + digits[2:].upper()
    else:
        digits = "0%s%s" % (form, bin(magnitude)[2:])
    return ("-" if value < 0 else "") + digits


@st.composite
def _plain_word_line(draw):
    values = draw(st.lists(
        st.integers(min_value=-(1 << 32), max_value=(1 << 33)),
        min_size=1, max_size=6,
    ))
    text = ".word" + draw(st.text(alphabet=" \t", min_size=1, max_size=2))
    for index, value in enumerate(values):
        if index:
            text += draw(_SPACING) + "," + draw(_SPACING)
        text += draw(_literal(value))
    return text


def _outcome(assembler, text):
    try:
        program = assembler.assemble_text(text)
    except AssemblerError as exc:
        return str(exc)
    return [(s.memory, s.base, s.words) for s in program.segments]


class TestPlainWordFastPath:
    @given(line=_plain_word_line())
    def test_same_image_as_general_path(self, c62x_tools, line):
        assert _PLAIN_WORDS.fullmatch(line) is not None
        fast = _outcome(c62x_tools.assembler,
                        ".section dmem\n%s\n.word 7" % line)
        # A label sends the same line through the tokenizer.
        general = _outcome(c62x_tools.assembler,
                           ".section dmem\nt: %s\n.word 7" % line)
        assert fast == general

    @pytest.mark.parametrize("line, words", [
        (".word N, -N", [5, 0xFFFFFFFB]),
        (".word 1 + 2, 3 - 1, -1 + 3", [3, 2, 2]),
        (".WORD 5", [5]),
        (". word 5", [5]),
        (".word - 5", [0xFFFFFFFB]),
    ])
    def test_other_spellings_take_the_general_path(self, c62x_tools, line,
                                                   words):
        assert _PLAIN_WORDS.fullmatch(line) is None
        program = c62x_tools.assembler.assemble_text(
            ".equ N, 5\n.section dmem\n%s\n" % line
        )
        assert words_of(program, "dmem") == words

    @pytest.mark.parametrize("line, error", [
        (".word\u00a01", "unexpected character '\\xa0'"),
        (".word 1,\u00a02", "unexpected character '\\xa0'"),
        (".word \u0661\u0662", "unexpected character '\u0661'"),
        (".word 1, \u00b2", "unexpected character '\u00b2'"),
        (".word 1 2", "expected ',' between .word values"),
        (".word 1,", "missing operand"),
        (".word 0x1g", "expected ',' between .word values"),
        (".word 0b012", "expected ',' between .word values"),
        (".word 0x", "incomplete hex literal '0x'"),
        (".word 1_000", "invalid character '_' after number '1'"),
        (".word nowhere", "undefined symbol 'nowhere'"),
    ])
    def test_general_path_errors_unchanged(self, c62x_tools, line, error):
        assert _PLAIN_WORDS.fullmatch(line) is None
        with pytest.raises(AssemblerError) as exc_info:
            c62x_tools.assembler.assemble_text(".section dmem\n" + line)
        assert str(exc_info.value) == "line 2: " + error
