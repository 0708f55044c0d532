"""Tests for the retargetable disassembler, including round-trips."""

import pytest

LINES_TINYDSP = [
    "nop",
    "add r1, r2, r3",
    "adds r1, r2, r3",
    "sub r4, r5, r6",
    "subs r4, r5, r6",
    "mul r0, r1, r2",
    "muls r0, r1, r2",
    "and r1, r1, r2",
    "or r3, r3, r4",
    "xor r5, r5, r6",
    "shl r1, r2, 3",
    "shr r1, r2, 7",
    "ldi r7, 42",
    "ld r1, 100",
    "ld r1, * 2",
    "st r3, 99",
    "st r3, * 4",
    "br 123",
    "brnz r2, 45",
    "mov r6, r7",
    "halt",
]

LINES_C54X = [
    "nop",
    "ld *ar1+, a",
    "ld 5, b",
    "stl a, *ar2",
    "sth b, *ar3-",
    "add *ar1, a",
    "sub *ar2+, b",
    "add 100, a",
    "sftl a, 4",
    "sftr b, 2",
    "lt *ar4+",
    "mpy *ar5, a",
    "mac *ar6+, b",
    "mas *ar7, a",
    "stm 200, ar3",
    "adar ar1, 9",
    "mar *ar2+",
    "b 777",
    "banz 45, ar0",
    "halt",
]

LINES_C62X = [
    "nop",
    "add a1, a2, b3",
    "sub b4, b5, a6",
    "and a7, a8, a9",
    "or b1, b2, b3",
    "xor a0, a1, a2",
    "cmpeq a3, a4, b5",
    "cmpgt a1, b2, b3",
    "cmplt b1, a2, a3",
    "shl a1, a2, 16",
    "shr b1, b2, 31",
    "shru a4, a5, 1",
    "sadd a1, a2, a3",
    "ssub b1, b2, b3",
    "sshl a1, a2, 16",
    "abs a1, b2",
    "mv b1, a1",
    "mvk a1, 12345",
    "mvkh a1, 65535",
    "addk b2, 100",
    "mpy a4, a5, b6",
    "mpyh b4, b5, a6",
    "ldw a5, a4, 16383",
    "stw b5, b4, 100",
    "b 8000",
    "bnz a1, 4095",
    "bz b2, 0",
    "halt",
]


def roundtrip(tools, line):
    """assemble -> disassemble -> assemble must be a fixed point."""
    program = tools.assembler.assemble_text(line)
    (segment,) = program.segments_in(
        tools.model.config.program_memory
    )
    word = segment.words[0]
    text = tools.disassembler.disassemble_word(word)
    program2 = tools.assembler.assemble_text(text)
    (segment2,) = program2.segments_in(
        tools.model.config.program_memory
    )
    return word, segment2.words[0], text


class TestRoundTrips:
    @pytest.mark.parametrize("line", LINES_TINYDSP)
    def test_tinydsp(self, tinydsp_tools, line):
        word, word2, text = roundtrip(tinydsp_tools, line)
        assert word == word2, "%r -> %r" % (line, text)

    @pytest.mark.parametrize("line", LINES_C54X)
    def test_c54x(self, c54x_tools, line):
        word, word2, text = roundtrip(c54x_tools, line)
        assert word == word2, "%r -> %r" % (line, text)

    @pytest.mark.parametrize("line", LINES_C62X)
    def test_c62x(self, c62x_tools, line):
        word, word2, text = roundtrip(c62x_tools, line)
        assert word == word2, "%r -> %r" % (line, text)


class TestRendering:
    def test_variant_mnemonic_follows_mode_bit(self, testmodel_tools):
        asm = testmodel_tools.assembler
        disasm = testmodel_tools.disassembler
        word_add = asm.assemble_text("add r1, r2, r3").segments[0].words[0]
        word_addl = asm.assemble_text("addl r1, r2, r3").segments[0].words[0]
        assert disasm.disassemble_word(word_add).startswith("add ")
        assert disasm.disassemble_word(word_addl).startswith("addl ")

    def test_postmodify_spacing(self, c54x_tools):
        word = c54x_tools.assembler.assemble_text(
            "mac *ar2+, a"
        ).segments[0].words[0]
        assert c54x_tools.disassembler.disassemble_word(word) \
            == "mac *ar2+, a"

    def test_register_fusion(self, c62x_tools):
        word = c62x_tools.assembler.assemble_text(
            "add a1, a2, b3"
        ).segments[0].words[0]
        assert c62x_tools.disassembler.disassemble_word(word) \
            == "add a1, a2, b3"

    def test_program_listing_marks_parallel(self, c62x_tools):
        program = c62x_tools.assembler.assemble_text("""
        mvk a1, 1
     || mvk a2, 2
        halt
""")
        lines = c62x_tools.disassembler.disassemble_program(program)
        assert "||" not in lines[0]
        assert "||" in lines[1]
        assert "||" not in lines[2]

    def test_undecodable_word_listed_as_data(self, testmodel_tools):
        from repro.tools.objfile import Program

        program = Program()
        program.add_segment("pmem", 0, [0b0_0110_000_00000000])
        lines = testmodel_tools.disassembler.disassemble_program(program)
        assert ".word" in lines[0]

    def test_helper_without_syntax_rejected(self, testmodel,
                                            testmodel_tools):
        from repro.coding.decoder import DecodedNode
        from repro.support.errors import ReproError

        node = DecodedNode(operation=testmodel.operations["nop"])
        # nop decodes fine but a bare helper like note_store cannot even
        # resolve its variant without a parent; both must raise cleanly.
        helper = DecodedNode(operation=testmodel.operations["note_store"])
        with pytest.raises(ReproError):
            testmodel_tools.disassembler.render(helper)
        assert testmodel_tools.disassembler.render(node) == "nop"
