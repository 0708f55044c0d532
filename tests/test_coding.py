"""Tests for coding layout, decoding and encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.decoder import InstructionDecoder
from repro.coding.encoder import InstructionEncoder, OperandSpec
from repro.coding.layout import layout_of
from repro.support.errors import CodingError, DecodeError


@pytest.fixture(scope="module")
def decoder(testmodel):
    return InstructionDecoder(testmodel)


@pytest.fixture(scope="module")
def encoder(testmodel):
    return InstructionEncoder(testmodel)


def insn_spec(opname, mode=0, fields=None, children=None):
    return OperandSpec(
        "insn",
        fields={"mode": mode},
        children={
            "op": OperandSpec(opname, fields=fields or {},
                              children=children or {})
        },
    )


def reg_spec(index):
    return OperandSpec("reg", fields={"idx": index})


class TestLayout:
    def test_offsets_are_msb_relative(self, testmodel):
        ldi = testmodel.operations["ldi"]
        layout = layout_of(ldi)
        assert layout.width == 15
        offsets = [(p.offset, p.width) for p in layout.placed]
        assert offsets == [(0, 4), (4, 3), (7, 8)]

    def test_find_by_name(self, testmodel):
        ldi = testmodel.operations["ldi"]
        placed = layout_of(ldi).find("imm")
        assert placed.offset == 7
        assert placed.width == 8

    def test_find_unknown_rejected(self, testmodel):
        with pytest.raises(CodingError):
            layout_of(testmodel.operations["ldi"]).find("nope")

    def test_layout_cached(self, testmodel):
        op = testmodel.operations["add"]
        assert layout_of(op) is layout_of(op)

    def test_layout_requires_coding(self, testmodel):
        with pytest.raises(CodingError):
            layout_of(testmodel.operations["note_store"])


class TestEncoding:
    def test_encode_ldi(self, encoder):
        word = encoder.encode(
            insn_spec("ldi", fields={"imm": 0x42}, children={"dst": reg_spec(5)})
        )
        # mode(0) | 0010 | 101 | 01000010
        assert word == 0b0_0010_101_01000010

    def test_missing_field_rejected(self, encoder):
        with pytest.raises(CodingError):
            encoder.encode(insn_spec("ldi", children={"dst": reg_spec(0)}))

    def test_missing_child_rejected(self, encoder):
        with pytest.raises(CodingError):
            encoder.encode(insn_spec("ldi", fields={"imm": 1}))

    def test_field_overflow_rejected(self, encoder):
        with pytest.raises(CodingError):
            encoder.encode(
                insn_spec("ldi", fields={"imm": 256},
                          children={"dst": reg_spec(0)})
            )

    def test_unknown_extra_field_rejected(self, encoder):
        with pytest.raises(CodingError):
            encoder.encode(
                insn_spec("ldi", fields={"imm": 1, "bogus": 0},
                          children={"dst": reg_spec(0)})
            )

    def test_wrong_alternative_rejected(self, encoder):
        spec = insn_spec("ldi", fields={"imm": 1},
                         children={"dst": OperandSpec("ldi")})
        with pytest.raises(CodingError):
            encoder.encode(spec)

    def test_partial_encoding(self, encoder):
        value, width = encoder.encode_partial(reg_spec(6))
        assert (value, width) == (6, 3)

    def test_non_root_full_encode_rejected(self, encoder):
        with pytest.raises(CodingError):
            encoder.encode(reg_spec(1))


class TestDecoding:
    def test_decode_ldi(self, decoder, encoder):
        word = encoder.encode(
            insn_spec("ldi", fields={"imm": 7}, children={"dst": reg_spec(2)})
        )
        node = decoder.decode(word)
        assert node.operation.name == "insn"
        op = node.children["op"]
        assert op.operation.name == "ldi"
        assert op.fields["imm"] == 7
        assert op.children["dst"].fields["idx"] == 2

    def test_decode_selects_by_opcode(self, decoder, encoder):
        word = encoder.encode(
            insn_spec("add", children={
                "dst": reg_spec(1), "src1": reg_spec(2), "src2": reg_spec(3),
            })
        )
        assert decoder.decode(word).children["op"].operation.name == "add"

    def test_dont_care_bits_ignored(self, decoder, encoder):
        word = encoder.encode(
            insn_spec("add", children={
                "dst": reg_spec(1), "src1": reg_spec(2), "src2": reg_spec(3),
            })
        )
        node = decoder.decode(word | 0b11)  # pad bits are don't-care
        assert node.children["op"].operation.name == "add"

    def test_unmatched_word_rejected(self, decoder):
        # opcode 0b0110 in the op slot is not assigned.
        with pytest.raises(DecodeError):
            decoder.decode(0b0_0110_000_00000000)

    def test_oversized_word_rejected(self, decoder):
        with pytest.raises(DecodeError):
            decoder.decode(1 << 16)

    def test_negative_word_rejected(self, decoder):
        with pytest.raises(DecodeError):
            decoder.decode(-1)

    def test_describe_is_readable(self, decoder, encoder):
        word = encoder.encode(
            insn_spec("ldi", fields={"imm": 9}, children={"dst": reg_spec(1)})
        )
        text = decoder.decode(word).describe()
        assert "ldi" in text and "imm=9" in text


class TestDecodedNodeLookup:
    def test_own_field(self, decoder, encoder):
        word = encoder.encode(
            insn_spec("ldi", fields={"imm": 3}, children={"dst": reg_spec(1)})
        )
        node = decoder.decode(word)
        assert node.lookup("mode") == ("label", 0)

    def test_reference_resolves_through_ancestors(self, decoder, encoder,
                                                  testmodel):
        word = encoder.encode(
            insn_spec("add", mode=1, children={
                "dst": reg_spec(1), "src1": reg_spec(2), "src2": reg_spec(3),
            })
        )
        add = decoder.decode(word).children["op"]
        # 'mode' is a REFERENCE of add, declared by the root.
        assert add.lookup("mode") == ("label", 1)

    def test_non_reference_does_not_climb(self, decoder, encoder, testmodel):
        word = encoder.encode(
            insn_spec("ldi", fields={"imm": 3}, children={"dst": reg_spec(1)})
        )
        reg = decoder.decode(word).children["op"].children["dst"]
        # 'mode' is not a REFERENCE of reg, so it must not resolve.
        with pytest.raises(Exception):
            reg.lookup("mode")

    def test_condition_env(self, decoder, encoder, testmodel):
        word = encoder.encode(
            insn_spec("add", mode=1, children={
                "dst": reg_spec(1), "src1": reg_spec(2), "src2": reg_spec(3),
            })
        )
        add = decoder.decode(word).children["op"]
        env = add.condition_env(testmodel)
        assert env["mode"] == 1
        assert env["dst"] == "reg"

    def test_walk_visits_whole_tree(self, decoder, encoder):
        word = encoder.encode(
            insn_spec("add", children={
                "dst": reg_spec(1), "src1": reg_spec(2), "src2": reg_spec(3),
            })
        )
        names = [n.operation.name for n in decoder.decode(word).walk()]
        assert names.count("reg") == 3
        assert "insn" in names and "add" in names


class TestRoundTripProperties:
    @given(
        mode=st.integers(0, 1),
        dst=st.integers(0, 7),
        src1=st.integers(0, 7),
        src2=st.integers(0, 7),
    )
    def test_add_roundtrip(self, testmodel, mode, dst, src1, src2):
        encoder = InstructionEncoder(testmodel)
        decoder = InstructionDecoder(testmodel)
        spec = insn_spec("add", mode=mode, children={
            "dst": reg_spec(dst), "src1": reg_spec(src1),
            "src2": reg_spec(src2),
        })
        word = encoder.encode(spec)
        rebuilt = encoder.spec_from_decoded(decoder.decode(word))
        assert encoder.encode(rebuilt) == word

    @given(mode=st.integers(0, 1), imm=st.integers(0, 255),
           dst=st.integers(0, 7))
    def test_ldi_fields_survive(self, testmodel, mode, imm, dst):
        encoder = InstructionEncoder(testmodel)
        decoder = InstructionDecoder(testmodel)
        word = encoder.encode(
            insn_spec("ldi", mode=mode, fields={"imm": imm},
                      children={"dst": reg_spec(dst)})
        )
        node = decoder.decode(word)
        op = node.children["op"]
        assert node.fields["mode"] == mode
        assert op.fields["imm"] == imm
        assert op.children["dst"].fields["idx"] == dst

    @given(word=st.integers(0, 0xFFFF))
    def test_decode_total_or_error(self, testmodel, word):
        """Decoding either produces a tree or raises DecodeError --
        never anything else -- and a successful decode re-encodes to a
        word the same decoder accepts."""
        decoder = InstructionDecoder(testmodel)
        encoder = InstructionEncoder(testmodel)
        try:
            node = decoder.decode(word)
        except DecodeError:
            return
        rebuilt = encoder.encode(encoder.spec_from_decoded(node))
        again = decoder.decode(rebuilt)
        assert again.describe() == node.describe()
