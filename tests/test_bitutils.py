"""Unit and property tests for the bit-manipulation primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.support.bitutils import (
    BitPattern,
    bit_length_for,
    canonical_source,
    canonicalize,
    extract_field,
    insert_field,
    mask,
    saturate_signed,
    sign_extend,
    to_signed,
    to_unsigned,
)
from repro.support.errors import CodingError


class TestMask:
    def test_small_masks(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(4) == 0b1111
        assert mask(16) == 0xFFFF
        assert mask(32) == 0xFFFFFFFF

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestBitLengthFor:
    def test_zero_needs_one_bit(self):
        assert bit_length_for(0) == 1

    def test_powers_of_two(self):
        assert bit_length_for(1) == 1
        assert bit_length_for(2) == 2
        assert bit_length_for(255) == 8
        assert bit_length_for(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_length_for(-5)


class TestSignedness:
    def test_to_signed_basics(self):
        assert to_signed(0xFF, 8) == -1
        assert to_signed(0x7F, 8) == 127
        assert to_signed(0x80, 8) == -128
        assert to_signed(0, 8) == 0

    def test_to_unsigned_basics(self):
        assert to_unsigned(-1, 8) == 0xFF
        assert to_unsigned(-128, 8) == 0x80
        assert to_unsigned(300, 8) == 300 & 0xFF

    def test_sign_extend_without_target(self):
        assert sign_extend(0b1000, 4) == -8
        assert sign_extend(0b0111, 4) == 7

    def test_sign_extend_to_width(self):
        assert sign_extend(0xFF, 8, 16) == 0xFFFF
        assert sign_extend(0x7F, 8, 16) == 0x7F

    @given(st.integers(min_value=1, max_value=63), st.integers())
    def test_roundtrip_property(self, width, value):
        encoded = to_unsigned(value, width)
        assert 0 <= encoded <= mask(width)
        decoded = to_signed(encoded, width)
        assert to_unsigned(decoded, width) == encoded

    @given(st.integers(min_value=1, max_value=63),
           st.integers(min_value=0, max_value=2**63))
    def test_to_signed_range(self, width, raw):
        value = to_signed(raw, width)
        assert -(1 << (width - 1)) <= value < (1 << (width - 1))


class TestSaturate:
    def test_inside_range_untouched(self):
        assert saturate_signed(100, 16) == 100
        assert saturate_signed(-100, 16) == -100

    def test_clamps(self):
        assert saturate_signed(40000, 16) == 32767
        assert saturate_signed(-40000, 16) == -32768
        assert saturate_signed(128, 8) == 127
        assert saturate_signed(-129, 8) == -128

    @given(st.integers(min_value=2, max_value=40), st.integers())
    def test_always_in_range(self, width, value):
        result = saturate_signed(value, width)
        assert -(1 << (width - 1)) <= result <= (1 << (width - 1)) - 1

    @given(st.integers(min_value=2, max_value=40), st.integers())
    def test_idempotent(self, width, value):
        once = saturate_signed(value, width)
        assert saturate_signed(once, width) == once


class TestCanonicalise:
    """The shared write-canonicalisation formula.

    ``canonicalize`` is the single source of truth consumed by the
    behaviour evaluator (via ``DType.canonical``); ``canonical_source``
    renders the same arithmetic as Python source for the code
    generator and the SimIR backends.  The two must agree bit-for-bit,
    which is checked exhaustively over small widths.
    """

    def test_unsigned_masks(self):
        assert canonicalize(0x1FF, 8, False) == 0xFF
        assert canonicalize(-1, 8, False) == 0xFF
        assert canonicalize(5, 8, False) == 5

    def test_signed_wraps(self):
        assert canonicalize(0xFF, 8, True) == -1
        assert canonicalize(128, 8, True) == -128
        assert canonicalize(127, 8, True) == 127
        assert canonicalize(-129, 8, True) == 127

    def test_exhaustive_source_agreement_small_widths(self):
        """For every width 1..8, both signednesses, and every value in
        a range spanning several wraps of the width, the rendered
        source computes exactly ``canonicalize``."""
        for width in range(1, 9):
            for signed in (False, True):
                fn = eval("lambda v: " +
                          canonical_source("v", width, signed))
                span = 1 << (width + 2)
                for value in range(-span, span + 1):
                    assert fn(value) == canonicalize(value, width, signed), (
                        "width=%d signed=%r value=%d" % (width, signed, value)
                    )

    def test_matches_to_signed_to_unsigned(self):
        for width in range(1, 9):
            for value in range(-(1 << width), (1 << width) + 1):
                assert canonicalize(value, width, False) == to_unsigned(
                    value, width
                )
                assert canonicalize(value, width, True) == to_signed(
                    to_unsigned(value, width), width
                )

    @given(st.integers(min_value=1, max_value=64), st.booleans(),
           st.integers())
    def test_idempotent_and_in_range(self, width, signed, value):
        once = canonicalize(value, width, signed)
        assert canonicalize(once, width, signed) == once
        if signed:
            assert -(1 << (width - 1)) <= once < (1 << (width - 1))
        else:
            assert 0 <= once <= mask(width)

    @given(st.integers(min_value=1, max_value=64), st.booleans(),
           st.integers())
    def test_source_agreement_property(self, width, signed, value):
        fn = eval("lambda v: " + canonical_source("v", width, signed))
        assert fn(value) == canonicalize(value, width, signed)

    def test_dtype_delegates(self):
        """``DType.canonical`` (the evaluator's write path) is the same
        formula."""
        from repro.lisa.model import TYPES

        for name in ("int8", "uint16", "int32"):
            dtype = TYPES[name]
            for value in range(-300, 300):
                assert dtype.canonical(value) == canonicalize(
                    value, dtype.width, dtype.signed
                )


class TestFieldExtraction:
    def test_msb_relative_offsets(self):
        # Word 0b1010_1100, 8 bits: offset 0 width 4 is the high nibble.
        assert extract_field(0b10101100, 0, 4, 8) == 0b1010
        assert extract_field(0b10101100, 4, 4, 8) == 0b1100
        assert extract_field(0b10101100, 2, 3, 8) == 0b101

    def test_insert_is_inverse(self):
        word = insert_field(0, 0b1010, 0, 4, 8)
        word = insert_field(word, 0b1100, 4, 4, 8)
        assert word == 0b10101100

    def test_field_overflow_rejected(self):
        with pytest.raises(CodingError):
            extract_field(0, 6, 4, 8)
        with pytest.raises(CodingError):
            insert_field(0, 1, 6, 4, 8)

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=28),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=0xF),
    )
    def test_insert_extract_roundtrip(self, word, offset, width, value):
        value &= mask(width)
        updated = insert_field(word, value, offset, width, 32)
        assert extract_field(updated, offset, width, 32) == value
        # Other bits are untouched.
        field_mask = mask(width) << (32 - offset - width)
        assert (updated & ~field_mask) == (word & ~field_mask)


class TestBitPattern:
    def test_parse_with_dont_cares(self):
        pattern = BitPattern.parse("01x1")
        assert pattern.width == 4
        assert pattern.value == 0b0101
        assert pattern.care == 0b1101

    def test_parse_rejects_garbage(self):
        with pytest.raises(CodingError):
            BitPattern.parse("012")
        with pytest.raises(CodingError):
            BitPattern.parse("")

    def test_exact_and_any(self):
        exact = BitPattern.exact(0b101, 3)
        assert exact.is_fully_specified
        anything = BitPattern.any(3)
        assert not anything.is_fully_specified
        assert anything.matches(0b111) and anything.matches(0)

    def test_matches(self):
        pattern = BitPattern.parse("01x1")
        assert pattern.matches(0b0101)
        assert pattern.matches(0b0111)
        assert not pattern.matches(0b0100)
        assert not pattern.matches(0b1101)

    def test_overlaps(self):
        a = BitPattern.parse("01x1")
        b = BitPattern.parse("0111")
        c = BitPattern.parse("10xx")
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_overlap_width_mismatch_rejected(self):
        with pytest.raises(CodingError):
            BitPattern.parse("01").overlaps(BitPattern.parse("011"))

    def test_concat(self):
        joined = BitPattern.parse("01").concat(BitPattern.parse("x1"))
        assert joined.width == 4
        assert str(joined) == "0b01x1"

    def test_specialise(self):
        pattern = BitPattern.any(8).specialise(2, 3, 0b101)
        assert pattern.matches(0b00101000)
        assert not pattern.matches(0b00111000)

    def test_invalid_construction(self):
        with pytest.raises(CodingError):
            BitPattern(width=0, value=0, care=0)
        with pytest.raises(CodingError):
            BitPattern(width=2, value=0b100, care=0b11)
        with pytest.raises(CodingError):
            BitPattern(width=2, value=0b01, care=0b10)

    def test_str_roundtrip(self):
        for text in ("01x1", "1111", "xxxx", "0x1x"):
            assert str(BitPattern.parse(text)) == "0b" + text

    @given(st.text(alphabet="01x", min_size=1, max_size=24))
    def test_parse_str_roundtrip_property(self, text):
        assert str(BitPattern.parse(text)) == "0b" + text

    @given(st.text(alphabet="01x", min_size=1, max_size=16),
           st.integers(min_value=0, max_value=0xFFFF))
    def test_match_agrees_with_digitwise_check(self, text, word):
        pattern = BitPattern.parse(text)
        word &= mask(pattern.width)
        expected = all(
            ch == "x" or int(ch) == ((word >> (pattern.width - 1 - i)) & 1)
            for i, ch in enumerate(text)
        )
        assert pattern.matches(word) == expected
