"""Tests for the shared tokenizer."""

import pytest

from repro.lisa.lexer import tokenize
from repro.support.bitutils import BitPattern
from repro.support.errors import LisaSyntaxError


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind != "eof"]


class TestBasicTokens:
    def test_identifiers(self):
        tokens = tokenize("foo _bar Baz9")
        assert [t.text for t in tokens[:3]] == ["foo", "_bar", "Baz9"]
        assert all(t.kind == "ident" for t in tokens[:3])

    def test_decimal_integers(self):
        tokens = tokenize("0 7 1234")
        assert [t.value for t in tokens[:3]] == [0, 7, 1234]

    def test_hex_integers(self):
        tokens = tokenize("0x0 0xff 0XAB")
        assert [t.value for t in tokens[:3]] == [0, 255, 0xAB]

    def test_binary_integers(self):
        token = tokenize("0b0101")[0]
        assert token.kind == "int"
        assert token.value == 5
        assert token.text == "0b0101"  # width recoverable from spelling

    def test_binary_with_dont_cares_is_bits(self):
        token = tokenize("0b01x1")[0]
        assert token.kind == "bits"
        assert isinstance(token.value, BitPattern)
        assert token.value.width == 4

    def test_strings(self):
        token = tokenize('"hello world"')[0]
        assert token.kind == "string"
        assert token.value == "hello world"

    def test_string_escapes(self):
        assert tokenize(r'"a\nb\t\"q\\"')[0].value == 'a\nb\t"q\\'

    def test_eof_is_final(self):
        tokens = tokenize("x")
        assert tokens[-1].kind == "eof"


class TestPunctuation:
    def test_multi_char_operators_longest_first(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("a << b") == ["a", "<<", "b"]
        assert texts("a || b && c") == ["a", "||", "b", "&&", "c"]
        assert texts("a<=b>=c==d!=e") == [
            "a", "<=", "b", ">=", "c", "==", "d", "!=", "e",
        ]

    def test_braces_and_brackets(self):
        assert texts("{ } ( ) [ ] ; , :") == [
            "{", "}", "(", ")", "[", "]", ";", ",", ":",
        ]


class TestComments:
    def test_line_comment(self):
        assert texts("a // comment here\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LisaSyntaxError):
            tokenize("a /* never ends")


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("ab\n  cd", filename="f.lisa")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3
        assert tokens[1].location.filename == "f.lisa"


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(LisaSyntaxError):
            tokenize('"abc')

    def test_string_may_not_span_lines(self):
        with pytest.raises(LisaSyntaxError):
            tokenize('"abc\ndef"')

    def test_bad_escape(self):
        with pytest.raises(LisaSyntaxError):
            tokenize(r'"\q"')

    def test_incomplete_hex(self):
        with pytest.raises(LisaSyntaxError):
            tokenize("0x")

    def test_incomplete_binary(self):
        with pytest.raises(LisaSyntaxError):
            tokenize("0b")

    def test_number_glued_to_letters(self):
        with pytest.raises(LisaSyntaxError):
            tokenize("12abc")

    def test_unknown_character(self):
        with pytest.raises(LisaSyntaxError):
            tokenize("a $ b")

    @pytest.mark.parametrize("source", ["x = ²;", "a ١٢ b"])
    def test_non_ascii_digits_rejected(self, source):
        with pytest.raises(LisaSyntaxError, match="unexpected character"):
            tokenize(source)


class TestTokenHelpers:
    def test_is_punct(self):
        token = tokenize(",")[0]
        assert token.is_punct(",")
        assert not token.is_punct(";")

    def test_is_ident(self):
        token = tokenize("OPERATION")[0]
        assert token.is_ident()
        assert token.is_ident("OPERATION")
        assert not token.is_ident("RESOURCE")


class TestEndOfInputRegressions:
    """A hex/binary literal at end of input must terminate (a "" peek
    is a substring of every string -- regression for an infinite loop)."""

    def test_hex_at_eof(self):
        assert tokenize("0x10")[0].value == 16

    def test_binary_at_eof(self):
        assert tokenize("0b101")[0].value == 5

    def test_bits_at_eof(self):
        assert tokenize("0b1x")[0].kind == "bits"

    def test_decimal_at_eof(self):
        assert tokenize("7")[0].value == 7
