"""Tests for diagnostics plumbing and error formatting."""

from repro.support.diagnostics import (
    DiagnosticSink,
    SourceLocation,
)
from repro.support.errors import DecodeError, LisaSyntaxError, ReproError


class TestSourceLocation:
    def test_str_format(self):
        loc = SourceLocation("m.lisa", 3, 9)
        assert str(loc) == "m.lisa:3:9"


class TestDiagnosticSink:
    def test_warn_and_note(self):
        sink = DiagnosticSink()
        sink.warn("something odd")
        sink.note("for the record")
        assert len(sink) == 2
        assert len(sink.warnings) == 1
        assert sink.warnings[0].message == "something odd"

    def test_iteration_and_str(self):
        sink = DiagnosticSink()
        sink.warn("w", SourceLocation("f", 1, 2))
        (diag,) = list(sink)
        assert "f:1:2" in str(diag)
        assert "warning" in str(diag)

    def test_extend(self):
        a = DiagnosticSink()
        b = DiagnosticSink()
        a.warn("one")
        b.warn("two")
        a.extend(b)
        assert len(a) == 2


class TestErrorFormatting:
    def test_location_prefixed(self):
        err = LisaSyntaxError("bad token", SourceLocation("x.lisa", 7, 1))
        assert str(err).startswith("x.lisa:7:1: ")

    def test_no_location(self):
        assert str(ReproError("plain")) == "plain"

    def test_decode_error_includes_word_and_address(self):
        err = DecodeError("no match", word=0xBEEF, address=0x10)
        text = str(err)
        assert "0xbeef" in text
        assert "0x10" in text

    def test_decode_error_word_only(self):
        err = DecodeError("no match", word=0x1)
        assert "address" not in str(err)

    def test_errors_inherit_repro_error(self):
        from repro.support import errors

        for name in ("LisaError", "LisaSyntaxError", "LisaSemanticError",
                     "BehaviorError", "CodingError", "DecodeError",
                     "AssemblerError", "SimulationError", "LinkError"):
            assert issubclass(getattr(errors, name), errors.ReproError)
