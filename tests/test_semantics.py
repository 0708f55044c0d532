"""Tests for the LISA compiler (semantic analysis)."""

import uuid

import pytest

from repro.cli import lisa_main
from repro.lisa import semantics
from repro.lisa.parser import parse_source
from repro.lisa.semantics import MODEL_MEMO_SIZE, compile_ast, compile_source
from repro.support.errors import (
    BehaviorError,
    CodingError,
    LisaSemanticError,
)
from repro.models import load_model
from tests.conftest import TESTMODEL_SOURCE
from tests.test_asm_golden import EDGE_HEAD, EDGE_MODELS

HEADER = """
RESOURCE {
    PROGRAM_COUNTER uint32 PC;
    REGISTER int R[4];
    MEMORY uint16 pmem[64];
    MEMORY int dmem[16];
    PIPELINE pipe = { FE; EX };
}
CONFIG { WORDSIZE(8); PROGRAM_MEMORY(pmem); ROOT(insn);
         EXECUTE_STAGE(EX); }
"""

ROOT_OK = """
OPERATION insn {
    DECLARE { GROUP op = { alpha }; }
    CODING { op }
    ACTIVATION { op }
}
OPERATION alpha IN pipe.EX {
    DECLARE { LABEL k; }
    CODING { 0b0001 k[4] }
    BEHAVIOR { R[0] = k; }
}
"""


def compile_ok(extra="", header=HEADER, root=ROOT_OK):
    return compile_source(header + root + extra)


class TestResources:
    def test_minimal_model_compiles(self):
        model = compile_ok()
        assert model.pc_name == "PC"
        assert model.pipeline.depth == 2
        assert model.word_size == 8

    def test_missing_pc_rejected(self):
        source = HEADER.replace("PROGRAM_COUNTER uint32 PC;", "")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_missing_pipeline_rejected(self):
        source = HEADER.replace("PIPELINE pipe = { FE; EX };", "")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_duplicate_resource_rejected(self):
        source = HEADER.replace(
            "REGISTER int R[4];", "REGISTER int R[4]; REGISTER int R[2];"
        )
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_unknown_type_rejected(self):
        source = HEADER.replace("REGISTER int R[4]", "REGISTER quux R[4]")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_zero_size_register_file_rejected(self):
        source = HEADER.replace("REGISTER int R[4]", "REGISTER int R[0]")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_duplicate_pipeline_stage_rejected(self):
        source = HEADER.replace("{ FE; EX }", "{ FE; FE }")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)


class TestConfig:
    def test_unknown_key_rejected(self):
        source = HEADER.replace("WORDSIZE(8);", "WORDSIZE(8); FROBNICATE(1);")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_program_memory_must_exist(self):
        source = HEADER.replace("PROGRAM_MEMORY(pmem)", "PROGRAM_MEMORY(nope)")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_program_memory_inferred_when_unique(self):
        source = HEADER.replace("MEMORY int dmem[16];", "").replace(
            "PROGRAM_MEMORY(pmem); ", ""
        )
        model = compile_source(source + ROOT_OK.replace("dmem", "pmem"))
        assert model.config.program_memory == "pmem"

    def test_program_memory_required_when_ambiguous(self):
        source = HEADER.replace("PROGRAM_MEMORY(pmem); ", "")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_narrow_program_memory_rejected(self):
        source = HEADER.replace("WORDSIZE(8)", "WORDSIZE(32)")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_vliw_needs_parallel_bit(self):
        source = HEADER.replace("WORDSIZE(8);", "WORDSIZE(8); FETCH_PACKET(4);")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_parallel_bit_must_be_inside_word(self):
        source = HEADER.replace(
            "WORDSIZE(8);", "WORDSIZE(8); FETCH_PACKET(4); PARALLEL_BIT(9);"
        )
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_branch_policy_validated(self):
        source = HEADER.replace(
            "EXECUTE_STAGE(EX);", "EXECUTE_STAGE(EX); BRANCH_POLICY(maybe);"
        )
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_defines_available(self):
        source = HEADER.replace("WORDSIZE(8);", "WORDSIZE(8); DEFINE(K, 7);")
        model = compile_source(source + ROOT_OK)
        assert model.config.defines["K"] == 7


class TestOperations:
    def test_duplicate_operation_rejected(self):
        with pytest.raises(LisaSemanticError):
            compile_ok("OPERATION alpha { CODING { 0b1 } }")

    def test_root_must_exist(self):
        source = HEADER.replace("ROOT(insn)", "ROOT(ghost)")
        with pytest.raises(LisaSemanticError):
            compile_source(source + ROOT_OK)

    def test_root_must_have_coding(self):
        source = HEADER + """
OPERATION insn { BEHAVIOR { } }
"""
        with pytest.raises(LisaSemanticError):
            compile_source(source)

    def test_root_width_must_match_wordsize(self):
        bad_root = ROOT_OK.replace("0b0001 k[4]", "0b0001 k[5]")
        with pytest.raises(CodingError):
            compile_source(HEADER + bad_root)

    def test_unknown_stage_rejected(self):
        with pytest.raises(LisaSemanticError):
            compile_ok("OPERATION beta IN pipe.XY { CODING { 0b1 } }")

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(LisaSemanticError):
            compile_ok("OPERATION beta IN bogus.EX { CODING { 0b1 } }")

    def test_conditional_declare_rejected(self):
        with pytest.raises(LisaSemanticError):
            compile_ok(
                "OPERATION beta { IF (x == 0) { DECLARE { LABEL y; } } }"
            )

    def test_conditional_coding_rejected(self):
        with pytest.raises(LisaSemanticError):
            compile_ok(
                "OPERATION beta { DECLARE { LABEL x; } "
                "IF (x == 0) { CODING { 0b1 } } }"
            )

    def test_two_codings_rejected(self):
        with pytest.raises(LisaSemanticError):
            compile_ok("OPERATION beta { CODING { 0b1 } CODING { 0b0 } }")

    def test_label_in_coding_needs_width(self):
        with pytest.raises(LisaSemanticError):
            compile_ok(
                "OPERATION beta { DECLARE { LABEL x; } CODING { x } }"
            )

    def test_coding_of_undeclared_name_rejected(self):
        with pytest.raises(LisaSemanticError):
            compile_ok("OPERATION beta { CODING { mystery[3] } }")

    def test_duplicate_operand_rejected(self):
        with pytest.raises(LisaSemanticError):
            compile_ok(
                "OPERATION beta { DECLARE { LABEL x; LABEL x; } "
                "CODING { x[2] } }"
            )


class TestGroupWidths:
    def test_unequal_alternative_widths_rejected(self):
        source = HEADER + """
OPERATION insn {
    DECLARE { GROUP op = { alpha || beta }; }
    CODING { op }
}
OPERATION alpha { CODING { 0b00000001 } }
OPERATION beta { CODING { 0b0001 } }
"""
        with pytest.raises(CodingError):
            compile_source(source)

    def test_recursive_coding_rejected(self):
        source = HEADER + """
OPERATION insn {
    DECLARE { GROUP op = { insn }; }
    CODING { op }
}
"""
        with pytest.raises(CodingError):
            compile_source(source)

    def test_alternative_without_coding_rejected(self):
        source = HEADER + """
OPERATION insn {
    DECLARE { GROUP op = { alpha }; }
    CODING { op }
}
OPERATION alpha { BEHAVIOR { } }
"""
        with pytest.raises(CodingError):
            compile_source(source)

    def test_ambiguous_alternatives_rejected(self):
        source = HEADER + """
OPERATION insn {
    DECLARE { GROUP op = { alpha || beta }; }
    CODING { op }
}
OPERATION alpha { DECLARE { LABEL k; } CODING { 0b0 k[7] } }
OPERATION beta { DECLARE { LABEL k; } CODING { 0bx k[7] } }
"""
        with pytest.raises(CodingError) as exc_info:
            compile_source(source)
        assert exc_info.value.message == (
            "ambiguous coding: alternatives 'alpha' and 'beta' of 'op' in "
            "operation 'insn' overlap (0b0xxxxxxx vs 0bxxxxxxxx)"
        )

    def test_first_ambiguous_pair_in_declaration_order_reported(self):
        # (alpha, gamma) and (beta, gamma) both overlap, and both of
        # alpha's expanded patterns overlap gamma: the report names the
        # first pair in declaration order and alpha's first pattern.
        source = HEADER + """
OPERATION insn {
    DECLARE { GROUP op = { alpha || beta || gamma }; }
    CODING { op }
}
OPERATION alpha {
    DECLARE { GROUP mode = { m0 || m1 }; }
    CODING { 0b00 mode 0bxxxx }
}
OPERATION m0 { CODING { 0b00 } }
OPERATION m1 { CODING { 0b11 } }
OPERATION beta { DECLARE { LABEL k; } CODING { 0b01 k[6] } }
OPERATION gamma { DECLARE { LABEL k; } CODING { 0b0 k[7] } }
"""
        with pytest.raises(CodingError) as exc_info:
            compile_source(source)
        assert exc_info.value.message == (
            "ambiguous coding: alternatives 'alpha' and 'gamma' of 'op' in "
            "operation 'insn' overlap (0b0000xxxx vs 0b0xxxxxxx)"
        )


class TestNameChecking:
    def test_behavior_unknown_name_rejected(self):
        with pytest.raises(LisaSemanticError):
            compile_ok(
                "OPERATION beta { CODING { 0b1 } BEHAVIOR { R[0] = ghost; } }"
            )

    def test_behavior_local_is_allowed(self):
        model = compile_ok(
            "OPERATION beta { CODING { 0b1 } "
            "BEHAVIOR { int t = 3; R[0] = t; } }"
        )
        assert "beta" in model.operations

    def test_behavior_syntax_error_reported_with_op_name(self):
        with pytest.raises(BehaviorError) as exc_info:
            compile_ok("OPERATION beta { CODING { 0b1 } BEHAVIOR { x += ; } }")
        assert "beta" in str(exc_info.value)

    def test_activation_of_unknown_name_rejected(self):
        with pytest.raises(LisaSemanticError):
            compile_ok(
                "OPERATION beta { CODING { 0b1 } ACTIVATION { ghost } }"
            )

    def test_activation_into_earlier_stage_rejected(self):
        source = HEADER + """
OPERATION insn {
    DECLARE { GROUP op = { alpha }; }
    CODING { op }
    ACTIVATION { op }
}
OPERATION alpha IN pipe.EX {
    CODING { 0b00000001 }
    ACTIVATION { early }
}
OPERATION early IN pipe.FE { BEHAVIOR { } }
"""
        with pytest.raises(LisaSemanticError):
            compile_source(source)

    def test_unsatisfiable_reference_rejected(self):
        source = HEADER + ROOT_OK + """
OPERATION orphan {
    DECLARE { REFERENCE nothing_declares_this; }
    CODING { 0b00000010 }
    BEHAVIOR { R[0] = nothing_declares_this; }
}
"""
        with pytest.raises(LisaSemanticError):
            compile_source(source)


class TestDiagnostics:
    def test_unused_operation_warned(self):
        model = compile_ok("OPERATION lonely { CODING { 0b11111111 } }")
        warnings = [d.message for d in model.diagnostics.warnings]
        assert any("lonely" in w for w in warnings)

    def test_unused_operation_names_its_location(self):
        source = HEADER + ROOT_OK + "\n  OPERATION lonely { CODING { 0b1 } }"
        model = compile_source(source, "lonely.lisa")
        line = source.count("\n") + 1
        assert [str(d) for d in model.diagnostics] == [
            "lonely.lisa:%d:3: warning: operation 'lonely' is never "
            "referenced" % line
        ]

    def test_operand_shadowing_resource_warned(self):
        model = compile_ok(
            "OPERATION shady { DECLARE { LABEL R; } CODING { R[2] } }"
        )
        warnings = [d.message for d in model.diagnostics.warnings]
        assert any("shadows" in w for w in warnings)


class TestGuardConstants:
    """A guard constant that no coding field it compares can hold is a
    model warning, by the assembler's range rule
    (:func:`repro.support.bitutils.fits_field`): decoding never selects
    that arm, and the assembler rejects its lines."""

    WIDE_GUARD = (
        "guard of operation 'add' compares 'mode' with 5, which its "
        "1-bit coding field cannot hold: decoding never selects that arm"
    )

    def test_wide_guard_warns_once(self):
        source = EDGE_HEAD + EDGE_MODELS["wide_guard"]
        model = compile_source(source, "wide_guard.lisa")
        assert [str(d) for d in model.diagnostics] == [
            "wide_guard.lisa:29:1: warning: " + self.WIDE_GUARD
        ]

    def test_werror_rejects_the_model(self, tmp_path, capsys):
        path = tmp_path / "wide_guard.lisa"
        path.write_text(EDGE_HEAD + EDGE_MODELS["wide_guard"])
        with pytest.raises(SystemExit) as exc:
            lisa_main([str(path), "--Werror"])
        assert exc.value.code == 1
        assert self.WIDE_GUARD in capsys.readouterr().err

    def test_own_label_and_switch_case(self):
        model = compile_ok(root="""
OPERATION insn {
    DECLARE { GROUP op = { pick || sel }; }
    CODING { op }
    ACTIVATION { op }
}
OPERATION pick IN pipe.EX {
    DECLARE { LABEL k; }
    CODING { 0b000000 k[2] }
    IF (k == 3) { BEHAVIOR { R[0] = 1; } }
    ELSE { BEHAVIOR { R[0] = 2; } }
}
OPERATION sel IN pipe.EX {
    DECLARE { LABEL k; }
    CODING { 0b000001 k[2] }
    SWITCH (k) {
        CASE 1: { BEHAVIOR { R[1] = 1; } }
        CASE 4: { BEHAVIOR { R[1] = 4; } }
    }
}
""")
        assert [d.message for d in model.diagnostics] == [
            "guard of operation 'sel' compares 'k' with 4, which its "
            "2-bit coding field cannot hold: decoding never selects "
            "that arm"
        ]

    @pytest.mark.parametrize("name", ["c54x", "c62x", "tinydsp"])
    def test_shipped_models_stay_clean(self, name):
        assert list(load_model(name).diagnostics) == []

    @pytest.mark.parametrize(
        "name", sorted(set(EDGE_MODELS) - {"wide_guard"})
    )
    def test_other_edge_models_stay_clean(self, name):
        source = EDGE_HEAD + EDGE_MODELS[name]
        assert list(compile_source(source, name).diagnostics) == []


def unique_source(source=TESTMODEL_SOURCE):
    """``source`` plus a comment no other call adds: a text the model
    memo has not seen."""
    return source + "\n// %s\n" % uuid.uuid4().hex


class TestModelMemo:
    """``compile_source`` compiles a text once per process and hands
    every later caller the same, shared model."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []

        def counting_parse(source, filename="<string>"):
            calls.append(filename)
            return parse_source(source, filename)

        monkeypatch.setattr(semantics, "parse_source", counting_parse)
        return calls

    def test_same_text_compiles_once(self, parses):
        source = unique_source()
        models = [compile_source(source, "memo.lisa") for _ in range(10)]
        assert all(model is models[0] for model in models)
        assert parses == ["memo.lisa"]

    def test_other_filename_or_text_is_another_model(self):
        source = unique_source()
        model = compile_source(source, "a.lisa")
        renamed = compile_source(source, "b.lisa")
        edited = compile_source(source + "// edited\n", "a.lisa")
        assert renamed is not model and edited is not model
        assert (model.source_filename, renamed.source_filename,
                edited.source_filename) == ("a.lisa", "b.lisa", "a.lisa")
        assert renamed.source_digest == model.source_digest
        assert edited.source_digest != model.source_digest

    def test_failing_text_is_never_stored(self, parses):
        source = unique_source(HEADER + ROOT_OK + """
            OPERATION alpha IN pipe.EX { CODING { 0b0010 } }
        """)
        messages = []
        for _ in range(3):
            with pytest.raises(LisaSemanticError) as excinfo:
                compile_source(source, "bad.lisa")
            messages.append(str(excinfo.value))
        assert messages == [messages[0]] * 3
        assert parses == ["bad.lisa"] * 3

    def test_least_recently_used_is_evicted(self):
        sources = [unique_source() for _ in range(MODEL_MEMO_SIZE + 1)]
        models = [compile_source(source) for source in sources]
        assert compile_source(sources[-1]) is models[-1]
        assert compile_source(sources[1]) is models[1]
        assert compile_source(sources[0]) is not models[0]

    def test_hit_refreshes_recency(self):
        sources = [unique_source() for _ in range(MODEL_MEMO_SIZE + 1)]
        models = [compile_source(source) for source in sources[:-1]]
        assert compile_source(sources[0]) is models[0]
        compile_source(sources[-1])
        assert compile_source(sources[0]) is models[0]
        assert compile_source(sources[1]) is not models[1]

    def test_compile_ast_never_memoizes(self):
        model_ast = parse_source(TESTMODEL_SOURCE, "t.lisa")
        first = compile_ast(model_ast, "t.lisa")
        assert compile_ast(model_ast, "t.lisa") is not first
        assert first.source_digest is None
