"""Tests for the VLIW packet linter and the IR diagnostic codes."""

import json

import pytest

from repro.analysis import analyze_program
from repro.apps import build_adpcm, build_fir, build_gsm
from repro.simcc.frontend import ProgramFrontEnd


def _written_cells(model, tools, text):
    """The write set the packet lint reads for the one instruction."""
    program = tools.assembler.assemble_text(text)
    return ProgramFrontEnd(model, program).effects(0).writes


def collisions(model, program, packet_lint=True):
    """The ``packet.collision`` messages ``repro-lint`` reports for
    ``program``, in report order."""
    report = analyze_program(model, program, packet_lint=packet_lint,
                             ir_lint=False).report
    return [finding.message for finding in report
            if finding.check == "packet.collision"]


class TestWrittenCells:
    def test_alu_write_is_element_precise(self, c62x, c62x_tools):
        cells = _written_cells(c62x, c62x_tools, "add a3, a1, a2")
        assert cells == {("A", "3")}

    def test_load_writes_queue_and_destination(self, c62x, c62x_tools):
        cells = _written_cells(c62x, c62x_tools, "ldw b5, a4, 0")
        assert ("B", "5") in cells
        assert ("lsq", "0") in cells  # the in-flight address queue

    def test_store_is_memory_wildcard(self, c62x, c62x_tools):
        cells = _written_cells(c62x, c62x_tools, "stw a1, a4, 2")
        assert ("dmem", "*") in cells


class TestPacketLint:
    """``repro-lint``'s packet pass over same-packet write collisions."""

    def test_parallel_loads_flagged(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text("""
        ldw a5, a4, 0
     || ldw b5, b4, 0
        halt
""")
        assert collisions(c62x, program) == [
            "packet at 0x0: parallel instructions at 0x0 and 0x1 both "
            "write lsq[%d]" % index
            for index in range(4)
        ]

    def test_parallel_same_destination_flagged(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text("""
        mvk a1, 1
     || addk a1, 2
        halt
""")
        assert collisions(c62x, program) == [
            "packet at 0x0: parallel instructions at 0x0 and 0x1 both "
            "write A[1]"
        ]

    def test_clean_packet_not_flagged(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text("""
        mvk a1, 1
     || mvk a2, 2
     || mvk b1, 3
        halt
""")
        assert collisions(c62x, program) == []

    def test_parallel_stores_flagged_as_wildcard(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text("""
        stw a1, a4, 0
     || stw a2, b4, 0
        halt
""")
        assert collisions(c62x, program) == [
            "packet at 0x0: parallel instructions at 0x0 and 0x1 both "
            "write dmem[...]"
        ]

    def test_collision_is_a_warning(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text("""
        mvk a1, 1
     || addk a1, 2
        halt
""")
        report = analyze_program(c62x, program, ir_lint=False).report
        (finding,) = [f for f in report if f.check == "packet.collision"]
        assert (finding.severity, finding.address) == ("warning", 0)
        assert report.exit_code(werror=True) == 1

    def test_scalar_model_always_clean(self, tinydsp, tinydsp_tools):
        program = tinydsp_tools.assembler.assemble_text("nop\nhalt\n")
        assert collisions(tinydsp, program) == []

    def test_lint_can_be_disabled(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text("""
        ldw a5, a4, 0
     || ldw b5, b4, 0
        halt
""")
        assert collisions(c62x, program, packet_lint=False) == []


# A testmodel variant with a ``bad`` instruction whose behaviour stores
# to a constant out-of-range data-memory index: the abstract interpreter
# proves the store always faults, so linting a program that uses it
# exercises the ``ir.trap`` (IR002) diagnostic end to end.  Its ``dead``
# instruction loads ``ACC`` from a computed address and overwrites it
# at once: a dead write that may fault, which the IR003 note reports.
def _trap_capable_source():
    from tests.conftest import TESTMODEL_SOURCE

    return TESTMODEL_SOURCE.replace(
        "nop || add || ldi || st || brnz",
        "nop || add || ldi || st || bad || dead || brnz",
    ).replace(
        "OPERATION brnz IN pipe.EX {",
        """OPERATION bad IN pipe.EX {
    DECLARE { GROUP src = { reg }; }
    CODING { 0b0110 src 0bxxxxxxxx }
    SYNTAX { "bad" src }
    BEHAVIOR { dmem[100] = src; }
}

OPERATION dead IN pipe.EX {
    DECLARE { GROUP src = { reg }; }
    CODING { 0b0111 src 0bxxxxxxxx }
    SYNTAX { "dead" src }
    BEHAVIOR { ACC = dmem[src]; ACC = 0; }
}

OPERATION brnz IN pipe.EX {""",
        1,
    )


class TestDiagnosticCodes:
    """Stable IR-level diagnostic codes (IR001/IR002/IR003)."""

    TRAPPING = """
        ldi r1, 5
        bad r1
        halt
"""
    UNREACHABLE = """
        br 2
        ldi r1, 1
        halt
"""

    @pytest.fixture(scope="class")
    def trap_model(self):
        from repro.lisa.semantics import compile_source

        return compile_source(_trap_capable_source(), "trapmodel.lisa")

    @pytest.fixture(scope="class")
    def trap_tools(self, trap_model):
        from repro.api import build_toolset

        return build_toolset(trap_model)

    def test_provable_trap_gets_ir002(self, trap_model, trap_tools):
        program = trap_tools.assembler.assemble_text(
            self.TRAPPING, name="trapping"
        )
        result = analyze_program(trap_model, program)
        traps = [f for f in result.report if f.check == "ir.trap"]
        assert traps, "expected an ir.trap finding"
        finding = traps[0]
        assert finding.severity == "warning"
        assert finding.code == "IR002"
        assert "outside" in finding.message
        # Warnings fail only under --Werror.
        assert result.report.exit_code() == 0
        assert result.report.exit_code(werror=True) == 1

    def test_dead_write_kept_for_trap_parity_gets_ir003(self, trap_model,
                                                        trap_tools):
        program = trap_tools.assembler.assemble_text(
            "ldi r1, 5\ndead r1\nhalt\n", name="dead"
        )
        result = analyze_program(trap_model, program)
        notes = [f for f in result.report if f.check == "ir.dead-write"]
        assert [(f.address, f.code, f.severity) for f in notes] == [
            (1, "IR003", "note"),
        ]
        assert "dead write to ACC survives elimination" in notes[0].message

    def test_unreachable_packet_gets_ir001(self, tinydsp, tinydsp_tools):
        program = tinydsp_tools.assembler.assemble_text(
            self.UNREACHABLE, name="unreachable"
        )
        result = analyze_program(tinydsp, program)
        unreachable = [
            f for f in result.report if f.check == "cfg.unreachable"
        ]
        assert unreachable, "expected a cfg.unreachable finding"
        assert unreachable[0].code == "IR001"
        assert unreachable[0].severity == "note"

    def test_finding_str_includes_code(self, trap_model, trap_tools):
        program = trap_tools.assembler.assemble_text(
            self.TRAPPING, name="trapping"
        )
        result = analyze_program(trap_model, program)
        finding = [f for f in result.report if f.check == "ir.trap"][0]
        text = str(finding)
        assert "[IR002]" in text
        assert text.startswith("0x")
        # Findings without a code keep the legacy two-part rendering.
        from repro.analysis.report import Finding

        plain = Finding("warning", 4, "hazard.raw", "conflict")
        assert "[" not in str(plain)

    def test_codes_emitted_in_json(self, tmp_path, capsys):
        from repro.cli import lint_main

        model_path = tmp_path / "trapmodel.lisa"
        model_path.write_text(_trap_capable_source())
        asm_path = tmp_path / "trapping.asm"
        asm_path.write_text(self.TRAPPING)

        exit_code = lint_main([str(model_path), str(asm_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        codes = {
            finding["check"]: finding["code"]
            for finding in payload["findings"]
        }
        assert codes.get("ir.trap") == "IR002"
        assert all("code" in finding for finding in payload["findings"])

    def test_werror_honours_coded_warnings(self, tmp_path, capsys):
        from repro.cli import lint_main

        model_path = tmp_path / "trapmodel.lisa"
        model_path.write_text(_trap_capable_source())
        asm_path = tmp_path / "trapping.asm"
        asm_path.write_text(self.TRAPPING)

        exit_code = lint_main(
            [str(model_path), str(asm_path), "--json", "--Werror"]
        )
        capsys.readouterr()
        assert exit_code == 1

    def test_clean_program_has_no_coded_findings(
        self, testmodel, testmodel_tools
    ):
        program = testmodel_tools.assembler.assemble_text(
            "ldi r1, 3\nst r1, 7\nhalt\n", name="clean"
        )
        result = analyze_program(testmodel, program)
        assert not [f for f in result.report if f.code]


class TestShippedAppsLintClean:
    """Our own benchmark programs must pass our own linter."""

    def test_fir(self, c62x, c62x_tools):
        program = build_fir("c62x", taps=4, samples=8).assemble(c62x_tools)
        assert collisions(c62x, program) == []

    def test_adpcm(self, c62x, c62x_tools):
        program = build_adpcm(samples=8).assemble(c62x_tools)
        assert collisions(c62x, program) == []

    def test_gsm(self, c62x, c62x_tools):
        program = build_gsm(target_words=600).assemble(c62x_tools)
        assert collisions(c62x, program) == []
