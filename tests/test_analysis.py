"""Tests for the simulation-compile-time program analyzer.

Covers the three passes (effects, CFG recovery, hazards), the shared
report format, and the acceptance properties: the injected defect
classes are detected and the example applications analyse clean.  The
verdicts are lint findings, not a scheduling gate: windows over
cross-cycle data hazards compose statically and still match the
interpretive reference, and every window without a control-capable
packet composes.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import (
    CONFLICTING,
    HAZARD_FREE,
    UNKNOWN,
    analyze_program,
)
from repro.analysis.cfg import build_cfg
from repro.analysis.hazards import analyze_hazards
from repro.analysis.report import Report
from repro.apps import build_adpcm, build_fir, build_gsm
from repro.sim import create_simulator
from repro.simcc import ir
from repro.simcc.frontend import ProgramFrontEnd
from repro.simcc.native import NativePipeline, native_available


def _analyze(model, tools, text):
    return analyze_program(model, tools.assembler.assemble_text(text))


def _checks(result):
    return {f.check for f in result.report}


# -- report ------------------------------------------------------------------


class TestReport:
    def test_deduplicates_on_insert(self):
        report = Report()
        report.add("warning", 4, "hazard.raw", "same thing")
        report.add("warning", 4, "hazard.raw", "same thing")
        assert len(report) == 1

    def test_sorted_by_address_then_message(self):
        report = Report()
        report.add("note", 8, "cfg.dead-write", "zzz")
        report.add("error", 8, "cfg.packet-middle", "aaa")
        report.add("warning", 2, "hazard.waw", "mmm")
        report.add("warning", None, "model.diagnostic", "global")
        ordered = report.sorted_findings()
        assert [f.address for f in ordered] == [None, 2, 8, 8]
        assert [f.message for f in ordered][2:] == ["aaa", "zzz"]

    def test_exit_codes(self):
        report = Report()
        assert report.exit_code() == 0
        report.add("note", 0, "x", "n")
        assert report.exit_code(werror=True) == 0
        report.add("warning", 0, "x", "w")
        assert report.exit_code() == 0
        assert report.exit_code(werror=True) == 1
        report.add("error", 0, "x", "e")
        assert report.exit_code() == 1

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Report().add("fatal", 0, "x", "m")


# -- effects -----------------------------------------------------------------


class TestEffects:
    def _effects(self, c62x, c62x_tools, text):
        front = ProgramFrontEnd(
            c62x, c62x_tools.assembler.assemble_text(text)
        )
        return front.effects(front.segments[0][0])

    def test_add_stage_resolved(self, c62x, c62x_tools):
        fx = self._effects(c62x, c62x_tools, "add a3, a1, a2")
        e1 = c62x.pipeline.stage_index("E1")
        assert ("A", "3") in fx.stages[e1].writes
        assert {("A", "1"), ("A", "2")} <= fx.stages[e1].reads
        # No other stage touches storage.
        for index, stage in enumerate(fx.stages):
            if index != e1:
                assert not stage.writes
        assert not fx.truncated and not fx.has_control

    def test_load_spans_pipeline(self, c62x, c62x_tools):
        fx = self._effects(c62x, c62x_tools, "ldw a5, a4, 0")
        e1 = c62x.pipeline.stage_index("E1")
        e5 = c62x.pipeline.stage_index("E5")
        assert ("lsq", "0") in fx.stages[e1].writes
        assert ("A", "4") in fx.stages[e1].reads
        # The destination write (through the REFERENCE) lands in E5.
        assert ("A", "5") in fx.stages[e5].writes
        assert ("dmem", "*") in fx.stages[e5].reads

    def test_store_wildcard(self, c62x, c62x_tools):
        fx = self._effects(c62x, c62x_tools, "stw a1, a4, 0")
        assert ("dmem", "*") in fx.writes

    def test_branch_pc_writes(self, c62x, c62x_tools):
        fx = self._effects(c62x, c62x_tools, "b 12")
        dc = c62x.pipeline.stage_index("DC")
        [(stage, write)] = fx.pc_write_stages()
        assert stage == dc
        assert write.target == 12
        assert not write.conditional

    def test_conditional_branch(self, c62x, c62x_tools):
        fx = self._effects(c62x, c62x_tools, "bnz a1, 12")
        [(_, write)] = fx.pc_write_stages()
        assert write.conditional

    def test_depth_guard_truncates_conservatively(
        self, c62x, c62x_tools, monkeypatch
    ):
        # The one lowering depth limit is checked on entry to every
        # sub-operation; at -1 even the root's operands refuse.
        monkeypatch.setattr(ir, "MAX_LOWER_DEPTH", -1)
        fx = self._effects(c62x, c62x_tools, "add a3, a1, a2")
        assert fx.truncated
        assert not fx.writes

    def test_stale_identity_does_not_alias_variants(self, c62x, c62x_tools):
        # One lowerer over two words, and again after a reload replaces
        # their nodes: resolution must track each node, not a recycled
        # id from a replaced one.
        program = c62x_tools.assembler.assemble_text(
            "ldw a5, a4, 0\nldw b5, b4, 0"
        )
        front = ProgramFrontEnd(c62x, program)
        words = program.segments_in(c62x.config.program_memory)[0].words
        cells = (("A", "5"), ("B", "5"))
        for pc, cell in enumerate(cells):
            assert cell in front.effects(pc).writes
        swapped = words[::-1]
        front.reload(swapped.__getitem__, 0, len(swapped))
        front.reload(swapped.__getitem__, 1, len(swapped))
        for pc, cell in enumerate(reversed(cells)):
            assert cell in front.effects(pc).writes


# -- CFG recovery ------------------------------------------------------------


class TestCFG:
    def test_packet_boundaries(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text(
            "mvk a1, 1\n || mvk a2, 2\nhalt"
        )
        cfg = build_cfg(ProgramFrontEnd(c62x, program))
        assert cfg.order[0] == 0
        assert cfg.packets[0].extent == 2
        assert len(cfg.packets[0].members) == 2
        assert cfg.packets[2].extent == 1

    def test_branch_recovered(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text("b 2\nnop\nhalt")
        cfg = build_cfg(ProgramFrontEnd(c62x, program))
        [branch] = cfg.packets[0].branches
        assert branch.targets == (2,)
        assert branch.stage == c62x.pipeline.stage_index("DC")
        assert cfg.delay_cycles(branch) == branch.stage

    def test_branch_into_packet_middle(self, c62x, c62x_tools):
        result = _analyze(c62x, c62x_tools, """
            .equ skip, 7
            b skip
            nop
            nop
            nop
            nop
            nop
            add a1, a1, a2
         || add a2, a2, a3
            halt
        """)
        [finding] = result.report.errors
        assert finding.check == "cfg.packet-middle"
        assert "0x7" in finding.message and "0x6" in finding.message

    def test_branch_out_of_segment(self, c62x, c62x_tools):
        result = _analyze(c62x, c62x_tools, "b 500\nhalt")
        [finding] = result.report.errors
        assert finding.check == "cfg.out-of-segment"

    def test_branch_into_delay_slots(self, c62x, c62x_tools):
        result = _analyze(c62x, c62x_tools, """
            b 7
            nop
            nop
            nop
            nop
            nop
            b 3
            nop
            nop
            nop
            nop
            nop
            halt
        """)
        warnings = [f for f in result.report.warnings
                    if f.check == "cfg.delay-slot"]
        # Both branches target the other's delay window (0x7 sits in
        # the slots of the branch at 0x6, 0x3 in those of 0x0).
        assert len(warnings) == 2
        assert any(
            "0x3" in f.message and "0x0" in f.message for f in warnings
        )

    def test_unreachable_after_flush_branch(self, tinydsp, tinydsp_tools):
        result = _analyze(tinydsp, tinydsp_tools, """
            br 3
            ldi r1, 1
            ldi r2, 2
            halt
        """)
        notes = [f for f in result.report.notes
                 if f.check == "cfg.unreachable"]
        assert {f.address for f in notes} == {1, 2}

    def test_dead_write_noted(self, c62x, c62x_tools):
        result = _analyze(c62x, c62x_tools, "mvk a1, 1\nmvk a1, 2\nhalt")
        [finding] = [f for f in result.report.notes
                     if f.check == "cfg.dead-write"]
        assert finding.address == 0
        assert "A[1]" in finding.message

    def test_read_retires_pending_write(self, c62x, c62x_tools):
        # Same shape, but the value is consumed (five delay slots after
        # the writing packet, so no hazard either): nothing to report.
        result = _analyze(c62x, c62x_tools, """
            mvk a1, 1
            add a2, a1, a1
            mvk a1, 2
            halt
        """)
        assert not [f for f in result.report.notes
                    if f.check == "cfg.dead-write"]


# -- hazards -----------------------------------------------------------------


class TestHazards:
    def test_load_use_raw(self, c62x, c62x_tools):
        result = _analyze(c62x, c62x_tools, """
            mvk a4, 100
            ldw a5, a4, 0
            add a6, a5, a5
            halt
        """)
        assert "hazard.raw" in _checks(result)
        assert result.safety[1] == CONFLICTING
        assert result.safety[2] == CONFLICTING
        assert result.safety[0] == HAZARD_FREE

    def test_load_respects_delay_slots(self, c62x, c62x_tools):
        result = _analyze(c62x, c62x_tools, """
            mvk a4, 100
            ldw a5, a4, 0
            nop
            nop
            nop
            add a6, a5, a5
            halt
        """)
        assert not result.report.warnings
        assert set(result.safety.values()) == {HAZARD_FREE}

    def test_waw_across_cycles(self, c62x, c62x_tools):
        result = _analyze(c62x, c62x_tools, """
            ldw a5, a4, 0
            nop
            mvk a5, 7
            halt
        """)
        assert "hazard.waw" in _checks(result)
        assert result.safety[0] == CONFLICTING

    def test_single_stage_model_hazard_free(self, tinydsp, tinydsp_tools):
        # Every tinydsp operation executes in EX, so no cross-cycle
        # ordering violation is expressible.
        result = _analyze(tinydsp, tinydsp_tools, """
            ldi r1, 3
            add r2, r2, r1
            mul r3, r2, r2
            st r3, 7
            halt
        """)
        assert not result.report.warnings and not result.report.errors
        assert set(result.safety.values()) == {HAZARD_FREE}

    def test_verdicts_cover_every_packet(self, c62x, c62x_tools):
        program = c62x_tools.assembler.assemble_text(
            "mvk a1, 1\n || mvk a2, 2\nnop\nhalt"
        )
        front = ProgramFrontEnd(c62x, program)
        cfg = build_cfg(front)
        verdicts = analyze_hazards(cfg)
        assert set(verdicts) == set(cfg.order)

    def test_undecodable_word_is_unknown(self, c62x, c62x_tools):
        result = _analyze(c62x, c62x_tools, "nop\n.word 0xffffffff\nhalt")
        assert result.safety[1] == UNKNOWN


# -- static scheduling composes hazard windows --------------------------------


RAW_PROGRAM = """
    mvk a4, 100
    ldw a5, a4, 0
    add a6, a5, a5
    halt
"""

WAW_PROGRAM = """
    ldw a5, a4, 0
    nop
    mvk a5, 7
    halt
"""

_A_REGS = tuple("a%d" % index for index in range(2, 8))
_B_REGS = tuple("b%d" % index for index in range(2, 6))


def _hazard_loop(seed):
    """A c62x loop dense in cross-cycle data hazards.

    Loads are read and overwritten inside their delay slots, stores
    and loads may alias, multiplies feed the next packet, and some
    packets pair an operation with a B-side ``add`` (``||``).  Ten
    registers, 1-5 iterations, and the generator's loop tail.
    """
    rng = random.Random(seed)
    regs = _A_REGS + _B_REGS
    lines = ["        mvk %s, %d" % (reg, rng.randrange(-500, 500))
             for reg in regs]
    lines.append("        mvk a1, %d" % rng.randint(1, 5))
    lines.append("body:")
    loaded = rng.choice(regs)
    for _ in range(rng.randint(14, 22)):
        op = rng.choice(("ldw", "ldw", "stw", "mpy", "add", "sub", "xor",
                         "mvk", "shl"))
        dst, src1, src2 = (rng.choice(regs) for _ in range(3))
        if rng.random() < 0.5:
            src1 = loaded  # read the last load's target in its delay slots
        if op == "ldw":
            loaded = dst
            text = "ldw %s, %s, %d" % (dst, src1, rng.randrange(16))
        elif op == "stw":
            text = "stw %s, %s, %d" % (src1, src2, rng.randrange(16))
            dst = None
        elif op == "mvk":
            text = "mvk %s, %d" % (dst, rng.randrange(-32768, 32768))
        elif op == "shl":
            text = "shl %s, %s, %d" % (dst, src1, rng.randrange(32))
        else:
            text = "%s %s, %s, %s" % (op, dst, src1, src2)
        lines.append("        " + text)
        if rng.random() < 0.3:
            pair_dst = rng.choice([reg for reg in _B_REGS if reg != dst])
            lines.append("     || add %s, %s, %s" % (
                pair_dst, rng.choice(regs), rng.choice(regs)))
    lines += ["        addk a1, -1", "        bnz a1, body"]
    lines += ["        nop"] * 5
    lines.append("        halt")
    return "\n".join(lines) + "\n"


HAZARD_PROGRAMS = [("raw", RAW_PROGRAM), ("waw", WAW_PROGRAM)] + [
    ("loop%d" % seed, _hazard_loop(seed)) for seed in range(8)
]
HAZARD_CASES = [
    (name, kind, backend)
    for name, _source in HAZARD_PROGRAMS
    for kind in ("static", "unfolded_static")
    for backend in ("auto", "native")
]


class TestHazardWindowsCompose:
    """A composed column runs the dynamic path's ops in its order, so
    windows over cross-cycle data hazards compose and stay exact."""

    @pytest.mark.parametrize("name,kind,backend", HAZARD_CASES,
                             ids=["-".join(case) for case in HAZARD_CASES])
    def test_hazard_windows_match_interpretive(self, c62x, c62x_tools, name,
                                               kind, backend):
        program = c62x_tools.assembler.assemble_text(
            dict(HAZARD_PROGRAMS)[name]
        )
        reference = create_simulator(c62x, "interpretive")
        reference.load_program(program)
        expected = reference.run(max_cycles=100_000)
        assert reference.control.halted

        sim = create_simulator(c62x, kind, backend=backend)
        sim.load_program(program)
        stats = sim.run(max_cycles=100_000)
        assert sim.state.differences(reference.state) == []
        assert (stats.cycles, stats.instructions) == \
            (expected.cycles, expected.instructions)
        if backend == "native":
            if native_available():
                assert isinstance(sim.engine, NativePipeline)
            return
        # The analysis finds hazards, and windows holding them composed.
        safety = analyze_program(c62x, program).safety
        assert CONFLICTING in safety.values()
        assert any(
            safety.get(pc) == CONFLICTING
            for node in sim.engine._interned.values()
            if node.column is not None
            for pc in node.pcs
        )


# -- acceptance: the example applications ------------------------------------


APPS = (("fir", build_fir), ("adpcm", build_adpcm), ("gsm", build_gsm))


class TestApplicationsAnalyzeClean:
    @pytest.mark.parametrize("name,builder", APPS, ids=[a[0] for a in APPS])
    def test_no_findings_all_hazard_free(self, c62x, c62x_tools, name,
                                         builder):
        program = builder().assemble(c62x_tools)
        result = analyze_program(c62x, program)
        assert not result.report.errors
        assert not result.report.warnings
        counts = result.verdict_counts()
        assert counts[CONFLICTING] == 0 and counts[UNKNOWN] == 0
        assert counts[HAZARD_FREE] == len(result.cfg.order)


class TestStaticWindowsProperty:
    """Every window without a control-capable packet composes."""

    @pytest.mark.parametrize("kind", ["static", "unfolded_static"])
    @pytest.mark.parametrize("name,builder", APPS[:2],
                             ids=[a[0] for a in APPS[:2]])
    def test_composed_windows_hold_no_control(self, c62x, c62x_tools, kind,
                                              name, builder):
        program = builder().assemble(c62x_tools)
        sim = create_simulator(c62x, kind)
        sim.load_program(program)
        sim.run()
        has_control = sim.table.has_control
        composed = 0
        for node in sim.engine._interned.values():
            controlled = any(
                pc is not None and has_control.get(pc, True)
                for pc in node.pcs
            )
            assert (node.column is None) == controlled
            if node.column is not None and not node.empty:
                composed += 1
        # Static composition actually happened.
        assert composed > 0
