"""Tests for the profile report built from observer metrics."""

import math

import pytest

from repro.obs import Observer, profile_report
from repro.sim import create_simulator


SOURCE = """
        .entry start
start:  ldi r1, 4
        ldi r2, -1
loop:   add r3, r3, r1
        add r1, r1, r2
        brnz r1, loop
        st r3, 0
        halt
"""


def attach_profiler(simulator):
    """A metrics-only observer on ``simulator``, as profiling uses."""
    observer = Observer(record=False)
    simulator.attach_observer(observer)
    return observer


@pytest.fixture
def profiled(testmodel, testmodel_tools):
    program = testmodel_tools.assembler.assemble_text(SOURCE)
    simulator = create_simulator(testmodel, "compiled")
    simulator.load_program(program)
    observer = attach_profiler(simulator)
    simulator.run(max_cycles=10_000)
    return profile_report(observer, simulator), program, simulator


class TestProfiler:
    def test_loop_body_is_hottest(self, profiled):
        report, _, _ = profiled
        hottest_pc, hottest_count = report.hottest[0]
        assert hottest_pc in (2, 3, 4)  # the loop body
        assert hottest_count == 4

    def test_prologue_fetched_once(self, profiled):
        report, _, _ = profiled
        assert report.fetch_counts[0] == 1
        assert report.fetch_counts[1] == 1

    def test_cycle_accounting(self, profiled):
        report, _, simulator = profiled
        assert report.total_cycles == simulator.cycles
        assert report.issue_cycles + report.bubble_cycles \
            == report.total_cycles
        assert report.bubble_cycles > 0  # flushes and drain

    def test_annotated_listing(self, profiled, testmodel_tools):
        report, program, _ = profiled
        lines = report.annotate(testmodel_tools.disassembler, program,
                                limit=3)
        assert len(lines) == 3
        assert "add" in lines[0] or "brnz" in lines[0]

    def test_profile_does_not_change_results(self, testmodel,
                                             testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(SOURCE)
        plain = create_simulator(testmodel, "compiled")
        plain.load_program(program)
        plain.run(max_cycles=10_000)

        profiled_sim = create_simulator(testmodel, "compiled")
        profiled_sim.load_program(program)
        attach_profiler(profiled_sim)
        profiled_sim.run(max_cycles=10_000)

        assert plain.state.differences(profiled_sim.state) == []
        assert plain.cycles == profiled_sim.cycles

    def test_works_on_interpretive(self, testmodel, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(SOURCE)
        simulator = create_simulator(testmodel, "interpretive")
        simulator.load_program(program)
        observer = attach_profiler(simulator)
        simulator.run(max_cycles=10_000)
        report = profile_report(observer, simulator)
        assert report.issue_cycles > 0

    def test_static_kind_profiles_identically(self, testmodel,
                                              testmodel_tools, profiled):
        compiled_report, program, _ = profiled
        simulator = create_simulator(testmodel, "static")
        simulator.load_program(program)
        observer = attach_profiler(simulator)
        simulator.run(max_cycles=10_000)
        report = profile_report(observer, simulator)
        assert report.fetch_counts == compiled_report.fetch_counts
        assert report.issue_cycles == compiled_report.issue_cycles
        assert report.bubble_cycles == compiled_report.bubble_cycles
        assert report.total_cycles == simulator.cycles

    def test_bubble_attribution(self, profiled):
        report, _, _ = profiled
        assert sum(report.bubbles_by_reason.values()) \
            == report.bubble_cycles
        assert report.bubbles_by_reason.get("drain", 0) > 0

    def test_packet_statistics(self, profiled):
        report, _, _ = profiled
        assert sum(report.packet_sizes.values()) == report.issue_cycles
        assert sum(
            size * count for size, count in report.packet_sizes.items()
        ) == report.instructions_issued
        assert not math.isnan(report.mean_packet_size)
        assert report.mean_packet_size >= 1.0
