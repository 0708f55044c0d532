"""Tests for the generic pipeline driver, with hand-built issue slots."""

import pytest

from repro.machine.control import PipelineControl
from repro.machine.driver import IssueSlot, Pipeline, trap_slot
from repro.machine.state import ProcessorState
from repro.support.errors import SimulationError


@pytest.fixture
def machine(testmodel):
    state = ProcessorState(testmodel)
    control = PipelineControl()
    return state, control


def slot(ops_by_stage, words=1, insn_count=1):
    return IssueSlot(
        ops_by_stage=tuple(tuple(stage) for stage in ops_by_stage),
        words=words,
        insn_count=insn_count,
    )


def empty_stages(depth=4):
    return [() for _ in range(depth)]


class TestAdvanceAndFetch:
    def test_fetch_advances_pc_by_words(self, machine, testmodel):
        state, control = machine
        fetched = []

        def frontend(pc):
            fetched.append(pc)
            return slot(empty_stages(), words=2)

        pipe = Pipeline(testmodel, state, control, frontend)
        pipe.step()
        pipe.step()
        assert fetched == [0, 2]
        assert state.pc == 4

    def test_halt_stops_fetching(self, machine, testmodel):
        state, control = machine
        fetched = []

        def frontend(pc):
            fetched.append(pc)
            return slot(empty_stages())

        pipe = Pipeline(testmodel, state, control, frontend)
        pipe.step()
        control.halted = True
        pipe.step()
        pipe.step()
        assert fetched == [0]

    def test_stall_inserts_bubbles(self, machine, testmodel):
        state, control = machine
        fetched = []

        def frontend(pc):
            fetched.append(pc)
            return slot(empty_stages())

        pipe = Pipeline(testmodel, state, control, frontend)
        control.stall_cycles = 2
        pipe.step()
        pipe.step()
        pipe.step()
        assert fetched == [0]
        assert pipe.slots[0] is not None
        assert pipe.slots[1] is None and pipe.slots[2] is None

    def test_retirement_counts_instructions(self, machine, testmodel):
        state, control = machine
        pipe = Pipeline(
            testmodel, state, control,
            lambda pc: slot(empty_stages(), insn_count=3),
        )
        for _ in range(6):
            pipe.step()
        # Depth 4: slots fetched at cycles 1..6; two have retired.
        assert pipe.instructions_retired == 6


class TestExecutionOrder:
    def test_ops_run_in_their_stage(self, machine, testmodel):
        state, control = machine
        trace = []
        one = slot([
            (lambda: trace.append("s0"),),
            (lambda: trace.append("s1"),),
            (lambda: trace.append("s2"),),
            (lambda: trace.append("s3"),),
        ])
        issued = iter([one])

        def frontend(pc):
            nxt = next(issued, None)
            if nxt is None:
                control.halted = True
                return None
            return nxt

        pipe = Pipeline(testmodel, state, control, frontend)
        for _ in range(5):
            pipe.step()
        assert trace == ["s0", "s1", "s2", "s3"]

    def test_deeper_stages_execute_first(self, machine, testmodel):
        state, control = machine
        trace = []

        def make(tag):
            return slot([
                (lambda: trace.append((tag, 0)),),
                (lambda: trace.append((tag, 1)),),
                (), (),
            ])

        slots = iter([make("a"), make("b")])

        def frontend(pc):
            nxt = next(slots, None)
            if nxt is None:
                control.halted = True
            return nxt

        pipe = Pipeline(testmodel, state, control, frontend)
        pipe.step()  # a at stage 0
        pipe.step()  # a at stage 1, b at stage 0: a first (deeper)
        assert trace == [("a", 0), ("a", 1), ("b", 0)]


class TestFlush:
    def test_flush_squashes_younger_same_cycle(self, machine, testmodel):
        state, control = machine
        executed = []

        def flusher():
            executed.append("flusher")
            control.request_flush()

        flush_slot = slot([(), (), (flusher,), ()])
        victim = slot([
            (lambda: executed.append("victim0"),),
            (lambda: executed.append("victim1"),),
            (lambda: executed.append("victim2"),),
            (),
        ])
        feed = iter([flush_slot, victim, victim])

        def frontend(pc):
            nxt = next(feed, None)
            if nxt is None:
                control.halted = True
            return nxt

        pipe = Pipeline(testmodel, state, control, frontend)
        pipe.step()  # flusher@0
        pipe.step()  # flusher@1, victim@0 executes
        pipe.step()  # flusher@2 flushes; victims squashed pre-execution
        assert "flusher" in executed
        assert "victim1" not in executed
        assert "victim2" not in executed
        assert pipe.slots[0] is None and pipe.slots[1] is None

    def test_flush_flag_cleared_after_cycle(self, machine, testmodel):
        state, control = machine

        def flusher():
            control.request_flush()

        feed = iter([slot([(flusher,), (), (), ()])])

        def frontend(pc):
            nxt = next(feed, None)
            if nxt is None:
                control.halted = True
            return nxt

        pipe = Pipeline(testmodel, state, control, frontend)
        pipe.step()
        assert control.flush_below == -1


class TestTrapSlots:
    def test_trap_fires_when_reaching_execute_stage(self, machine, testmodel):
        state, control = machine
        pipe = Pipeline(
            testmodel, state, control,
            lambda pc: trap_slot(testmodel, "bad fetch at 0x%x" % pc),
        )
        pipe.step()  # stage 0 (FE)
        pipe.step()  # stage 1 (DE)
        with pytest.raises(SimulationError):
            pipe.step()  # stage 2 (EX): trap fires

    def test_trap_squashed_by_halt_never_fires(self, machine, testmodel):
        state, control = machine

        def halter():
            control.request_halt()

        feed = [slot([(), (), (halter,), ()])]

        def frontend(pc):
            if feed:
                return feed.pop()
            return trap_slot(testmodel, "should be squashed")

        pipe = Pipeline(testmodel, state, control, frontend)
        cycles = pipe.run_chunk(100)
        assert control.halted
        assert cycles <= 100  # and no SimulationError was raised


class TestRun:
    def test_run_drains_after_halt(self, machine, testmodel):
        state, control = machine
        executed = []

        def halter():
            control.request_halt()

        feed = iter([
            slot([(), (), (lambda: executed.append("a"),), ()]),
            slot([(), (), (halter,), ()]),
        ])

        def frontend(pc):
            return next(feed, None) or trap_slot(testmodel, "off the end")

        pipe = Pipeline(testmodel, state, control, frontend)
        pipe.run_chunk(100)
        assert executed == ["a"]
        assert pipe.drained

    def test_run_chunk_stops_at_cycle_limit(self, machine, testmodel):
        # A chunk ends at its cycle count without raising; the
        # cycle-limit timeout is Simulator.run's (see
        # test_resilience.py::TestWatchdog::test_run_raises_typed_timeout).
        state, control = machine
        pipe = Pipeline(
            testmodel, state, control,
            lambda pc: slot(empty_stages()),
        )
        assert pipe.run_chunk(10) == 10
        assert pipe.cycles == 10
        assert not control.halted
