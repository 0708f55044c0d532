"""Tests for the generic pipeline driver, with hand-built issue slots,
and for the table engines' active stages, plain loop and columns."""

import itertools

import pytest

from repro.apps import build_adpcm, build_fir, build_synthetic
from repro.bench import load_app_program
from repro.machine.control import PipelineControl
from repro.machine.driver import IssueSlot, Pipeline, all_stages, trap_slot
from repro.machine.state import ProcessorState
from repro.sim import create_simulator
from repro.simcc.native import build_native_module, native_available
from repro.support.errors import SimulationError

TABLE_KINDS = ("compiled", "static", "unfolded", "unfolded_static")


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


class TestActiveStages:
    """Table engines visit only the stages where the table has code."""

    PROGRAMS = {
        "c62x-fir": lambda: build_fir("c62x", taps=4, samples=8),
        "c62x-adpcm": lambda: build_adpcm("c62x", samples=16),
        "c62x-straight": lambda: build_synthetic("c62x", 64, 0.0, 2),
        "c54x-fir": lambda: build_fir("c54x", taps=4, samples=8),
        "tinydsp-fir": lambda: build_fir("tinydsp", taps=4, samples=8),
    }
    EXPECTED = {
        "c62x-fir": (10, 9, 8, 7, 6, 5),
        "c62x-adpcm": (10, 9, 8, 7, 6, 5),
        "c62x-straight": (6, 5),
        "c54x-fir": (5,),
        "tinydsp-fir": (2,),
    }

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_tables_pin_their_active_stages(self, name):
        model, program = load_app_program(self.PROGRAMS[name]())
        expected = self.EXPECTED[name]
        for kind in TABLE_KINDS:
            simulator = create_simulator(model, kind)
            simulator.load_program(program)
            assert simulator.table.active_stages == expected, kind
            assert simulator.engine.active_stages == expected, kind
        if native_available():
            # every packet of these programs is native, so the burst
            # driver visits the same stages
            module = build_native_module(model, simulator.table)
            assert not module.plan.reasons
            assert module.plan.active_stages == expected

    @pytest.mark.parametrize("kind", ("interpretive", "predecoded"))
    def test_engines_without_a_table_visit_every_stage(self, kind):
        model, program = load_app_program(
            build_fir("c62x", taps=4, samples=8)
        )
        simulator = create_simulator(model, kind)
        simulator.load_program(program)
        assert simulator.engine.active_stages == all_stages(11)

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_wrapping_the_frontend_visits_every_stage(self, kind):
        # the write guard's recompiled and interpreted slots may carry
        # code where the table has none
        model, program = load_app_program(
            build_synthetic("c62x", 64, 0.0, 2)
        )
        simulator = create_simulator(model, kind)
        simulator.load_program(program)
        engine = simulator.engine
        assert engine.active_stages == (6, 5)
        engine.wrap_frontend(lambda frontend: frontend)
        assert engine.active_stages == all_stages(11)

    def test_skipped_stages_are_squashed_below_the_flush(self, machine,
                                                          testmodel):
        # Only the execute stage is visited, so the trap slots fetched
        # behind the halt sit in stages the visit skips: the squash
        # after the visit must remove them before they reach execute.
        state, control = machine

        def halter():
            control.request_halt()

        feed = [slot([(), (), (halter,), ()])]

        def frontend(pc):
            if feed:
                return feed.pop()
            return trap_slot(testmodel, "should be squashed")

        pipe = Pipeline(testmodel, state, control, frontend,
                        active_stages=(2,))
        pipe.run_chunk(100)
        assert control.halted and pipe.drained


def _fir_program(model, tools, ending):
    """A small c62x FIR that halts, or (``raise``) runs off the end of
    its code, so a fetch outside the table reaches execute and raises."""
    source = build_fir("c62x", taps=4, samples=8).source
    if ending == "raise":
        source = source.replace("        halt\n", "        nop\n")
    return tools.assembler.assemble_text(source)


def _position(simulator):
    engine = simulator.engine
    return (simulator.state.snapshot(), engine.cycles,
            engine.instructions_retired, engine.window_pcs)


class TestPlainLoop:
    """``run_chunk(n)`` is n calls to ``step()``."""

    @pytest.mark.parametrize("ending", ("halt", "raise"))
    @pytest.mark.parametrize("backend", ("auto", "native"))
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_run_chunk_matches_steps(self, c62x, c62x_tools, kind,
                                     backend, ending):
        program = _fir_program(c62x, c62x_tools, ending)
        chunked, stepped = (
            create_simulator(c62x, kind, backend=backend)
            for _ in range(2)
        )
        chunked.load_program(program)
        stepped.load_program(program)
        failures = []
        for size in itertools.cycle((1, 2, 3, 7, 50, 200)):
            chunk_error = step_error = None
            try:
                ran = chunked.engine.run_chunk(size)
            except SimulationError as exc:
                chunk_error = str(exc)
            steps = 0
            while steps < size and not stepped.halted:
                try:
                    stepped.engine.step()
                except SimulationError as exc:
                    step_error = str(exc)
                    break
                steps += 1
            assert chunk_error == step_error
            if chunk_error is None:
                assert ran == steps
            assert _position(chunked) == _position(stepped)
            if chunk_error is not None:
                failures.append(chunk_error)
                break
            if chunked.halted:
                break
        if ending == "raise":
            assert failures and "outside the compiled region" in failures[0]
        else:
            assert chunked.halted and stepped.halted


class TestColumns:
    def test_only_multi_function_columns_are_fused(self, c62x,
                                                   c62x_tools):
        program = _fir_program(c62x, c62x_tools, "halt")
        simulator = create_simulator(c62x, "unfolded_static")
        simulator.load_program(program)
        simulator.run()
        table = simulator.table
        single = fused = 0
        for node in simulator.engine._interned.values():
            if not node.column:
                continue  # a dynamic window, or one with no code
            funcs = [
                (pc, stage)
                for stage, pc in enumerate(node.pcs) if pc is not None
                for _ in table.ir_by_stage[pc][stage]
            ]
            if len(funcs) == 1:
                pc, stage = funcs[0]
                # the table's own bound op, not a recompiled copy
                assert node.column == table.slots[pc].ops_by_stage[stage]
                assert node.column[0] is table.slots[pc].ops_by_stage[
                    stage][0]
                single += 1
            else:
                assert len(node.column) == 1
                assert node.column[0].__name__.startswith("column_")
                fused += 1
        assert single and fused
        assert simulator.engine._column_compiler.count == fused

