"""Undecodable program words run as on the interpretive reference.

A packet with an undecodable member issues the interpretive fetch's
trap slot on every kind and backend, and in the emitted standalone
module: it raises the decoder's message only if it executes.  So an
undecodable word fetched behind ``halt`` is squashed, the same word
written there under the ``recover`` write guard likewise, and one that
does execute fails at the same cycle and pc, with the same error, on
every configuration.  ``--dump-ir`` and ``--dump-c`` print the trap.
"""

from __future__ import annotations

import pytest

from repro.machine.control import PipelineControl
from repro.machine.driver import Pipeline
from repro.machine.state import ProcessorState
from repro.resilience.faults import FaultInjector
from repro.sim import create_simulator
from repro.simcc.emit import emit_simulator_module
from repro.support.errors import SimulationError, annotate_simulation_error

#: Every configuration besides the interpretive reference; the
#: interpretive and predecoded kinds have no native backend.
CONFIGS = [("predecoded", "auto")] + [
    (kind, backend)
    for kind in ("compiled", "static", "unfolded", "unfolded_static")
    for backend in ("auto", "native")
]
#: The ids name the path: ``auto`` runs the table in Python.
IDS = ["%s-%s" % (kind, "native" if backend == "native" else "python")
       for kind, backend in CONFIGS]

BAD_WORD = 0xFFFF

#: ``.word 0xFFFF`` is fetched behind ``halt`` and squashed.
SQUASHED = """
start:  halt
        nop
        nop
        nop
        .word 0xFFFF
"""

#: ``.word 0xFFFF`` executes.
EXECUTED = """
start:  nop
        nop
        .word 0xFFFF
        halt
"""

#: A countdown loop; the word after ``halt`` is rewritten to 0xFFFF.
COUNTDOWN = """
start:  ldi r0, 1
        ldi r1, 3
loop:   sub r1, r1, r0
        brnz r1, loop
        halt
after:  nop
"""


def _run(model, program, kind, backend, rewrite=None):
    simulator = create_simulator(
        model, kind, backend=backend,
        on_self_modify="recover" if rewrite is not None else None,
    )
    simulator.load_program(program)
    if rewrite is None:
        stats = simulator.run(max_cycles=1_000)
    else:
        injector = FaultInjector()
        stats = injector.run_with_faults(
            simulator,
            [(1, lambda sim: injector.write_program_word(
                sim, rewrite, BAD_WORD))],
            max_cycles=1_000,
        )
    return simulator, stats


def _failure(model, program, kind, backend):
    simulator = create_simulator(model, kind, backend=backend)
    simulator.load_program(program)
    with pytest.raises(SimulationError) as excinfo:
        simulator.run(max_cycles=1_000)
    exc = excinfo.value
    return (type(exc), str(exc), exc.sim_cycles, exc.sim_pc,
            simulator.state.snapshot(), simulator.stats.instructions)


@pytest.fixture(scope="module")
def programs(tinydsp_tools):
    assemble = tinydsp_tools.assembler.assemble_text
    return {
        "squashed": assemble(SQUASHED, name="squashed"),
        "executed": assemble(EXECUTED, name="executed"),
        "countdown": assemble(COUNTDOWN, name="countdown"),
    }


@pytest.fixture(scope="module")
def references(tinydsp, programs):
    squashed, stats = _run(tinydsp, programs["squashed"], "interpretive",
                           "auto")
    countdown = programs["countdown"]
    rewritten, rewritten_stats = _run(
        tinydsp, countdown, "interpretive", "auto",
        rewrite=countdown.symbols["after"],
    )
    assert rewritten.guard.stats["self_mod_writes"] == 1
    return {
        "squashed": (squashed.state.snapshot(), stats.cycles,
                     stats.instructions),
        "countdown": (rewritten.state.snapshot(), rewritten_stats.cycles,
                      rewritten_stats.instructions),
        "executed": _failure(tinydsp, programs["executed"], "interpretive",
                             "auto"),
    }


@pytest.mark.parametrize("kind,backend", CONFIGS, ids=IDS)
class TestUndecodableWord:
    def test_fetched_but_squashed(self, tinydsp, programs, references,
                                  kind, backend):
        simulator, stats = _run(tinydsp, programs["squashed"], kind,
                                backend)
        assert (simulator.state.snapshot(), stats.cycles,
                stats.instructions) == references["squashed"]

    def test_rewritten_behind_halt_under_recover(
            self, tinydsp, programs, references, kind, backend):
        program = programs["countdown"]
        simulator, stats = _run(tinydsp, program, kind, backend,
                                rewrite=program.symbols["after"])
        assert (simulator.state.snapshot(), stats.cycles,
                stats.instructions) == references["countdown"]
        assert simulator.guard.stats["recompiled_packets"] >= 1

    def test_executed_raises_like_interpretive(
            self, tinydsp, programs, references, kind, backend):
        failure = _failure(tinydsp, programs["executed"], kind, backend)
        assert failure == references["executed"]
        assert "no operation coding matches" in failure[1]


def _trap(model, program, kind, backend):
    simulator = create_simulator(model, kind, backend=backend)
    simulator.load_program(program)
    with pytest.raises(SimulationError) as excinfo:
        simulator.run(max_cycles=1_000)
    return simulator, (type(excinfo.value), str(excinfo.value),
                       simulator.cycles, simulator.engine.window_pcs)


@pytest.mark.parametrize(
    "kind", ("compiled", "static", "unfolded", "unfolded_static")
)
def test_executed_trap_leaves_the_python_window(tinydsp, programs, kind):
    """A native run that traps leaves the error, cycle count and
    pipeline window the Python path of the same kind leaves."""
    from repro.simcc.native import NativePipeline, native_available

    native, native_failure = _trap(tinydsp, programs["executed"], kind,
                                   "native")
    _, python_failure = _trap(tinydsp, programs["executed"], kind, "auto")
    assert native_failure == python_failure
    if native_available():
        assert isinstance(native.engine, NativePipeline)
        assert native.engine.dispatch_counts["bursts"] > 0


@pytest.mark.parametrize(
    "kind", ("compiled", "static", "unfolded", "unfolded_static")
)
def test_off_table_fetch_traps_inside_the_burst(tinydsp, tinydsp_tools,
                                                kind):
    """Running off the end issues a trap pseudo-slot that raises at the
    execute stage inside the C burst, with the Python path's error,
    cycle count and window."""
    from repro.simcc.native import native_available

    program = tinydsp_tools.assembler.assemble_text(
        "start:  nop\n        nop\n", name="off_the_end"
    )
    native, native_failure = _trap(tinydsp, program, kind, "native")
    _, python_failure = _trap(tinydsp, program, kind, "auto")
    assert native_failure == python_failure
    assert "fetch outside the compiled region" in native_failure[1]
    if native_available():
        assert native.engine.dispatch_counts["traps"] == 1


class TestReferenceFigures:
    """The interpretive figures the matrix above is held to."""

    def test_squashed(self, references):
        _, cycles, retired = references["squashed"]
        assert (cycles, retired) == (5, 1)

    def test_executed(self, references):
        _, message, cycles, pc, _, _ = references["executed"]
        assert "word=0xffff, address=0x2" in message
        assert cycles == 4 and pc is not None


def _module_pipeline(model, program):
    """A pipeline over the emitted standalone module of ``program``."""
    source = emit_simulator_module(model, program, level="instantiated")
    namespace = {"__name__": "undecodable_emitted"}
    exec(compile(source, "<emitted>", "exec"), namespace)
    state = ProcessorState(model)
    control = PipelineControl()
    namespace["PROGRAM"].load_into(state)
    frontend = namespace["make_frontend"](state, control)
    return state, Pipeline(model, state, control, frontend)


class TestEmittedModule:
    def test_fetched_but_squashed(self, tinydsp, programs, references):
        state, pipe = _module_pipeline(tinydsp, programs["squashed"])
        pipe.run_chunk(1_000)
        assert (state.snapshot(), pipe.cycles,
                pipe.instructions_retired) == references["squashed"]

    def test_executed_raises_like_interpretive(self, tinydsp, programs,
                                               references):
        state, pipe = _module_pipeline(tinydsp, programs["executed"])
        with pytest.raises(SimulationError) as excinfo:
            pipe.run_chunk(1_000)
        # Annotated as Simulator.run annotates the in-process kinds.
        exc = annotate_simulation_error(excinfo.value, cycles=pipe.cycles,
                                        pc=state.pc)
        assert (type(exc), str(exc), exc.sim_cycles, exc.sim_pc,
                state.snapshot(), pipe.instructions_retired) \
            == references["executed"]


class TestDumps:
    def test_dump_ir_prints_the_trap(self, tinydsp_tools, programs):
        text = tinydsp_tools.dump_ir(programs["executed"])
        assert ("packet 0x2: trap (no operation coding matches "
                "(word=0xffff, address=0x2))") in text

    def test_dump_c_prints_the_trap(self, tinydsp, programs):
        import io

        from repro.simcc.native import dump_program_c

        out = io.StringIO()
        dump_program_c(tinydsp, programs["executed"], stream=out)
        assert ("/* pc=0x2: trap (no operation coding matches "
                "(word=0xffff, address=0x2)) */") in out.getvalue()
