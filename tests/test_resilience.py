"""Tests for the resilience layer: write guard, watchdog, fault harness.

The load-bearing property: a self-modifying program must reach the same
final state on every compiled simulator kind (under the ``recover``
policy, down both of its branches) as on the interpretive reference
subjected to the *same* injected fault -- and must fail fast with a
typed :class:`StaleTableError` under the ``error`` policy.
"""

from __future__ import annotations

import inspect

import pytest

from repro import obs
from repro.resilience import FaultInjector, RunBudget
from repro.sim import SIM_KINDS, create_simulator
from repro.simcc.cache import SimulationCache
from repro.support.errors import (
    DecodeError,
    ReproError,
    SimulationError,
    SimulationTimeout,
    StaleTableError,
)

COMPILED_KINDS = tuple(k for k in SIM_KINDS if k != "interpretive")
TABLE_KINDS = ("compiled", "static", "unfolded", "unfolded_static")

# A loop whose body is patched mid-run: the instruction at ``patch:``
# is rewritten from ``ldi r3, 1`` to ``ldi r3, 2`` after a few
# iterations, changing the accumulated result in dmem[7].
SMC_SOURCE = """
        ldi r1, 4
        ldi r5, 255
loop:   add r2, r2, r1
patch:  ldi r3, 1
        add r2, r2, r3
        add r1, r1, r5
        brnz r1, loop
        st r2, 7
        halt
"""

PATCH_CYCLE = 6
# The second write of the patched-twice case: by then the packet has
# been fetched, and so recompiled, after the first patch.
REPATCH_CYCLE = PATCH_CYCLE + 10

#: The write axis.  Patched once, the stale packet is recompiled on its
#: first fetch; patched again after that recompile, it is interpreted
#: from then on.  The ids name the branch of ``recover`` each case
#: reaches.
WRITES = [pytest.param(1, id="recompile"), pytest.param(2, id="interpret")]


@pytest.fixture(scope="module")
def smc_program(testmodel_tools):
    return testmodel_tools.assembler.assemble_text(SMC_SOURCE, name="smc")


def _encode(tools, text):
    return tools.assembler.assemble_text(text).segments_in("pmem")[0].words[0]


@pytest.fixture(scope="module")
def patch_word(testmodel_tools):
    """The encoding of the replacement instruction ``ldi r3, 2``."""
    return _encode(testmodel_tools, "ldi r3, 2")


@pytest.fixture(scope="module")
def repatch_word(testmodel_tools):
    """The encoding of the second replacement, ``ldi r3, 3``."""
    return _encode(testmodel_tools, "ldi r3, 3")


def _repatch(writes, word):
    return [(REPATCH_CYCLE, word)] if writes == 2 else []


def _run_with_patch(model, kind, policy, program, word, observer=None,
                    cache=None, repatch=(), backend="auto"):
    """Run ``program`` patching ``patch:`` to ``word`` at
    ``PATCH_CYCLE``, then to each later ``(cycle, word)`` of
    ``repatch``."""
    simulator = create_simulator(
        model, kind, observer=observer, cache=cache, on_self_modify=policy,
        backend=backend,
    )
    simulator.load_program(program)
    injector = FaultInjector(observer=observer)
    patch_pc = program.symbols["patch"]
    plan = [
        (PATCH_CYCLE,
         lambda sim: injector.write_program_word(sim, patch_pc, word)),
    ]
    for cycle, value in repatch:
        plan.append(
            (cycle,
             lambda sim, value=value: injector.write_program_word(
                 sim, patch_pc, value))
        )
    stats = injector.run_with_faults(simulator, plan, max_cycles=10_000)
    return simulator, stats


@pytest.fixture(scope="module")
def smc_reference(testmodel, smc_program, patch_word):
    """Interpretive run with the same injected patch: the golden state."""
    simulator, stats = _run_with_patch(
        testmodel, "interpretive", "recover", smc_program, patch_word
    )
    snapshot = simulator.state.snapshot()
    # The patch must actually change the result, or the agreement tests
    # below would pass vacuously.
    unpatched = create_simulator(testmodel, "interpretive")
    unpatched.load_program(smc_program)
    unpatched.run(max_cycles=10_000)
    assert snapshot != unpatched.state.snapshot()
    return stats.cycles, snapshot


@pytest.fixture(scope="module")
def smc_references(testmodel, smc_program, patch_word, repatch_word,
                   smc_reference):
    """The golden ``(cycles, snapshot)`` per write-axis case."""
    simulator, stats = _run_with_patch(
        testmodel, "interpretive", "recover", smc_program, patch_word,
        repatch=_repatch(2, repatch_word),
    )
    snapshot = simulator.state.snapshot()
    assert snapshot != smc_reference[1]
    return {1: smc_reference, 2: (stats.cycles, snapshot)}


def _assert_recover_branches(guard, writes):
    """Patched once, ``recover`` only recompiles; patched again after
    that recompile, it also interprets."""
    assert guard.stats["self_mod_writes"] == writes
    assert guard.stats["invalidated_packets"] >= 1
    assert guard.stats["recompiled_packets"] >= 1
    if writes == 1:
        assert guard.stats["interpreted_fetches"] == 0
    else:
        assert guard.stats["interpreted_fetches"] >= 1


def _guard_wraps(simulator):
    """How many guard interposers sit in the engine's front-end (a
    native engine fetches through its inner Python engine)."""
    engine = simulator.engine
    frontend = getattr(engine, "_inner", engine)._frontend
    wraps = 0
    while frontend.__name__ == "guarded_frontend":
        wraps += 1
        frontend = inspect.getclosurevars(frontend).nonlocals["base"]
    return wraps


class TestSelfModifyingCode:
    @pytest.mark.parametrize("writes", WRITES)
    @pytest.mark.parametrize("kind", COMPILED_KINDS)
    def test_degraded_run_matches_interpretive(
        self, testmodel, smc_program, patch_word, repatch_word,
        smc_references, kind, writes,
    ):
        ref_cycles, ref_snapshot = smc_references[writes]
        simulator, stats = _run_with_patch(
            testmodel, kind, "recover", smc_program, patch_word,
            repatch=_repatch(writes, repatch_word),
        )
        assert stats.cycles == ref_cycles
        assert simulator.state.snapshot() == ref_snapshot
        _assert_recover_branches(simulator.guard, writes)
        # the out-of-band patch installed the interposer, once
        assert _guard_wraps(simulator) == 1

    @pytest.mark.parametrize("writes", WRITES)
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_native_backend_demotes_patched_packet(
        self, testmodel, smc_program, patch_word, repatch_word,
        smc_references, kind, writes,
    ):
        """Under ``backend="native"`` the guard must additionally demote
        the patched packet out of burst execution: its compiled artifact
        still encodes the pre-patch micro-ops."""
        from repro.simcc.native import NativePipeline, native_available

        if not native_available():
            pytest.skip("no usable C compiler on the host")
        ref_cycles, ref_snapshot = smc_references[writes]
        simulator, stats = _run_with_patch(
            testmodel, kind, "recover", smc_program, patch_word,
            repatch=_repatch(writes, repatch_word), backend="native",
        )
        assert stats.cycles == ref_cycles
        assert simulator.state.snapshot() == ref_snapshot
        engine = simulator.engine
        assert isinstance(engine, NativePipeline)
        patch_pc = smc_program.symbols["patch"]
        assert patch_pc in engine._python_pcs
        _assert_recover_branches(simulator.guard, writes)

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_error_policy_raises_typed(
        self, testmodel, smc_program, patch_word, kind
    ):
        simulator = create_simulator(testmodel, kind, on_self_modify="error")
        simulator.load_program(smc_program)
        injector = FaultInjector()
        patch_pc = smc_program.symbols["patch"]
        with pytest.raises(StaleTableError) as excinfo:
            injector.run_with_faults(
                simulator,
                [(PATCH_CYCLE,
                  lambda sim: injector.write_program_word(
                      sim, patch_pc, patch_word))],
                max_cycles=10_000,
            )
        assert excinfo.value.address == patch_pc
        assert patch_pc in excinfo.value.pcs
        assert isinstance(excinfo.value, SimulationError)

    @pytest.mark.parametrize("kind", ["static", "unfolded_static"])
    def test_repeat_patch_of_stale_packet(
        self, testmodel, testmodel_tools, smc_program, patch_word,
        repatch_word, kind,
    ):
        """A write to an already-stale packet must still flush
        engine-side memoisation (interned static transitions).

        The second write lands after the recompile, so ``recover``
        interprets the packet and keeps it stale; interned windows then
        hold its interpreted slot.  The third write finds it stale
        already -- it invalidates nothing new -- and must still flush
        those windows, or the run keeps executing ``ldi r3, 3``.
        """
        # The loop fetches ``patch:`` every 7 cycles (at 17 and 24 after
        # the second write), so the third write must land in between.
        repatch = [
            (REPATCH_CYCLE, repatch_word),
            (REPATCH_CYCLE + 5, _encode(testmodel_tools, "ldi r3, 4")),
        ]
        reference, ref_stats = _run_with_patch(
            testmodel, "interpretive", "recover", smc_program, patch_word,
            repatch=repatch,
        )
        twice, _ = _run_with_patch(
            testmodel, "interpretive", "recover", smc_program, patch_word,
            repatch=repatch[:1],
        )
        # The third write must change the result, or the flush it
        # forces would go unchecked.
        assert (reference.state.read_memory("dmem", 7)
                != twice.state.read_memory("dmem", 7))
        observer = obs.Observer()
        simulator, stats = _run_with_patch(
            testmodel, kind, "recover", smc_program, patch_word,
            observer=observer, repatch=repatch,
        )
        assert stats.cycles == ref_stats.cycles
        assert simulator.state.snapshot() == reference.state.snapshot()
        guard = simulator.guard
        assert guard.stats["self_mod_writes"] == 3
        assert guard.stats["interpreted_fetches"] >= 1
        invalidated = [
            event.args["invalidated"] for event in observer.events
            if event.kind == obs.SELF_MODIFY
        ]
        assert invalidated == [1, 1, 0]
        assert guard.stats["invalidated_packets"] == 2

    def test_data_write_into_program_memory_is_not_self_modifying(
        self, testmodel, smc_program
    ):
        """Stores outside every known packet (scratch data placed in
        program memory) must not trip the guard, even under ``error``."""
        simulator = create_simulator(
            testmodel, "compiled", on_self_modify="error"
        )
        simulator.load_program(smc_program)
        simulator.state.write_memory("pmem", 200, 0x1234)
        assert simulator.guard.stats["program_writes"] == 1
        assert simulator.guard.stats["self_mod_writes"] == 0
        stats = simulator.run(max_cycles=10_000)
        assert stats.cycles > 0
        # it stales nothing, so the fetch interposer never goes in
        assert _guard_wraps(simulator) == 0

    def test_recompile_goes_through_cache(
        self, testmodel, smc_program, patch_word, tmp_path
    ):
        cache = SimulationCache(tmp_path / "simtab")
        simulator, _ = _run_with_patch(
            testmodel, "compiled", "recover", smc_program, patch_word,
            cache=cache,
        )
        # Initial table plus at least one incremental patch table.
        assert cache.stats["stores"] >= 2
        assert simulator.guard.stats["recompiled_packets"] >= 1

    def test_guard_metrics_reach_observer(
        self, testmodel, smc_program, patch_word, repatch_word
    ):
        observer = obs.Observer()
        _run_with_patch(
            testmodel, "compiled", "recover", smc_program, patch_word,
            observer=observer, repatch=_repatch(2, repatch_word),
        )
        counters = observer.snapshot()["counters"]
        assert counters["resilience.self_mod_writes"] >= 2
        assert counters["resilience.invalidated_packets"] >= 1
        assert counters["resilience.recompiled_packets"] >= 1
        assert counters["resilience.interpreted_fetches"] >= 1
        assert counters["resilience.faults_injected"] >= 1
        kinds = [event.kind for event in observer.events]
        assert obs.SELF_MODIFY in kinds
        assert obs.GUARD_RESOLVE in kinds
        assert obs.FAULT in kinds

    def test_unknown_policy_rejected(self, testmodel):
        simulator = create_simulator(testmodel, "compiled")
        with pytest.raises(ReproError, match="policy"):
            simulator.enable_write_guard("panic")

    @pytest.mark.parametrize("policy", ["recompile", "interpret"])
    def test_retired_policies_rejected(self, testmodel, policy, capsys):
        """``recover`` replaced both; the library, ``repro-sim`` and
        the service reject them like any unknown policy."""
        from repro.cli import sim_main
        from repro.service import JobSpec

        simulator = create_simulator(testmodel, "compiled")
        with pytest.raises(ReproError, match="policy"):
            simulator.enable_write_guard(policy)
        with pytest.raises(SystemExit) as excinfo:
            sim_main(["tinydsp", "unused.dspo", "--on-self-modify", policy])
        assert excinfo.value.code == 2
        assert "--on-self-modify" in capsys.readouterr().err
        with pytest.raises(ReproError, match="on_self_modify"):
            JobSpec.from_dict({"model": "tinydsp", "program": {},
                               "on_self_modify": policy})

    def test_unsupported_kind_has_clear_error(self, testmodel):
        """The base class refuses kinds without a guard coupling."""
        from repro.sim.base import Simulator

        simulator = Simulator(testmodel)
        with pytest.raises(SimulationError, match="write guard"):
            simulator._guard_target(None)


class TestLazyInterposer:
    """The guard's fetch interposer goes in at the first write that
    makes a packet stale, and not before: a fetch of a clean packet
    never needs it."""

    def test_interpretive_smc_leaves_frontend_unwrapped(
        self, testmodel, smc_program, patch_word, repatch_word,
        smc_references,
    ):
        """The reference re-decodes every fetch: its guard counts the
        writes and never interposes."""
        simulator, stats = _run_with_patch(
            testmodel, "interpretive", "recover", smc_program, patch_word,
            repatch=_repatch(2, repatch_word),
        )
        assert simulator.guard.stats["self_mod_writes"] == 2
        assert simulator.guard.stale == set()
        assert _guard_wraps(simulator) == 0
        assert stats.cycles == smc_references[2][0]


# A testmodel variant whose ``stp`` instruction stores a register into
# program memory: programs using it rewrite their own code from
# generated behaviour code.
def _smc_capable_model():
    from repro.lisa.semantics import compile_source
    from tests.conftest import TESTMODEL_SOURCE

    source = TESTMODEL_SOURCE.replace(
        "nop || add || ldi || st || brnz",
        "nop || add || ldi || st || stp || brnz",
    ).replace(
        "OPERATION brnz IN pipe.EX {",
        """OPERATION stp IN pipe.EX {
    DECLARE { GROUP src = { reg }; LABEL addr; }
    CODING { 0b0110 src addr[6] 0bxx }
    SYNTAX { "stp" src "," addr }
    BEHAVIOR { pmem[addr] = src; }
}

OPERATION brnz IN pipe.EX {""",
        1,
    )
    return compile_source(source, "smcmodel.lisa")


#: Every guarded configuration of a table kind -- backend, and whether
#: the table comes through a cache (the cacheless ``compiled``/``static``
#: table is the direct level-2 one) -- plus predecoded.
GUARDED_CONFIGS = [
    pytest.param(kind, backend, cached,
                 id="%s-%s-%s" % (kind, backend,
                                  "cache" if cached else "nocache"))
    for kind in TABLE_KINDS
    for backend in ("auto", "native")
    for cached in (False, True)
] + [pytest.param("predecoded", "auto", False, id="predecoded")]


class TestSelfPatchingProgram:
    """A program that rewrites its own code from generated behaviour
    code, on every guarded configuration."""

    # The program overwrites the nop at ``target:`` with a nop encoding
    # (word 0) loaded through r1 -- a genuine self-modifying store whose
    # effect happens to be idempotent, so the run is comparable across
    # kinds without decoding surprises.  It stores once per iteration of
    # a loop run ``%d`` times, and ``target:`` sits far enough behind the
    # store that each store lands before the next fetch of it.
    SELF_PATCH = """
        ldi r1, 0
        ldi r4, %d
        ldi r5, 255
again:  stp r1, target
        ldi r2, 7
        ldi r3, 1
target: nop
        add r4, r4, r5
        brnz r4, again
        st r2, 7
        halt
"""

    @pytest.fixture(scope="class")
    def smc_model(self):
        return _smc_capable_model()

    @pytest.fixture(scope="class")
    def smc_tools(self, smc_model):
        from repro.api import build_toolset

        return build_toolset(smc_model)

    @pytest.fixture(scope="class")
    def self_patch_programs(self, smc_tools):
        """The self-patching program per write-axis case."""
        return {
            writes: smc_tools.assembler.assemble_text(
                self.SELF_PATCH % writes, name="selfpatch")
            for writes in (1, 2)
        }

    @pytest.fixture(scope="class")
    def cache_root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("selfpatch-simtab")

    def _load(self, smc_model, program, kind, backend, cached, policy,
              cache_root):
        simulator = create_simulator(
            smc_model, kind, backend=backend, on_self_modify=policy,
            cache=SimulationCache(cache_root) if cached else None,
        )
        simulator.load_program(program)
        return simulator

    @pytest.mark.parametrize("kind, backend, cached", GUARDED_CONFIGS + [
        pytest.param("interpretive", "auto", False, id="interpretive"),
    ])
    @pytest.mark.parametrize("policy", ["recover", "error"])
    def test_frontend_unwrapped_at_load(
        self, smc_model, self_patch_programs, cache_root, kind, backend,
        cached, policy,
    ):
        simulator = self._load(smc_model, self_patch_programs[1], kind,
                               backend, cached, policy, cache_root)
        assert _guard_wraps(simulator) == 0

    @pytest.mark.parametrize("writes", WRITES)
    @pytest.mark.parametrize("kind, backend, cached", GUARDED_CONFIGS)
    def test_self_patch_matches_interpretive(
        self, smc_model, self_patch_programs, cache_root, kind, backend,
        cached, writes,
    ):
        program = self_patch_programs[writes]
        reference = create_simulator(smc_model, "interpretive",
                                     on_self_modify="recover")
        reference.load_program(program)
        expected = reference.run(max_cycles=10_000)
        assert reference.guard.stats["self_mod_writes"] == writes

        simulator = self._load(smc_model, program, kind, backend, cached,
                               "recover", cache_root)
        assert _guard_wraps(simulator) == 0
        stats = simulator.run(max_cycles=10_000)
        _assert_recover_branches(simulator.guard, writes)
        assert simulator.state.snapshot() == reference.state.snapshot()
        assert (stats.cycles, stats.instructions) == (
            expected.cycles, expected.instructions)
        # installed once, by the first write, and kept
        assert _guard_wraps(simulator) == 1

    @pytest.mark.parametrize("kind, backend, cached", GUARDED_CONFIGS)
    def test_self_patch_error_policy_raises(
        self, smc_model, self_patch_programs, cache_root, kind, backend,
        cached,
    ):
        simulator = self._load(smc_model, self_patch_programs[1], kind,
                               backend, cached, "error", cache_root)
        with pytest.raises(StaleTableError):
            simulator.run(max_cycles=10_000)
        assert _guard_wraps(simulator) == 0


class TestWatchdog:
    def test_run_raises_typed_timeout(self, testmodel, smc_program):
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(smc_program)
        with pytest.raises(SimulationTimeout) as excinfo:
            simulator.run(max_cycles=5)
        exc = excinfo.value
        assert isinstance(exc, SimulationError)  # old except clauses work
        assert exc.budget == "cycles"
        assert exc.limit == 5
        assert exc.cycles == 5
        assert exc.pc is not None
        assert exc.checkpoint is not None
        assert exc.checkpoint.cycles == 5

    def test_run_until_timeout_is_typed_and_resumable(
        self, testmodel, smc_program
    ):
        simulator = create_simulator(testmodel, "static")
        simulator.load_program(smc_program)
        with pytest.raises(SimulationTimeout) as excinfo:
            simulator.run_until(lambda sim: False, max_cycles=7)
        exc = excinfo.value
        assert exc.cycles == 7
        assert exc.pc is not None
        assert exc.checkpoint is not None and exc.checkpoint.cycles == 7

    def test_wall_clock_budget(self, testmodel, smc_program):
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(smc_program)
        budget = RunBudget(max_wall_seconds=0.0, check_interval=4)
        with pytest.raises(SimulationTimeout) as excinfo:
            simulator.run(max_cycles=10_000, budget=budget)
        exc = excinfo.value
        assert exc.budget == "wall"
        assert exc.limit == 0.0
        assert exc.checkpoint is not None

    def test_budget_cycle_limit_tighter_than_max_cycles(
        self, testmodel, smc_program
    ):
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(smc_program)
        with pytest.raises(SimulationTimeout) as excinfo:
            simulator.run(
                max_cycles=10_000, budget=RunBudget(max_cycles=6)
            )
        assert excinfo.value.cycles == 6

    @pytest.mark.parametrize("interval", [0, -5])
    def test_checkpoint_interval_below_one_rejected(self, interval):
        """Such an interval would snapshot without stepping, forever."""
        with pytest.raises(ReproError, match="checkpoint_every"):
            RunBudget(checkpoint_every=interval)

    @pytest.mark.parametrize("interval", [0, -5])
    def test_check_interval_below_one_rejected(self, interval):
        """Such an interval would read the clock without stepping,
        until the deadline passed."""
        with pytest.raises(ReproError, match="check_interval"):
            RunBudget(max_wall_seconds=0.5, check_interval=interval)

    def test_unbudgeted_run_completes_unchanged(self, testmodel, smc_program):
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(smc_program)
        plain = simulator.run(max_cycles=10_000)
        simulator.reset()
        budgeted = simulator.run(
            max_cycles=10_000, budget=RunBudget(max_cycles=10_000)
        )
        assert budgeted.cycles == plain.cycles
        assert budgeted.instructions == plain.instructions

    def test_timeout_metrics(self, testmodel, smc_program):
        observer = obs.Observer()
        simulator = create_simulator(
            testmodel, "compiled", observer=observer
        )
        simulator.load_program(smc_program)
        with pytest.raises(SimulationTimeout):
            simulator.run(max_cycles=3)
        snapshot = observer.snapshot()
        assert snapshot["counters"]["resilience.timeouts"] == 1
        families = snapshot["families"]
        assert families["resilience.timeouts_by_budget"]["cycles"] == 1


class TestErrorAnnotation:
    BAD_BRANCH = """
        ldi r1, 1
        brnz r1, 40
        halt
"""

    @pytest.mark.parametrize("kind", ["interpretive", "compiled", "static"])
    def test_mid_run_trap_carries_cycle_and_pc(
        self, testmodel, testmodel_tools, kind
    ):
        """A branch into unknown memory traps with position context."""
        program = testmodel_tools.assembler.assemble_text(self.BAD_BRANCH)
        simulator = create_simulator(testmodel, kind)
        simulator.load_program(program)
        with pytest.raises(SimulationError) as excinfo:
            simulator.run(max_cycles=10_000)
        exc = excinfo.value
        assert not isinstance(exc, SimulationTimeout)
        assert exc.sim_cycles is not None and exc.sim_cycles > 0
        assert exc.sim_pc is not None
        assert "cycle" in str(exc)

    def test_annotation_is_idempotent(self):
        from repro.support.errors import annotate_simulation_error

        exc = SimulationError("boom")
        annotate_simulation_error(exc, cycles=10, pc=4)
        annotate_simulation_error(exc, cycles=99, pc=9)
        assert exc.sim_cycles == 10
        assert str(exc).count("cycle") == 1

    def test_run_until_annotates_step_errors(
        self, testmodel, testmodel_tools
    ):
        program = testmodel_tools.assembler.assemble_text(self.BAD_BRANCH)
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(program)
        with pytest.raises(SimulationError) as excinfo:
            simulator.run_until(lambda sim: False, max_cycles=10_000)
        assert excinfo.value.sim_cycles is not None


class TestFaultInjector:
    def test_register_bit_flip_changes_result(
        self, testmodel, smc_program
    ):
        baseline = create_simulator(testmodel, "compiled")
        baseline.load_program(smc_program)
        baseline.run(max_cycles=10_000)

        injector = FaultInjector()
        victim = create_simulator(testmodel, "compiled")
        victim.load_program(smc_program)
        injector.run_with_faults(
            victim,
            [(8, lambda sim: injector.flip_register_bit(
                sim, "R", bit=0, index=2))],
            max_cycles=10_000,
        )
        assert victim.state.snapshot() != baseline.state.snapshot()
        assert injector.log[0]["fault"] == "register_bit_flip"

    def test_injection_is_deterministic(self, testmodel, smc_program):
        def one_run():
            injector = FaultInjector()
            simulator = create_simulator(testmodel, "static")
            simulator.load_program(smc_program)
            stats = injector.run_with_faults(
                simulator,
                [(5, lambda sim: injector.flip_memory_bit(
                    sim, "dmem", address=3, bit=2))],
                max_cycles=10_000,
            )
            return stats.cycles, simulator.state.snapshot(), injector.log

        first = one_run()
        second = one_run()
        assert first == second

    def test_decode_fault_scoped_to_address(self, testmodel, smc_program):
        injector = FaultInjector()
        simulator = create_simulator(testmodel, "interpretive")
        simulator.load_program(smc_program)
        with injector.decode_fault(address=smc_program.symbols["patch"]):
            with pytest.raises(SimulationError) as excinfo:
                simulator.run(max_cycles=10_000)
        assert "injected decode fault" in str(excinfo.value)
        assert excinfo.value.sim_cycles is not None
        assert any(f["fault"] == "decode_fault" for f in injector.log)
        # the patch is gone once the context exits
        simulator.reset()
        simulator.run(max_cycles=10_000)

    def test_decode_fault_raises_outside_simulation(self, testmodel_tools):
        injector = FaultInjector()
        with injector.decode_fault():
            with pytest.raises(DecodeError):
                testmodel_tools.decoder.decode(0x0000, address=0)

    def test_compile_fault_fails_table_build(
        self, testmodel, smc_program
    ):
        injector = FaultInjector()
        simulator = create_simulator(testmodel, "compiled")
        with injector.compile_fault():
            with pytest.raises(ReproError, match="injected compile fault"):
                simulator.load_program(smc_program)
        assert injector.log[-1]["fault"] == "compile_fault"
        # compilation works again once the context exits
        simulator.load_program(smc_program)
        simulator.run(max_cycles=10_000)

    def test_plan_actions_fire_at_exact_cycles(self, testmodel, smc_program):
        seen = []
        injector = FaultInjector()
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(smc_program)
        injector.run_with_faults(
            simulator,
            [(4, lambda sim: seen.append(sim.cycles)),
             (9, lambda sim: seen.append(sim.cycles))],
            max_cycles=10_000,
        )
        assert seen == [4, 9]


def _plan_victim_main(conn, plan, attempt, resume_cycles):
    """Child-process body for process-kill plan tests (module level so
    the spawn start method can import it).  Reports the compiled plan
    size, runs it, and -- if the plan lets it live -- the final cycle
    count.  Messages go over a Pipe, not a Queue: Connection.send
    writes synchronously, so a plan that SIGKILLs the process cannot
    outrun a message already sent (a Queue's feeder thread can lose
    the race)."""
    from tests.conftest import TESTMODEL_SOURCE

    from repro.api import build_toolset
    from repro.lisa.semantics import compile_source

    model = compile_source(TESTMODEL_SOURCE, "testmodel.lisa")
    tools = build_toolset(model)
    program = tools.assembler.assemble_text(SMC_SOURCE, name="smc")
    injector = FaultInjector()
    compiled = injector.compile_plan(
        plan, attempt=attempt, resume_cycles=resume_cycles
    )
    conn.send(("compiled", len(compiled)))
    simulator = create_simulator(model, "compiled")
    simulator.load_program(program)
    stats = injector.run_with_faults(
        simulator, compiled, max_cycles=10_000
    )
    conn.send(("finished", stats.cycles))
    conn.close()


class TestFaultPlans:
    """The serialisable plan format the service ships to workers."""

    def _run_victim(self, plan, attempt=1, resume_cycles=0):
        import multiprocessing

        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        import time

        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_plan_victim_main,
            args=(child_conn, plan, attempt, resume_cycles),
        )
        process.start()
        child_conn.close()
        events = []
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if parent_conn.poll(0.2):
                    try:
                        events.append(parent_conn.recv())
                    except EOFError:
                        break  # child gone, pipe drained
                    if events[-1][0] == "finished":
                        break
                elif not process.is_alive():
                    # killed (or done); drain anything left in the pipe
                    while parent_conn.poll(0):
                        try:
                            events.append(parent_conn.recv())
                        except EOFError:
                            break
                    break
        finally:
            process.join(timeout=60)
            parent_conn.close()
        return process.exitcode, dict(events)

    def test_process_kill_takes_the_process_down(self):
        import signal as _signal

        plan = ({"cycle": 6, "action": "process_kill", "args": {}},)
        exitcode, events = self._run_victim(plan)
        assert events.get("compiled") == 1
        assert "finished" not in events
        assert exitcode == -_signal.SIGKILL

    def test_plan_attempt_filter_spares_later_attempts(self):
        plan = ({"cycle": 6, "action": "process_kill",
                 "attempts": [1]},)
        exitcode, events = self._run_victim(plan, attempt=2)
        assert events.get("compiled") == 0
        assert "finished" in events
        assert exitcode == 0

    def test_plan_resume_filter_drops_survived_faults(self):
        # resumed past cycle 6, the kill at 6 has already been survived
        plan = ({"cycle": 6, "action": "process_kill"},)
        exitcode, events = self._run_victim(plan, resume_cycles=8)
        assert events.get("compiled") == 0
        assert "finished" in events
        assert exitcode == 0

    def test_unknown_plan_action_is_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ReproError, match="unknown fault-plan"):
            injector.compile_plan(
                [{"cycle": 3, "action": "summon_gremlin"}]
            )

    def test_compiled_plan_drives_state_faults(
        self, testmodel, smc_program
    ):
        # the data form and the direct lambda form must be equivalent
        injector = FaultInjector()
        direct = create_simulator(testmodel, "compiled")
        direct.load_program(smc_program)
        injector.run_with_faults(
            direct,
            [(5, lambda sim: injector.flip_memory_bit(
                sim, "dmem", address=3, bit=2))],
            max_cycles=10_000,
        )

        planned = FaultInjector()
        victim = create_simulator(testmodel, "compiled")
        victim.load_program(smc_program)
        plan = planned.compile_plan([
            {"cycle": 5, "action": "flip_memory_bit",
             "args": {"memory": "dmem", "address": 3, "bit": 2}},
        ])
        planned.run_with_faults(victim, plan, max_cycles=10_000)
        assert victim.state.snapshot() == direct.state.snapshot()

    def test_stepping_phase_keeps_snapshot_cadence(
        self, testmodel, smc_program
    ):
        # a pending fault is just one more stop of the run loop;
        # autosnapshots must keep their cadence while it is pending,
        # or a process kill before the fault would lose everything
        beats = []
        injector = FaultInjector()
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(smc_program)
        budget = RunBudget(checkpoint_every=4, check_interval=4)
        injector.run_with_faults(
            simulator,
            [(17, lambda sim: None)],   # pending until cycle 17
            max_cycles=10_000,
            budget=budget,
            on_checkpoint=lambda snap: beats.append(snap.cycles),
        )
        stepped_beats = [c for c in beats if c <= 17]
        assert stepped_beats, "no autosnapshot during the stepping phase"
        assert stepped_beats[0] <= 8  # cadence held from the start
        for earlier, later in zip(beats, beats[1:]):
            assert later > earlier


@pytest.fixture(scope="module")
def fir_tinydsp(tinydsp, tinydsp_tools):
    """A FIR long enough for mid-run faults: ``(model, program)``."""
    from repro.apps import build_fir

    return tinydsp, build_fir("tinydsp", taps=8, samples=48).assemble(
        tinydsp_tools
    )


#: A mid-run cycle of the tinydsp FIR, and a bit flip of an input
#: sample that is still to be read at that cycle.
FLIP_CYCLE = 2_001
FLIP = {"cycle": FLIP_CYCLE, "action": "flip_memory_bit",
        "args": {"memory": "dmem", "address": 50, "bit": 3}}


def _run_fir_with_flip(model, program, kind, backend="auto"):
    """Run the FIR with :data:`FLIP` planned; returns the simulator,
    its stats and the cycles at which the plan's actions ran."""
    injector = FaultInjector()
    simulator = create_simulator(model, kind, backend=backend)
    simulator.load_program(program)
    seen = []
    plan = injector.compile_plan([FLIP])
    plan.append((FLIP_CYCLE, lambda sim: seen.append(sim.cycles)))
    stats = injector.run_with_faults(simulator, plan, max_cycles=100_000)
    return simulator, stats, seen


class TestRunLoopStops:
    """Fault-plan cycles are stops of the one run loop, next to the
    cycle limit, the wall deadline and the autosnapshot cadence."""

    def test_fault_beyond_max_cycles_never_fires(
        self, testmodel, smc_program
    ):
        fired = []
        injector = FaultInjector()
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(smc_program)
        with pytest.raises(SimulationTimeout) as excinfo:
            injector.run_with_faults(
                simulator, [(20, lambda sim: fired.append(sim.cycles))],
                max_cycles=10,
            )
        assert fired == []
        assert excinfo.value.budget == "cycles"
        assert excinfo.value.cycles == 10
        assert simulator.cycles == 10

    def test_wall_budget_holds_while_fault_pending(
        self, testmodel, smc_program
    ):
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(smc_program)
        budget = RunBudget(max_wall_seconds=0.0, check_interval=4)
        with pytest.raises(SimulationTimeout) as excinfo:
            FaultInjector().run_with_faults(
                simulator, [(10_000, lambda sim: None)],  # past the end
                max_cycles=100_000, budget=budget,
            )
        assert excinfo.value.budget == "wall"
        assert excinfo.value.checkpoint is not None

    def test_budget_cycles_hold_while_fault_pending(
        self, testmodel, smc_program
    ):
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(smc_program)
        with pytest.raises(SimulationTimeout) as excinfo:
            FaultInjector().run_with_faults(
                simulator, [(10_000, lambda sim: None)],  # past the end
                max_cycles=100_000, budget=RunBudget(max_cycles=6),
            )
        assert excinfo.value.budget == "cycles"
        assert excinfo.value.cycles == 6

    def test_faults_annotate_errors_like_run(
        self, testmodel, testmodel_tools
    ):
        program = testmodel_tools.assembler.assemble_text(
            TestErrorAnnotation.BAD_BRANCH
        )
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(program)
        with pytest.raises(SimulationError) as excinfo:
            FaultInjector().run_with_faults(
                simulator, [(10_000, lambda sim: None)],
                max_cycles=10_000,
            )
        assert excinfo.value.sim_cycles is not None
        assert excinfo.value.sim_pc is not None

    def test_native_bursts_up_to_a_fault(self, fir_tinydsp):
        """A mid-run bit flip on ``native`` matches the interpretive run
        with the same plan, and every cycle still runs in bursts."""
        from repro.simcc.native import NativePipeline, native_available

        if not native_available():
            pytest.skip("no usable C compiler on the host")
        model, program = fir_tinydsp
        reference, ref_stats, ref_seen = _run_fir_with_flip(
            model, program, "interpretive"
        )
        native, stats, seen = _run_fir_with_flip(
            model, program, "unfolded_static", backend="native"
        )
        assert ref_seen == seen == [FLIP_CYCLE]
        assert (stats.cycles, stats.instructions) == \
            (ref_stats.cycles, ref_stats.instructions)
        assert native.state.snapshot() == reference.state.snapshot()
        unfaulted = create_simulator(model, "interpretive")
        unfaulted.load_program(program)
        unfaulted.run()
        assert unfaulted.state.snapshot() != reference.state.snapshot()

        engine = native.engine
        assert isinstance(engine, NativePipeline)
        assert not engine._python_pcs  # every packet is native
        assert engine.dispatch_counts["python_cycles"] == 0
        assert engine.dispatch_counts["native_cycles"] == stats.cycles


class TestAutosnapshotWallTime:
    def _snapshots(self, testmodel, smc_program):
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(smc_program)
        snapshots = []
        stats = simulator.run(
            max_cycles=10_000, budget=RunBudget(checkpoint_every=4),
            on_checkpoint=snapshots.append,
        )
        assert len(snapshots) >= 4
        return stats, snapshots

    def test_snapshots_carry_the_wall_time_so_far(
        self, testmodel, smc_program
    ):
        stats, snapshots = self._snapshots(testmodel, smc_program)
        walls = [snapshot.wall_seconds for snapshot in snapshots]
        assert all(wall > 0.0 for wall in walls)
        assert walls == sorted(walls)
        assert walls[-1] <= stats.wall_seconds

    def test_resumed_run_keeps_the_snapshot_wall_time(
        self, testmodel, smc_program
    ):
        _, snapshots = self._snapshots(testmodel, smc_program)
        snapshot = snapshots[len(snapshots) // 2]
        resumed = create_simulator(testmodel, "compiled")
        resumed.load_program(smc_program)
        resumed.restore(snapshot)
        stats = resumed.run(max_cycles=10_000)
        assert stats.wall_seconds >= snapshot.wall_seconds > 0.0
