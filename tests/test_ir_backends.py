"""Cross-backend and pass tests for the SimIR layer.

The tentpole guarantee of the IR refactor: the in-process code (the
portable table's shared namespace, and ``ir.compile_function`` for
fused static columns) and the standalone module emitter
(``ir.render_function_source``) consume the *same* lowered, post-pass
IR, so they are bit-identical by construction.  These tests check the construction:

* every supported application x model pair runs to identical
  architectural state and cycle counts on both backends,
* the optimisation passes fire where they should (and only there) --
  including dead-write elimination inside a fused static column,
* IR functions survive the payload round-trip the cache depends on,
* a cache entry written under a different format version is a clean
  miss, not an error,
* ``--dump-ir`` / ``Toolset.dump_ir`` render the post-pass IR.

The native C backend (``backend="native"``) extends the same guarantee
to a third consumer of the lowered IR: compiled burst kernels must be
bit-identical to both Python backends over the full matrix, fall back
cleanly when no toolchain exists, and round-trip checkpoints against
the Python engines.
"""

from __future__ import annotations

import os

import pytest

from repro.apps import build_adpcm, build_fir, build_gsm, build_synthetic
from repro.behavior.evaluator import execute_behavior
from repro.bench import load_app_program
from repro.lisa.semantics import compile_source
from repro.machine.control import PipelineControl
from repro.machine.driver import Pipeline
from repro.machine.state import ProcessorState
from repro.sim import create_simulator
from repro.simcc import ir
from repro.simcc.cache import SimulationCache
from repro.simcc.emit import emit_simulator_module
from repro.simcc.native import NativePipeline, native_available


# -- the app x model cross-backend matrix ------------------------------------

# Every application on every model that can host it: the FIR generator
# targets all three shipped models; the ADPCM and GSM workloads are
# c62x-only (their builders raise for other models).
APP_MATRIX = [
    ("fir-c62x", lambda: build_fir("c62x", taps=4, samples=8)),
    ("fir-c54x", lambda: build_fir("c54x", taps=4, samples=8)),
    ("fir-tinydsp", lambda: build_fir("tinydsp", taps=4, samples=8)),
    ("adpcm-c62x", lambda: build_adpcm(samples=16)),
    ("gsm-c62x", lambda: build_gsm(target_words=1024)),
]


def _run_module_backend(model, program, max_cycles=10_000_000):
    """Execute ``program`` through an emitted standalone module."""
    source = emit_simulator_module(model, program, level="instantiated")
    namespace = {"__name__": "simir_emitted"}
    exec(compile(source, "<simir-emitted>", "exec"), namespace)
    state = ProcessorState(model)
    control = PipelineControl()
    namespace["PROGRAM"].load_into(state)
    frontend = namespace["make_frontend"](state, control)
    pipe = Pipeline(model, state, control, frontend)
    pipe.run_chunk(max_cycles)
    return state, pipe.cycles


@pytest.mark.parametrize(
    "builder", [entry[1] for entry in APP_MATRIX],
    ids=[entry[0] for entry in APP_MATRIX],
)
class TestCrossBackendBitExactness:
    """Exec backend vs emitted module, over the full app matrix."""

    def test_state_and_cycles_identical(self, builder):
        app = builder()
        model, program = load_app_program(app)

        reference = create_simulator(model, "unfolded")
        reference.load_program(program)
        reference.run()
        app.verify(reference.state)  # golden-model check on the reference

        state, cycles = _run_module_backend(model, program)

        assert state.differences(reference.state) == []
        assert cycles == reference.cycles
        app.verify(state)

    def test_column_fusion_matches_dynamic(self, builder):
        """Level-3 static column fusion is also IR-driven; it must not
        change results either."""
        app = builder()
        model, program = load_app_program(app)

        reference = create_simulator(model, "unfolded")
        reference.load_program(program)
        reference.run()

        fused = create_simulator(model, "unfolded_static")
        fused.load_program(program)
        fused.run()

        assert fused.state.differences(reference.state) == []
        assert fused.cycles == reference.cycles


# -- column dead-write elimination -------------------------------------------

# A model crafted so that an older instruction's write-back (WB) to ACC
# lands in the same cycle as a younger instruction's execute-stage (EX)
# write to ACC.  The hazard boundary ``s_old == d + s_young`` (3 == 1+2)
# is proven hazard-free, the column composes statically, and -- because
# fused columns run oldest instruction first -- the older write is dead.
DCE_MODEL_SOURCE = r"""
MODEL dcemodel;
RESOURCE {
    PROGRAM_COUNTER uint32 PC;
    REGISTER int16 ACC;
    MEMORY uint16 pmem[256];
    PIPELINE pipe = { FE; DE; EX; WB };
}
CONFIG {
    WORDSIZE(16);
    PROGRAM_MEMORY(pmem);
    ROOT(insn);
    EXECUTE_STAGE(EX);
    BRANCH_POLICY(flush);
}

OPERATION seta IN pipe.EX {
    CODING { 0b0001 0b00000000000 }
    SYNTAX { "seta" }
    BEHAVIOR { }
    ACTIVATION { seta_wb }
}

OPERATION seta_wb IN pipe.WB {
    BEHAVIOR { ACC = 1; }
}

OPERATION setb IN pipe.EX {
    CODING { 0b0010 0b00000000000 }
    SYNTAX { "setb" }
    BEHAVIOR { ACC = 2; }
}

OPERATION halt_op IN pipe.EX {
    CODING { 0b0101 0b00000000000 }
    SYNTAX { "halt" }
    BEHAVIOR { halt(); }
}

OPERATION nop IN pipe.EX {
    CODING { 0b0000 0b00000000000 }
    SYNTAX { "nop" }
    BEHAVIOR { }
}

OPERATION insn {
    DECLARE { GROUP op = { nop || seta || setb || halt_op }; LABEL mode; }
    CODING { mode[1] op }
    SYNTAX { op }
    ACTIVATION { op }
}
"""

DCE_PROGRAM = """
start:  seta
        setb
        nop
        nop
        nop
        nop
        halt
"""


class TestColumnDeadWriteElimination:
    @pytest.fixture(scope="class")
    def dce_model(self):
        return compile_source(DCE_MODEL_SOURCE, "dcemodel.lisa")

    @pytest.fixture(scope="class")
    def dce_program(self, dce_model):
        from repro.api import build_toolset

        return build_toolset(dce_model).assembler.assemble_text(
            DCE_PROGRAM, name="dce"
        )

    def test_dead_write_removed_in_fused_column(self, dce_model,
                                                dce_program):
        sim = create_simulator(dce_model, "unfolded_static")
        sim.load_program(dce_program)
        sim.run()
        # The cycle with seta in WB and setb in EX fused into one
        # column; seta's ACC write is superseded within the column.
        assert sim.column_stats.get("dead_writes_removed", 0) > 0
        assert sim.state.ACC == 2

    def test_fusion_preserves_results(self, dce_model, dce_program):
        reference = create_simulator(dce_model, "unfolded")
        reference.load_program(dce_program)
        reference.run()

        fused = create_simulator(dce_model, "unfolded_static")
        fused.load_program(dce_program)
        fused.run()

        assert fused.state.differences(reference.state) == []
        assert fused.cycles == reference.cycles

    def test_optimize_column_drops_superseded_write(self, testmodel):
        """Unit-level: two same-cell writes in one column, the earlier
        one (older instruction) is eliminated; distinct cells survive."""
        ops = (
            ir.WriteReg("ACC", ir.Const(1), width=16, signed=True),
            ir.WriteReg("ACC", ir.Const(2), width=16, signed=True),
            ir.WriteElem("R", ir.Const(0), ir.Const(3),
                         width=32, signed=True),
        )
        stats = ir.PassStats()
        func = ir.optimize_column("column_t", list(ops), testmodel,
                                  stats=stats)
        assert stats.get("dead_writes_removed", 0) == 1
        writes = [op for op in func.ops
                  if isinstance(op, (ir.WriteReg, ir.WriteElem))]
        assert len(writes) == 2
        assert {ir.write_cell(op)[0] for op in writes} == {"ACC", "R"}
        # The surviving ACC write is the younger instruction's.
        acc = next(op for op in writes if isinstance(op, ir.WriteReg))
        assert acc.value == ir.Const(2)


# -- pass unit tests ----------------------------------------------------------


class TestPasses:
    def _run(self, ops, model):
        func = ir.IRFunction(name="t", ops=list(ops))
        stats = ir.PassStats()
        func = ir.run_passes(func, model, stats=stats)
        return func, stats

    def test_constant_folding_folds_arithmetic(self, testmodel):
        func, stats = self._run(
            [ir.WriteLocal("x", ir.Alu("+", ir.Const(2), ir.Const(3))),
             ir.WriteReg("ACC", ir.ReadLocal("x"), width=16, signed=True)],
            testmodel,
        )
        assert stats.get("const_folds", 0) > 0
        local = next(op for op in func.ops
                     if isinstance(op, ir.WriteLocal))
        assert local.value == ir.Const(5)

    def test_constant_folding_preserves_traps(self, testmodel):
        """Division by a constant zero must stay a run-time trap."""
        func, _ = self._run(
            [ir.WriteReg(
                "ACC", ir.Alu("/", ir.Const(1), ir.Const(0)),
                width=16, signed=True,
            )],
            testmodel,
        )
        (write,) = func.ops
        assert not isinstance(write.value, ir.Const)

    def test_coalesce_canonicalisation_on_const(self, testmodel):
        """A constant store is canonicalised at compile time: the write
        becomes raw (width=None) with the wrapped value."""
        func, _ = self._run(
            [ir.WriteReg("ACC", ir.Const(0xFFFF), width=16, signed=True)],
            testmodel,
        )
        (write,) = func.ops
        assert write.width is None
        assert isinstance(write.value, ir.Const)
        assert write.value.value == -1

    def test_dead_local_write_eliminated(self, testmodel):
        func, stats = self._run(
            [ir.WriteLocal("unused", ir.Const(7)),
             ir.WriteReg("ACC", ir.Const(1), width=16, signed=True)],
            testmodel,
        )
        assert stats.get("dead_writes_removed", 0) >= 1
        assert not any(
            isinstance(op, ir.WriteLocal) for op in func.ops
        )

    def test_helper_hoisting(self, testmodel):
        func, _ = self._run(
            [ir.WriteReg(
                "ACC",
                ir.Alu("/", ir.ReadReg("ACC"), ir.Const(3)),
                width=16, signed=True,
            )],
            testmodel,
        )
        assert "__idiv" in func.helpers
        source = ir.render_function_source(func)
        assert "__idiv" in source


# -- IR payload round-trip ----------------------------------------------------


class TestPayloadRoundTrip:
    def test_function_payload_round_trip(self, testmodel, testmodel_tools):
        from repro.simcc.portable import build_portable_table

        program = testmodel_tools.assembler.assemble_text("""
        ldi r1, 21
        add r2, r1, r1
        st r2, 7
        halt
        """)
        portable = build_portable_table(testmodel, program,
                                        level="instantiated")
        assert portable.functions
        for func in portable.functions:
            clone = ir.function_from_payload(ir.function_to_payload(func))
            assert clone == func
            assert (ir.render_function_source(clone)
                    == ir.render_function_source(func))

    def test_marshal_compatible(self, testmodel, testmodel_tools):
        """Payloads must survive ``marshal`` (the cache's format)."""
        import marshal

        from repro.simcc.portable import build_portable_table

        program = testmodel_tools.assembler.assemble_text("""
        ldi r1, 3
        halt
        """)
        portable = build_portable_table(testmodel, program,
                                        level="instantiated")
        for func in portable.functions:
            payload = ir.function_to_payload(func)
            assert marshal.loads(marshal.dumps(payload)) == payload


# -- cache format versioning --------------------------------------------------


class TestCacheFormatVersion:
    def test_older_format_entry_is_clean_miss(self, testmodel,
                                              testmodel_tools, tmp_path):
        """An entry whose payload says format 2 (e.g. written by an
        older build into this version's namespace) is a miss -- not an
        exception, and not quarantined as corruption."""
        import os

        from repro.simcc.cache import (
            SimulationCache, entry_bytes, entry_payload, table_digest,
        )

        program = testmodel_tools.assembler.assemble_text("""
        ldi r1, 5
        halt
        """)
        cache = SimulationCache(tmp_path / "simtab")
        sim = create_simulator(testmodel, "unfolded", cache=cache)
        sim.load_program(program)
        sim.run()
        assert cache.stats["stores"] == 1

        digest = table_digest(testmodel, program, "instantiated")
        path = cache.entry_path(digest)
        with open(path, "rb") as handle:
            blob = handle.read()
        payload = entry_payload(blob)
        payload["meta"]["format"] = 2
        with open(path, "wb") as handle:
            handle.write(entry_bytes(payload))

        reopened = SimulationCache(cache.root)
        assert reopened.load_portable(
            testmodel, program, "instantiated"
        ) is None
        assert reopened.stats["misses"] == 1
        assert reopened.stats["corrupt_entries"] == 0
        assert os.path.exists(path)  # left alone, not quarantined

        # And a full reload recompiles and runs identically.
        fresh = create_simulator(testmodel, "unfolded", cache=reopened)
        fresh.load_program(program)
        fresh.run()
        assert fresh.state.differences(sim.state) == []


# -- native C backend ---------------------------------------------------------

# Bit-exactness needs the host toolchain; the fallback tests need its
# absence (``CC=""`` is the toolchain discovery's explicit disable).
needs_cc = pytest.mark.skipif(
    not native_available(), reason="no usable C compiler on the host"
)


@needs_cc
@pytest.mark.parametrize(
    "builder", [entry[1] for entry in APP_MATRIX],
    ids=[entry[0] for entry in APP_MATRIX],
)
def test_native_backend_matches_reference(builder):
    """Native bursts vs the exec backend, over the full app matrix."""
    app = builder()
    model, program = load_app_program(app)

    reference = create_simulator(model, "unfolded")
    reference.load_program(program)
    reference.run()
    app.verify(reference.state)

    native = create_simulator(model, "unfolded_static", backend="native")
    native.load_program(program)
    native.run()

    assert isinstance(native.engine, NativePipeline)
    assert native.state.differences(reference.state) == []
    assert native.cycles == reference.cycles
    app.verify(native.state)
    counts = native.engine.dispatch_counts
    assert counts["bursts"] > 0
    assert counts["native_cycles"] > 0


@needs_cc
@pytest.mark.parametrize(
    "kind", ["compiled", "static", "unfolded", "unfolded_static"]
)
def test_native_backend_all_table_kinds(kind):
    """Every table-based kind can host the native engine."""
    app = build_fir("c62x", taps=4, samples=8)
    model, program = load_app_program(app)

    reference = create_simulator(model, kind)
    reference.load_program(program)
    reference.run()

    native = create_simulator(model, kind, backend="native")
    native.load_program(program)
    native.run()

    assert native.state.differences(reference.state) == []
    assert native.cycles == reference.cycles
    assert native.engine.dispatch_counts["bursts"] > 0


@needs_cc
def test_native_checkpoint_round_trips_both_directions():
    """A checkpoint taken mid-burst restores onto the Python engine and
    vice versa, finishing bit-identically to a straight-through run."""
    app = build_fir("c62x", taps=4, samples=8)
    model, program = load_app_program(app)

    straight = create_simulator(model, "unfolded_static", backend="native")
    straight.load_program(program)
    straight.run()

    for head_backend, tail_backend in (("native", "auto"),
                                       ("auto", "native")):
        head = create_simulator(model, "unfolded_static",
                                backend=head_backend)
        head.load_program(program)
        head.engine.run_chunk(250)
        snapshot = head.checkpoint()

        tail = create_simulator(model, "unfolded_static",
                                backend=tail_backend)
        tail.load_program(program)
        tail.restore(snapshot)
        tail.run()

        assert tail.state.differences(straight.state) == []
        assert tail.cycles == straight.cycles
        if tail_backend == "native":
            # Bursts must resume after a restore, not just survive it.
            assert tail.engine.dispatch_counts["native_cycles"] > 0


# -- one table route per level -------------------------------------------------

ROUTE_PROGRAMS = [
    ("fir-c62x", lambda: build_fir("c62x", taps=4, samples=8)),
    ("synthetic-c62x",
     lambda: build_synthetic("c62x", target_words=128, loop_iterations=4)),
]


@pytest.fixture(scope="module")
def route_cache_root(tmp_path_factory):
    return tmp_path_factory.mktemp("route-cache")


@pytest.mark.parametrize("cached", [False, True],
                         ids=["no-cache", "warm-cache"])
@pytest.mark.parametrize("backend", ["auto", "native"])
@pytest.mark.parametrize(
    "kind", ["compiled", "static", "unfolded", "unfolded_static"]
)
@pytest.mark.parametrize(
    "builder", [entry[1] for entry in ROUTE_PROGRAMS],
    ids=[entry[0] for entry in ROUTE_PROGRAMS],
)
def test_table_route_python_and_native(builder, kind, backend, cached,
                                       route_cache_root):
    """Every table kind, backend and cache state runs bit-exact against
    the interpretive reference, on the route ``build_simulation_table``
    prescribes: only level 2 on the Python path without a cache is the
    direct table of AST-evaluated operations (``partial``s of
    ``execute_behavior``; no IR, no proofs); every other table is a
    bound portable table carrying both."""
    app = builder()
    model, program = load_app_program(app)
    reference = create_simulator(model, "interpretive")
    reference.load_program(program)
    reference_stats = reference.run()

    cache = None
    if cached:
        create_simulator(
            model, kind, cache=SimulationCache(route_cache_root),
            backend=backend,
        ).load_program(program)
        cache = SimulationCache(route_cache_root)  # fresh LRU: disk hit
    simulator = create_simulator(model, kind, cache=cache, backend=backend)
    simulator.load_program(program)
    stats = simulator.run()

    assert simulator.state.differences(reference.state) == []
    assert stats.cycles == reference_stats.cycles
    assert stats.instructions == reference_stats.instructions
    if cached:
        assert cache.stats["misses"] == 0
    if backend == "native" and native_available():
        assert isinstance(simulator.engine, NativePipeline)

    table = simulator.table
    direct = (kind in ("compiled", "static") and backend == "auto"
              and not cached)
    assert (table.ir_by_stage is None) == direct
    assert (table.proofs is None) == direct
    bound_behaviors = {
        getattr(op, "func", None) is execute_behavior
        for slot in table.slots.values()
        for ops in slot.ops_by_stage
        for op in ops
    }
    assert bound_behaviors == {direct}


class TestNativeBackendFallback:
    """Degradation must be silent, observable and bit-exact."""

    def test_no_toolchain_is_clean_fallback(self, monkeypatch):
        from repro import obs

        monkeypatch.setenv("CC", "")  # explicit toolchain disable
        assert not native_available()

        app = build_fir("tinydsp", taps=4, samples=8)
        model, program = load_app_program(app)

        reference = create_simulator(model, "unfolded_static")
        reference.load_program(program)
        reference.run()

        sink = obs.ListSink()
        sim = create_simulator(model, "unfolded_static", backend="native",
                               observer=obs.Observer(sinks=(sink,)))
        sim.load_program(program)
        sim.run()

        # Unwrapped engine, identical results, exactly one warning event.
        assert not isinstance(sim.engine, NativePipeline)
        assert sim.state.differences(reference.state) == []
        assert sim.cycles == reference.cycles
        fallbacks = [event for event in sink.events
                     if event.kind == obs.NATIVE_FALLBACK]
        assert len(fallbacks) == 1
        assert "no C compiler" in fallbacks[0].args["reason"]

    def test_backend_validation(self, testmodel, capsys):
        from repro.cli import sim_main
        from repro.support.errors import ReproError

        for backend in ("jit", "module", "python"):
            with pytest.raises(ReproError,
                               match="unknown simulation backend"):
                create_simulator(testmodel, "unfolded", backend=backend)
        with pytest.raises(ReproError, match="table-based"):
            create_simulator(testmodel, "interpretive", backend="native")
        with pytest.raises(SystemExit) as excinfo:
            sim_main(["tinydsp", "program.asm", "--backend", "python"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'python'" in capsys.readouterr().err


@needs_cc
class TestCachelessNativeBuild:
    """Without a cache, identical C compiles once per process and no
    build directory outlives the load, whether the compile succeeds or
    fails."""

    @pytest.fixture()
    def private_tmp(self, tmp_path, monkeypatch):
        import tempfile

        from repro.simcc.native import backend

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(backend, "_LOADED", {})
        return tmp_path

    @staticmethod
    def _build_dirs(tmp):
        return [name for name in os.listdir(tmp)
                if name.startswith("repro-native-")]

    @staticmethod
    def _run(model, program, backend, observer=None):
        simulator = create_simulator(model, "unfolded_static",
                                     backend=backend, observer=observer)
        simulator.load_program(program)
        simulator.run()
        return simulator

    def test_identical_builds_compile_once(self, private_tmp, monkeypatch):
        from repro import obs
        from repro.simcc.native import toolchain

        compiles = []
        real_compile = toolchain.compile_shared

        def counting(*args):
            compiles.append(args)
            return real_compile(*args)

        monkeypatch.setattr(toolchain, "compile_shared", counting)
        model, program = load_app_program(build_fir("c62x", taps=4,
                                                    samples=8))
        reference = self._run(model, program, "auto")
        sink = obs.ListSink()
        for _ in range(3):
            native = self._run(model, program, "native",
                               obs.Observer(sinks=(sink,), mode="counters"))
            assert isinstance(native.engine, NativePipeline)
            assert native.engine.dispatch_counts["bursts"] > 0
            assert native.state.differences(reference.state) == []
            assert native.cycles == reference.cycles
        assert len(compiles) == 1
        assert self._build_dirs(private_tmp) == []
        outcomes = [event.args["outcome"] for event in sink.events
                    if event.kind == obs.NATIVE]
        assert outcomes == ["compile", "load", "load"]

    def test_failed_compile_leaves_nothing(self, private_tmp, monkeypatch):
        from repro import obs
        from repro.simcc.native import toolchain

        def failing(cc, c_path, so_path):
            with open(so_path, "wb") as handle:
                handle.write(b"partial")
            raise toolchain.NativeToolchainError("compilation failed")

        monkeypatch.setattr(toolchain, "compile_shared", failing)
        model, program = load_app_program(build_fir("tinydsp", taps=4,
                                                    samples=8))
        reference = self._run(model, program, "auto")
        sink = obs.ListSink()
        native = self._run(model, program, "native",
                           obs.Observer(sinks=(sink,), mode="counters"))
        assert not isinstance(native.engine, NativePipeline)
        assert native.state.differences(reference.state) == []
        assert self._build_dirs(private_tmp) == []
        fallbacks = [event for event in sink.events
                     if event.kind == obs.NATIVE_FALLBACK]
        assert len(fallbacks) == 1
        assert "compilation failed" in fallbacks[0].args["reason"]


class TestDumpC:
    def test_cli_dump_c(self, tmp_path, capsys):
        from repro.cli import sim_main

        app = build_fir("tinydsp", taps=4, samples=8)
        asm = tmp_path / "fir.asm"
        asm.write_text(app.source)
        rc = sim_main(["tinydsp", str(asm), "--dump-c"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "native rendering" in out
        assert "/* pc=0x" in out
        # Dump replaces simulation: no run summary is printed.
        assert "halted" not in out


# -- IR dump ------------------------------------------------------------------


class TestDumpIR:
    def test_toolset_dump_ir(self, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
        ldi r1, 21
        add r2, r1, r1
        st r2, 7
        halt
        """, name="dumped")
        text = testmodel_tools.dump_ir(program)
        assert "SimIR dump" in text
        assert "packet 0x" in text
        assert "insn_0_stage_2" in text
        # ldi's sign-extended immediate folded to a constant store.
        assert "21" in text

    def test_cli_dump_ir(self, tmp_path, capsys):
        from repro.apps import build_fir
        from repro.cli import sim_main

        app = build_fir("tinydsp", taps=4, samples=8)
        asm = tmp_path / "fir.asm"
        asm.write_text(app.source)
        rc = sim_main(["tinydsp", str(asm), "--dump-ir"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SimIR dump" in out
        assert "packet 0x" in out
        # Dump replaces simulation: no run summary is printed.
        assert "halted" not in out
