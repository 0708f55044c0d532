"""Tests for the persistent simulation-table cache.

Covers the cache contract end to end: content addressing (hits), exact
invalidation (model edit, program edit, level change, format bump),
corrupted-entry recovery, and the bit-identity guarantee between cached
and freshly compiled simulation.
"""

from __future__ import annotations

import os
import uuid

import pytest

from repro.lisa.semantics import compile_source
from repro.machine.control import PipelineControl
from repro.machine.state import ProcessorState
from repro.sim import create_simulator
from repro.simcc import cache as cache_mod
from repro.simcc.cache import SimulationCache, model_digest, table_digest
from repro.simcc.generator import generate_simulation_compiler
from repro.simcc.native import native_available
from repro.simcc.portable import build_portable_table
from tests.conftest import TESTMODEL_SOURCE
from tests.test_ir_backends import APP_MATRIX

PROGRAM_TEXT = """
start:  ldi r1, 5
        ldi r2, 7
        add r3, r1, r2
        st r3, 9
        halt
"""


@pytest.fixture(scope="module")
def program(testmodel_tools):
    return testmodel_tools.assembler.assemble_text(PROGRAM_TEXT)


@pytest.fixture
def cache(tmp_path):
    return SimulationCache(tmp_path / "simtab")


def _fresh_engine(testmodel, program):
    state = ProcessorState(testmodel)
    control = PipelineControl()
    program.load_into(state)
    return state, control


def _load(testmodel, program, cache, level="sequenced"):
    simcc = generate_simulation_compiler(testmodel, validate=False)
    state, control = _fresh_engine(testmodel, program)
    return cache.load_table(simcc, program, state, control, level=level)


class TestHitMiss:
    def test_cold_load_misses_and_stores(self, testmodel, program, cache):
        table = _load(testmodel, program, cache)
        assert table.word_count == 5
        assert cache.stats["misses"] == 1
        assert cache.stats["stores"] == 1
        assert cache.stats["memory_hits"] == 0
        assert cache.stats["disk_hits"] == 0

    def test_entry_lands_at_content_address(self, testmodel, program, cache):
        import os

        _load(testmodel, program, cache)
        digest = table_digest(testmodel, program, "sequenced")
        assert os.path.exists(cache.entry_path(digest))

    def test_second_load_hits_memory(self, testmodel, program, cache):
        _load(testmodel, program, cache)
        _load(testmodel, program, cache)
        assert cache.stats["memory_hits"] == 1
        assert cache.stats["misses"] == 1

    def test_fresh_process_hits_disk(self, testmodel, program, cache):
        _load(testmodel, program, cache)
        reopened = SimulationCache(cache.root)
        _load(testmodel, program, reopened)
        assert reopened.stats["disk_hits"] == 1
        assert reopened.stats["misses"] == 0

    def test_memory_lru_evicts_oldest(self, testmodel, program,
                                      testmodel_tools, tmp_path):
        small = SimulationCache(tmp_path / "lru", max_memory_entries=1)
        other = testmodel_tools.assembler.assemble_text("""
        ldi r1, 1
        halt
        """)
        _load(testmodel, program, small)
        _load(testmodel, other, small)   # evicts `program`
        _load(testmodel, program, small)
        assert small.stats["memory_hits"] == 0
        assert small.stats["disk_hits"] == 1


class TestInvalidation:
    def test_model_edit_changes_digest(self, testmodel, program):
        edited_source = TESTMODEL_SOURCE.replace(
            "BEHAVIOR { dst = src1 + src2; }",
            "BEHAVIOR { dst = src1 + src2 + 1; }",
        )
        assert edited_source != TESTMODEL_SOURCE
        edited = compile_source(edited_source, "edited.lisa")
        assert model_digest(edited) != model_digest(testmodel)
        assert (table_digest(edited, program, "sequenced")
                != table_digest(testmodel, program, "sequenced"))

    def test_model_edit_misses(self, testmodel, program, cache):
        _load(testmodel, program, cache)
        edited = compile_source(
            TESTMODEL_SOURCE.replace("dst = sext(imm, 8);",
                                     "dst = sext(imm + 1, 8);"),
            "edited.lisa",
        )
        _load(edited, program, cache)
        assert cache.stats["misses"] == 2
        assert cache.stats["stores"] == 2

    def test_program_edit_misses(self, testmodel, program,
                                 testmodel_tools, cache):
        _load(testmodel, program, cache)
        edited = testmodel_tools.assembler.assemble_text(
            PROGRAM_TEXT.replace("ldi r1, 5", "ldi r1, 6")
        )
        _load(testmodel, edited, cache)
        assert cache.stats["misses"] == 2

    def test_level_change_misses(self, testmodel, program, cache):
        _load(testmodel, program, cache, level="sequenced")
        _load(testmodel, program, cache, level="instantiated")
        assert cache.stats["misses"] == 2
        assert (table_digest(testmodel, program, "sequenced")
                != table_digest(testmodel, program, "instantiated"))

    def test_format_bump_misses(self, testmodel, program, cache,
                                monkeypatch):
        _load(testmodel, program, cache)
        monkeypatch.setattr(cache_mod, "FORMAT_VERSION",
                            cache_mod.FORMAT_VERSION + 1)
        reopened = SimulationCache(cache.root)
        _load(testmodel, program, reopened)
        assert reopened.stats["disk_hits"] == 0
        assert reopened.stats["misses"] == 1


class TestCorruption:
    def _entry_path(self, testmodel, program, cache):
        return cache.entry_path(
            table_digest(testmodel, program, "sequenced")
        )

    def test_garbage_entry_recovers(self, testmodel, program, cache):
        import os

        _load(testmodel, program, cache)
        path = self._entry_path(testmodel, program, cache)
        with open(path, "wb") as handle:
            handle.write(b"repro-simtab\nnot marshal data")
        reopened = SimulationCache(cache.root)
        table = _load(testmodel, program, reopened)
        assert table.word_count == 5
        assert reopened.stats["corrupt_entries"] == 1
        assert reopened.stats["misses"] == 1
        assert reopened.stats["stores"] == 1
        # The corrupt file was quarantined, then replaced by the store.
        assert os.path.exists(path)

    def test_bad_magic_quarantined(self, testmodel, program, cache):
        import os

        _load(testmodel, program, cache)
        path = self._entry_path(testmodel, program, cache)
        with open(path, "wb") as handle:
            handle.write(b"something else entirely")
        reopened = SimulationCache(cache.root, max_memory_entries=0)
        assert reopened.load_portable(testmodel, program,
                                      "sequenced") is None
        assert reopened.stats["corrupt_entries"] == 1
        assert not os.path.exists(path)

    def test_unwritable_store_degrades_to_uncached(self, testmodel,
                                                   program, tmp_path):
        # Cache root is a regular file: every disk store fails, but
        # simulation must proceed (and the in-process LRU still works).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        broken = SimulationCache(blocker)
        table = _load(testmodel, program, broken)
        assert table.word_count == 5
        assert broken.stats["store_errors"] == 1
        assert broken.stats["stores"] == 0
        _load(testmodel, program, broken)
        assert broken.stats["memory_hits"] == 1

    def test_truncated_entry_recovers(self, testmodel, program, cache):
        _load(testmodel, program, cache)
        path = self._entry_path(testmodel, program, cache)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        reopened = SimulationCache(cache.root)
        table = _load(testmodel, program, reopened)
        assert table.word_count == 5
        assert reopened.stats["corrupt_entries"] == 1


class TestExecutionEquality:
    """Cached simulations must be bit-identical to fresh compiles."""

    @pytest.mark.parametrize(
        "kind", ["compiled", "static", "unfolded", "unfolded_static"]
    )
    def test_cached_matches_uncached(self, testmodel, program, tmp_path,
                                     kind):
        reference = create_simulator(testmodel, kind)
        reference.load_program(program)
        ref_stats = reference.run()

        cold = SimulationCache(tmp_path / "eq")
        warm = SimulationCache(tmp_path / "eq")  # fresh LRU: forces disk
        for cache in (cold, warm):
            simulator = create_simulator(testmodel, kind, cache=cache)
            simulator.load_program(program)
            stats = simulator.run()
            assert stats.cycles == ref_stats.cycles
            assert stats.instructions == ref_stats.instructions
            assert simulator.state.differences(reference.state) == []
        assert cold.stats["stores"] == 1
        assert warm.stats["disk_hits"] == 1


class TestFormatV3Migration:
    """Format 4 added native artifacts: a v3 entry that strayed into
    this version's namespace must read as a clean miss -- not an error,
    not quarantined -- exactly like the v2 entries before it."""

    def test_v3_entry_is_clean_miss(self, testmodel, program, cache):
        import os

        _load(testmodel, program, cache)
        path = cache.entry_path(
            table_digest(testmodel, program, "sequenced")
        )
        with open(path, "rb") as handle:
            blob = handle.read()
        payload = cache_mod.entry_payload(blob)
        payload["meta"]["format"] = 3
        with open(path, "wb") as handle:
            handle.write(cache_mod.entry_bytes(payload))

        reopened = SimulationCache(cache.root, max_memory_entries=0)
        assert reopened.load_portable(testmodel, program,
                                      "sequenced") is None
        assert reopened.stats["misses"] == 1
        assert reopened.stats["corrupt_entries"] == 0
        assert os.path.exists(path)  # left alone, not quarantined

        # A full reload recompiles and republishes over it.
        table = _load(testmodel, program, reopened)
        assert table.word_count == 5
        assert reopened.stats["stores"] == 1


class TestFormatV4Migration:
    """Format 5 added persisted absint proofs: a v4 entry in this
    version's namespace must read as one clean miss, reported through
    the observer as a single ``prior_format`` cache event -- mirroring
    the v3 behaviour before it."""

    def _downgrade(self, testmodel, program, cache):
        _load(testmodel, program, cache)
        path = cache.entry_path(
            table_digest(testmodel, program, "sequenced")
        )
        with open(path, "rb") as handle:
            blob = handle.read()
        payload = cache_mod.entry_payload(blob)
        payload["meta"]["format"] = 4
        with open(path, "wb") as handle:
            handle.write(cache_mod.entry_bytes(payload))
        return path

    def test_v4_entry_is_clean_miss(self, testmodel, program, cache):
        import os

        path = self._downgrade(testmodel, program, cache)
        reopened = SimulationCache(cache.root, max_memory_entries=0)
        assert reopened.load_portable(testmodel, program,
                                      "sequenced") is None
        assert reopened.stats["misses"] == 1
        assert reopened.stats["format_misses"] == 1
        assert reopened.stats["corrupt_entries"] == 0
        assert os.path.exists(path)  # left alone, not quarantined

        # A full reload recompiles and republishes over it.
        table = _load(testmodel, program, reopened)
        assert table.word_count == 5
        assert reopened.stats["stores"] == 1

    def test_prior_format_miss_emits_one_flagged_event(
        self, testmodel, program, cache
    ):
        from repro import obs

        self._downgrade(testmodel, program, cache)
        reopened = SimulationCache(cache.root, max_memory_entries=0)
        sink = obs.ListSink()
        observer = obs.Observer(sinks=(sink,))
        simcc = generate_simulation_compiler(testmodel, validate=False)
        state, control = _fresh_engine(testmodel, program)
        reopened.load_table(simcc, program, state, control,
                            level="sequenced", observer=observer)
        misses = [event for event in sink.events
                  if event.kind == obs.CACHE
                  and event.args["outcome"] == "miss"]
        assert len(misses) == 1
        assert misses[0].args.get("prior_format") is True

    def test_current_format_miss_is_not_flagged(self, testmodel, program,
                                                cache):
        from repro import obs

        sink = obs.ListSink()
        observer = obs.Observer(sinks=(sink,))
        simcc = generate_simulation_compiler(testmodel, validate=False)
        state, control = _fresh_engine(testmodel, program)
        cache.load_table(simcc, program, state, control,
                         level="sequenced", observer=observer)
        misses = [event for event in sink.events
                  if event.kind == obs.CACHE
                  and event.args["outcome"] == "miss"]
        assert len(misses) == 1
        assert "prior_format" not in misses[0].args


class TestNativeArtifacts:
    """Native burst artifacts (.c + .so + metadata) in the cache."""

    KEY = "ab" * 32  # a well-formed sha256 hex key
    COMPILER = "fake-cc 1.0 | -O2 -shared -fPIC"
    PLAN = {"native_pcs": [0, 1]}  # the sidecar stores any JSON plan

    @staticmethod
    def _compile_fn(c_path, so_path):
        with open(so_path, "wb") as handle:
            handle.write(b"fake shared object")

    def _meta_path(self, so_path):
        return so_path[: -len(".so")] + ".json"

    def test_store_then_load_round_trips(self, cache):
        import os

        c_path, so_path = cache.store_native_artifact(
            self.KEY, self.COMPILER, "/* burst */", self.PLAN,
            self._compile_fn
        )
        assert cache.stats["native_stores"] == 1
        assert open(c_path).read() == "/* burst */"
        assert os.path.exists(so_path)
        assert cache.load_native_artifact(
            self.KEY, self.COMPILER
        ) == (so_path, self.PLAN)
        assert cache.stats["native_hits"] == 1

    def test_missing_artifact_is_miss(self, cache):
        assert cache.load_native_artifact(self.KEY, self.COMPILER) is None
        assert cache.stats["native_misses"] == 1

    def test_stale_compiler_identity_misses(self, cache):
        """A shared object built by another compiler version must never
        be loaded -- it misses and gets rebuilt."""
        cache.store_native_artifact(
            self.KEY, self.COMPILER, "/* burst */", self.PLAN,
            self._compile_fn
        )
        assert cache.load_native_artifact(
            self.KEY, "fake-cc 2.0 | -O2 -shared -fPIC"
        ) is None
        assert cache.stats["native_misses"] == 1
        # The exact identity still hits.
        assert cache.load_native_artifact(
            self.KEY, self.COMPILER
        ) is not None
        assert cache.stats["native_hits"] == 1

    @staticmethod
    def _fake_cc(path, version):
        path.write_text("#!/bin/sh\necho '%s'\n" % version)
        path.chmod(0o755)
        return str(path)

    def test_compiler_probe_runs_once_per_compiler_file(self, tmp_path,
                                                        monkeypatch):
        """Warm jobs reuse the identity; a replaced or touched compiler
        is probed again."""
        import os
        import subprocess

        from repro.simcc.native import toolchain

        probes = []
        real_run = subprocess.run

        def counting_run(cmd, *args, **kwargs):
            probes.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        cc = self._fake_cc(tmp_path / "cc", "fake-cc 1.0")
        first = toolchain.compiler_identity(cc)
        assert first == "fake-cc 1.0 | -O2 -shared -fPIC"
        assert toolchain.compiler_identity(cc) == first
        assert len(probes) == 1

        self._fake_cc(tmp_path / "cc", "fake-cc 2.0.1")
        assert toolchain.compiler_identity(cc).startswith("fake-cc 2.0.1 ")
        assert len(probes) == 2

        info = os.stat(cc)
        os.utime(cc, ns=(info.st_atime_ns, info.st_mtime_ns + 10 ** 9))
        toolchain.compiler_identity(cc)
        assert len(probes) == 3

    def test_stale_format_version_misses(self, cache):
        import json

        _, so_path = cache.store_native_artifact(
            self.KEY, self.COMPILER, "/* burst */", self.PLAN,
            self._compile_fn
        )
        meta_path = self._meta_path(so_path)
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["format"] = 3
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        assert cache.load_native_artifact(self.KEY, self.COMPILER) is None
        assert cache.stats["native_misses"] == 1

    def test_crashed_build_is_never_published(self, cache):
        """Metadata is written last: a compile that dies mid-way leaves
        no loadable artifact behind."""

        def boom(c_path, so_path):
            raise OSError("compiler exploded")

        with pytest.raises(OSError):
            cache.store_native_artifact(
                self.KEY, self.COMPILER, "/* burst */", self.PLAN, boom
            )
        assert cache.stats["native_stores"] == 0
        assert cache.load_native_artifact(self.KEY, self.COMPILER) is None

    def test_end_to_end_native_build_hits_cache(self, testmodel, program,
                                                cache):
        """Two native-backed simulators on one cache: the second loads
        the first's artifact instead of invoking the compiler."""
        from repro.simcc.native import native_available

        if not native_available():
            pytest.skip("no usable C compiler on the host")
        first = create_simulator(testmodel, "unfolded", cache=cache,
                                 backend="native")
        first.load_program(program)
        first.run()
        assert cache.stats["native_stores"] == 1

        second = create_simulator(testmodel, "unfolded", cache=cache,
                                  backend="native")
        second.load_program(program)
        second.run()
        assert cache.stats["native_stores"] == 1
        assert cache.stats["native_hits"] == 1
        assert second.state.differences(first.state) == []


def _race_store(root, rounds):
    """Worker for the concurrent-writer stress test (spawn-safe).

    Rebuilds the model and program from source (code objects do not
    pickle, so nothing compiled can cross the process boundary) and
    hammers ``store_portable`` on the one shared content address.
    """
    model = compile_source(TESTMODEL_SOURCE, "testmodel.lisa")
    from repro.api import build_toolset

    program = build_toolset(model).assembler.assemble_text(PROGRAM_TEXT)
    portable = build_portable_table(model, program)
    cache = SimulationCache(root, max_memory_entries=0)
    for _ in range(rounds):
        cache.store_portable(model, program, "sequenced", portable)
    if cache.stats["store_errors"]:
        raise RuntimeError(
            "store_errors=%d" % cache.stats["store_errors"]
        )


class TestConcurrentWriters:
    """Two processes racing ``store_portable`` on the same digest must
    never leave a torn entry: publication is atomic (write-to-temp then
    rename), so a reader always sees either nothing or a full entry."""

    def test_racing_stores_leave_coherent_entry(self, testmodel, program,
                                                tmp_path):
        import multiprocessing

        root = str(tmp_path / "shared-simtab")
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(target=_race_store, args=(root, 12))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        for worker in workers:
            assert not worker.is_alive(), "racing writer hung"
            assert worker.exitcode == 0

        # A fresh reader must get a clean disk hit -- no quarantine.
        reader = SimulationCache(root, max_memory_entries=0)
        table = _load(testmodel, program, reader)
        assert reader.stats["disk_hits"] == 1
        assert reader.stats["corrupt_entries"] == 0
        assert reader.stats["misses"] == 0
        assert table.word_count == 5

        # The surviving entry runs bit-identically to a fresh compile.
        reference = create_simulator(testmodel, "compiled")
        reference.load_program(program)
        reference.run()
        cached = create_simulator(
            testmodel, "compiled", cache=SimulationCache(root)
        )
        cached.load_program(program)
        cached.run()
        assert cached.state.differences(reference.state) == []

    def test_interleaved_store_and_load_same_process(self, testmodel,
                                                     program, tmp_path):
        # Two handles on one root: one stores while the other reads.
        root = tmp_path / "shared-simtab"
        writer = SimulationCache(root, max_memory_entries=0)
        reader = SimulationCache(root, max_memory_entries=0)
        assert reader.load_portable(testmodel, program, "sequenced") is None
        _load(testmodel, program, writer)
        assert (
            reader.load_portable(testmodel, program, "sequenced")
            is not None
        )
        assert reader.stats["corrupt_entries"] == 0


class TestFaultHarnessCorruption:
    """Cache damage injected through ``repro.resilience.faults``.

    Corruption (torn write, foreign file, bit rot) must quarantine:
    ``corrupt_entries`` counts it and the load degrades to a clean
    recompile.  A *format* mismatch is not corruption -- it is an entry
    written by another tool version -- so it must read as a clean miss
    with the file left alone.
    """

    @pytest.fixture
    def injector(self):
        from repro.resilience import FaultInjector

        return FaultInjector()

    @pytest.mark.parametrize("mode", ["truncate", "magic", "garbage"])
    def test_corruption_quarantines_and_recovers(self, testmodel, program,
                                                 cache, injector, mode):
        import os

        _load(testmodel, program, cache)
        path = injector.corrupt_cache_entry(
            cache, testmodel, program, mode=mode
        )
        reopened = SimulationCache(cache.root)
        table = _load(testmodel, program, reopened)
        assert reopened.stats["corrupt_entries"] == 1
        assert reopened.stats["disk_hits"] == 0
        assert reopened.stats["misses"] == 1
        assert table.word_count == 5
        # Quarantine unlinked the bad file; the recompile republished it.
        assert reopened.stats["stores"] == 1
        assert os.path.exists(path)
        final = SimulationCache(cache.root)
        _load(testmodel, program, final)
        assert final.stats["disk_hits"] == 1
        assert final.stats["corrupt_entries"] == 0

    def test_corrupting_missing_entry_raises(self, testmodel, program,
                                             cache, injector):
        from repro.support.errors import ReproError

        with pytest.raises(ReproError, match="no cache entry"):
            injector.corrupt_cache_entry(cache, testmodel, program)

    def test_format_spoof_is_clean_miss(self, testmodel, program, cache,
                                        injector):
        import os

        path = injector.spoof_cache_format(
            cache, testmodel, program, format_version=0
        )
        blob = open(path, "rb").read()
        reopened = SimulationCache(cache.root, max_memory_entries=0)
        assert reopened.load_portable(testmodel, program,
                                      "sequenced") is None
        assert reopened.stats["corrupt_entries"] == 0
        assert reopened.stats["misses"] == 1
        # The foreign-version entry is left exactly as written.
        assert os.path.exists(path)
        assert open(path, "rb").read() == blob

    def test_future_format_is_clean_miss(self, testmodel, program, cache,
                                         injector):
        injector.spoof_cache_format(
            cache, testmodel, program,
            format_version=cache_mod.FORMAT_VERSION + 7,
        )
        reopened = SimulationCache(cache.root)
        table = _load(testmodel, program, reopened)
        assert reopened.stats["corrupt_entries"] == 0
        assert reopened.stats["misses"] == 1
        assert table.word_count == 5

    def test_fault_log_records_cache_faults(self, testmodel, program,
                                            cache, injector):
        _load(testmodel, program, cache)
        injector.corrupt_cache_entry(cache, testmodel, program,
                                     mode="garbage")
        injector.spoof_cache_format(cache, testmodel, program)
        kinds = [entry["fault"] for entry in injector.log]
        assert kinds == ["cache_corruption", "cache_format_spoof"]


class TestTextKey:
    """Tables are keyed by the model's LISA text, so a warm lookup never
    serialises the model; checkpoints keep the model's content digest,
    which a comment-only edit leaves alone."""

    COMMENTED_SOURCE = TESTMODEL_SOURCE + "\n// a comment-only edit\n"

    @pytest.fixture
    def model_dumps(self, monkeypatch):
        calls = []
        dump = cache_mod.model_to_json

        def counting_dump(model, *args, **kwargs):
            calls.append(model.name)
            return dump(model, *args, **kwargs)

        monkeypatch.setattr(cache_mod, "model_to_json", counting_dump)
        return calls

    @pytest.mark.parametrize("reopen", [False, True],
                             ids=["memory", "disk"])
    def test_warm_load_never_dumps_the_model(self, program, cache,
                                             model_dumps, reopen):
        # A text no other test compiles, cold-loaded under another file
        # name (the table key is the text alone): compile_source hands
        # the warm load a model nothing has digested yet.
        source = TESTMODEL_SOURCE + "\n// %s\n" % uuid.uuid4().hex
        _load(compile_source(source, "cold.lisa"), program, cache)
        if reopen:
            cache = SimulationCache(cache.root)
        del model_dumps[:]
        fresh = compile_source(source, "testmodel.lisa")
        table = _load(fresh, program, cache)
        assert table.word_count == 5
        assert cache.stats["memory_hits" if not reopen else "disk_hits"] == 1
        assert model_dumps == []

    def test_ast_model_is_keyed_by_content(self, testmodel, program):
        from repro.lisa.parser import parse_source
        from repro.lisa.semantics import compile_ast

        built = compile_ast(
            parse_source(TESTMODEL_SOURCE, "testmodel.lisa"),
            "testmodel.lisa",
        )
        assert built.source_digest is None
        assert (table_digest(built, program, "sequenced")
                != table_digest(testmodel, program, "sequenced"))
        assert model_digest(built) == model_digest(testmodel)

    def test_comment_edit_moves_table_key_only(self, testmodel, program):
        edited = compile_source(self.COMMENTED_SOURCE, "testmodel.lisa")
        assert edited.source_digest != testmodel.source_digest
        assert model_digest(edited) == model_digest(testmodel)
        assert (table_digest(edited, program, "sequenced")
                != table_digest(testmodel, program, "sequenced"))

    @pytest.mark.parametrize("kind", ["interpretive", "unfolded_static"])
    def test_checkpoint_restores_across_comment_edit(self, testmodel,
                                                     program, kind):
        edited = compile_source(self.COMMENTED_SOURCE, "testmodel.lisa")
        reference = create_simulator(testmodel, kind)
        reference.load_program(program)
        expected = reference.run(max_cycles=1000).cycles
        for source_model, target_model in ((testmodel, edited),
                                           (edited, testmodel)):
            simulator = create_simulator(source_model, kind)
            simulator.load_program(program)
            simulator.step()
            simulator.step()
            checkpoint = simulator.checkpoint()
            resumed = create_simulator(target_model, kind)
            resumed.load_program(program)
            resumed.restore(checkpoint)
            assert resumed.run(max_cycles=1000).cycles == expected
            assert resumed.state.snapshot() == reference.state.snapshot()


class TestExistingEntriesStayWarm:
    """Entries of the current format stay warm: their digests are
    pinned, so only a format bump invalidates them, and a stored
    ``"window": None`` key (written by older writers) is ignored on
    load."""

    #: ``table_digest`` values of the test model/program at format 11,
    #: keyed by the LISA text.
    PINNED = {
        "sequenced":
            "0b73fd45101169c35d6916cf29ffe82a16648fdf8402374f442e17cfe97285d9",
        "instantiated":
            "4686a0be09204579962c0b8c8be5c90facfe41c429ca243caf2ac41456ca236f",
    }

    @pytest.mark.parametrize("level", sorted(PINNED))
    def test_digest_is_pinned(self, testmodel, program, level):
        assert cache_mod.FORMAT_VERSION == 11
        assert table_digest(testmodel, program, level) == self.PINNED[level]

    def test_payload_with_window_key_loads(self, testmodel, program, cache):
        import os
        import sys

        portable = build_portable_table(testmodel, program)
        digest = table_digest(testmodel, program, "sequenced")
        table = dict(portable.to_payload(), window=None)
        payload = {
            "meta": {
                "format": cache_mod.FORMAT_VERSION,
                "python": "%d.%d" % sys.version_info[:2],
                "digest": digest,
                "model": portable.model_name,
                "program": portable.program_name,
                "level": portable.level,
                "window": None,
            },
            "table": table,
        }
        path = cache.entry_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(cache_mod.entry_bytes(payload))

        bound = _load(testmodel, program, cache)
        assert cache.stats["disk_hits"] == 1
        assert cache.stats["corrupt_entries"] == 0
        assert cache.stats["misses"] == 0
        assert bound.word_count == 5


class TestTrapEntries:
    """A table with an undecodable word stores the decoder's message
    under an extra ``traps`` key, written only when non-empty: trap-free
    payloads are unchanged, and a reader without the key still traps,
    because the pc has no table-spec entry."""

    BAD_WORD = 0b0_0110_000_00000000  # no operation coding matches

    @pytest.fixture
    def trap_program(self, program):
        from repro.tools.objfile import Program

        words = list(program.segments_in("pmem")[0].words)
        trap_program = Program(name="traps", entry=program.entry)
        trap_program.add_segment("pmem", 0, words + [self.BAD_WORD])
        return trap_program

    @staticmethod
    def _fire(slot):
        from repro.support.errors import SimulationError

        assert (slot.words, slot.insn_count, slot.label) == (1, 1, "<trap>")
        with pytest.raises(SimulationError) as excinfo:
            for ops in slot.ops_by_stage:
                for op in ops:
                    op()
        return str(excinfo.value)

    def test_trap_free_payload_has_no_traps_key(self, testmodel, program):
        portable = build_portable_table(testmodel, program)
        assert portable.traps == {}
        assert "traps" not in portable.to_payload()

    def test_trap_entry_round_trips(self, testmodel, trap_program, tmp_path):
        portable = build_portable_table(testmodel, trap_program)
        assert set(portable.traps) == {5}
        assert 5 not in portable.table_spec
        assert portable.has_control[5]
        _load(testmodel, trap_program, SimulationCache(tmp_path / "c"))
        fresh = SimulationCache(tmp_path / "c")
        table = _load(testmodel, trap_program, fresh)
        assert fresh.stats["disk_hits"] == 1
        message = self._fire(table.slots[5])
        assert message == portable.traps[5]
        assert "no operation coding matches" in message

    def test_reader_without_traps_key_still_traps(self, testmodel,
                                                  trap_program):
        from repro.simcc.portable import PortableTable

        payload = build_portable_table(testmodel, trap_program).to_payload()
        del payload["traps"]
        state, control = _fresh_engine(testmodel, trap_program)
        table = PortableTable.from_payload(payload).bind(state, control)
        assert 5 not in table.slots
        message = self._fire(table.make_frontend(testmodel)(5))
        assert "outside the compiled region" in message


# -- the warm path decodes and renders only what it runs ----------------------


def _c62x_fir():
    from repro.apps import build_fir
    from repro.bench import load_app_program

    return load_app_program(build_fir("c62x", taps=4, samples=8))


def _run(model, program, kind, cache=None, backend="auto"):
    simulator = create_simulator(model, kind, cache=cache, backend=backend)
    simulator.load_program(program)
    stats = simulator.run()
    return simulator, (stats.cycles, stats.instructions)


@pytest.fixture
def decodes(monkeypatch):
    """Count every IR function and packet proof decoded from a payload."""
    from repro.analysis.absint import PacketProof
    from repro.simcc import portable as portable_mod

    calls = {"functions": 0, "proofs": 0}
    decode_function = portable_mod.function_from_payload
    decode_proof = PacketProof.from_payload

    def function_from_payload(payload):
        calls["functions"] += 1
        return decode_function(payload)

    def proof_from_payload(payload):
        calls["proofs"] += 1
        return decode_proof(payload)

    monkeypatch.setattr(portable_mod, "function_from_payload",
                        function_from_payload)
    monkeypatch.setattr(PacketProof, "from_payload",
                        staticmethod(proof_from_payload))
    return calls


class TestLazyWarmLoad:
    """A warm disk load binds the marshalled code; the IR functions and
    proofs stay payloads until something reads them."""

    @pytest.mark.parametrize("kind", ["compiled", "static", "unfolded"])
    def test_warm_load_decodes_nothing(self, kind, tmp_path, decodes):
        model, program = _c62x_fir()
        root = tmp_path / "simtab"
        _run(model, program, kind, cache=SimulationCache(root))
        warm_cache = SimulationCache(root)
        warm, warm_counts = _run(model, program, kind, cache=warm_cache)
        assert warm_cache.stats["disk_hits"] == 1
        assert decodes == {"functions": 0, "proofs": 0}

        reference, counts = _run(model, program, kind)
        assert warm_counts == counts
        assert warm.state.differences(reference.state) == []

    def test_fusion_decodes_only_fused_packets(self, tmp_path, decodes):
        model, program = _c62x_fir()
        root = tmp_path / "simtab"
        _run(model, program, "unfolded_static", cache=SimulationCache(root))
        warm, warm_counts = _run(model, program, "unfolded_static",
                                 cache=SimulationCache(root))
        portable = build_portable_table(model, program, "instantiated")
        assert 0 < decodes["functions"] <= len(portable.functions)
        assert decodes["proofs"] == 0
        reference, counts = _run(model, program, "unfolded_static")
        assert warm_counts == counts
        assert warm.state.differences(reference.state) == []

    @pytest.mark.parametrize("level", ["sequenced", "instantiated"])
    def test_lazy_table_payload_equals_stored(self, level, tmp_path):
        model, program = _c62x_fir()
        root = tmp_path / "simtab"
        _load(model, program, SimulationCache(root), level=level)
        path = SimulationCache(root).entry_path(
            table_digest(model, program, level))
        with open(path, "rb") as handle:
            stored = cache_mod.entry_payload(handle.read())["table"]
        lazy = SimulationCache(root).load_portable(model, program, level)
        assert lazy.to_payload(with_code=False) == dict(stored, code=None)

    def test_flipped_function_byte_is_clean_miss(self, tmp_path):
        """Without the entry checksum this flip would load and fail only
        once column fusion decoded the function."""
        model, program = _c62x_fir()
        root = tmp_path / "simtab"
        kind = "unfolded_static"
        _run(model, program, kind, cache=SimulationCache(root))
        path = SimulationCache(root).entry_path(
            table_digest(model, program, "instantiated"))
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[blob.index(b"insn_")] ^= 0x01  # the first function's name
        with open(path, "wb") as handle:
            handle.write(blob)

        reader = SimulationCache(root)
        recovered, counts = _run(model, program, kind, cache=reader)
        assert reader.stats["corrupt_entries"] == 1
        assert reader.stats["misses"] == 1
        assert reader.stats["stores"] == 1
        reference, reference_counts = _run(model, program, kind)
        assert counts == reference_counts
        assert recovered.state.differences(reference.state) == []
        # the quarantined entry was replaced by the recompiled one
        warm = SimulationCache(root)
        assert warm.load_portable(model, program, "instantiated")
        assert warm.stats["disk_hits"] == 1

    def test_format_10_entries_are_clean_misses(self, tmp_path, monkeypatch):
        model, program = _c62x_fir()
        root = tmp_path / "simtab"
        monkeypatch.setattr(cache_mod, "FORMAT_VERSION", 10)
        _load(model, program, SimulationCache(root))
        monkeypatch.undo()
        reader = SimulationCache(root)
        _load(model, program, reader)
        assert cache_mod.FORMAT_VERSION == 11
        assert reader.stats["disk_hits"] == 0
        assert reader.stats["corrupt_entries"] == 0
        assert reader.stats["misses"] == 1


class TestNativeWarmPath:
    """A native artifact is keyed by what determines its C -- the
    table's level-free content digest, the layout, the telemetry flag
    and the renderer's source -- and its sidecar holds the plan, so a
    hit renders nothing.  The toolchain is faked: these tests run
    without a C compiler too."""

    IDENTITY = "fake-cc 1.0 | -O2 -shared -fPIC"

    @pytest.fixture
    def toolchain(self, monkeypatch):
        """A fake compiler; counts renders and compiles."""
        from repro.simcc.native import backend, cgen
        from repro.simcc.native import toolchain as toolchain_mod

        calls = {"render": 0, "compile": 0}
        render = cgen.render_native_source

        def counting_render(*args, **kwargs):
            calls["render"] += 1
            return render(*args, **kwargs)

        def fake_compile(cc, c_path, so_path):
            calls["compile"] += 1
            with open(so_path, "wb") as handle:
                handle.write(b"fake shared object")

        monkeypatch.setattr(cgen, "render_native_source", counting_render)
        monkeypatch.setattr(backend, "_LOADED", {})
        monkeypatch.setattr(toolchain_mod, "find_compiler",
                            lambda: "/fake/cc")
        monkeypatch.setattr(toolchain_mod, "compiler_identity",
                            lambda cc: self.IDENTITY)
        monkeypatch.setattr(toolchain_mod, "compile_shared", fake_compile)
        monkeypatch.setattr(toolchain_mod, "load_burst",
                            lambda so_path: "burst:" + so_path)
        return calls

    @staticmethod
    def _table(model, program, level="instantiated"):
        state, control = _fresh_engine(model, program)
        return build_portable_table(model, program, level).bind(
            state, control)

    @staticmethod
    def _build(model, table, cache=None, telemetry=False):
        from repro.simcc.native import build_native_module

        module = build_native_module(model, table, cache=cache,
                                     telemetry=telemetry)
        assert module is not None
        return module

    @pytest.mark.parametrize("telemetry", [False, True],
                             ids=["plain", "telemetry"])
    @pytest.mark.parametrize(
        "builder", [entry[1] for entry in APP_MATRIX],
        ids=[entry[0] for entry in APP_MATRIX],
    )
    def test_sidecar_plan_equals_fresh_render(self, builder, telemetry,
                                              toolchain, tmp_path):
        import dataclasses

        from repro.bench import load_app_program
        from repro.simcc.native import cgen
        from repro.simcc.native.layout import StateLayout

        model, program = load_app_program(builder())
        root = tmp_path / "simtab"
        table = self._table(model, program)
        self._build(model, table, SimulationCache(root), telemetry)
        assert toolchain == {"render": 1, "compile": 1}

        warm = SimulationCache(root)
        module = self._build(model, self._table(model, program), warm,
                             telemetry)
        assert toolchain == {"render": 1, "compile": 1}
        assert warm.stats["native_hits"] == 1
        _, fresh = cgen.render_native_source(
            table, model, StateLayout.build(model), telemetry=telemetry)
        for spec in dataclasses.fields(fresh):
            assert (getattr(module.plan, spec.name)
                    == getattr(fresh, spec.name)), spec.name

    def test_levels_and_cacheless_builds_share_the_key(self, toolchain,
                                                       tmp_path):
        """Both levels compile the same code, and a cache-less build keys
        the artifact as a cached one does: neither renders again."""
        model, program = _c62x_fir()
        root = tmp_path / "simtab"
        self._build(model, self._table(model, program),
                    SimulationCache(root))
        reader = SimulationCache(root)
        self._build(model, self._table(model, program, "sequenced"),
                    reader)
        assert reader.stats["native_hits"] == 1
        module = self._build(model, self._table(model, program))
        assert module.so_path is None
        assert toolchain == {"render": 1, "compile": 1}

    def test_each_key_part_misses_and_rebuilds(self, toolchain, tmp_path):
        from repro.simcc.native import backend, layout
        from repro.simcc.native import toolchain as toolchain_mod

        model, program = _c62x_fir()
        table = self._table(model, program)
        root = tmp_path / "simtab"
        self._build(model, table, SimulationCache(root))
        digest = layout.StateLayout.digest

        def edit_layout(patch):
            patch.setattr(layout.StateLayout, "digest",
                          lambda self: "edited " + digest(self))

        def edit_renderer(patch):
            patch.setattr(backend, "renderer_digest",
                          lambda: "edited renderer")

        def edit_compiler(patch):
            patch.setattr(toolchain_mod, "compiler_identity",
                          lambda cc: "fake-cc 2.0 | -O2 -shared -fPIC")

        variations = [("layout", edit_layout, False),
                      ("telemetry", None, True),
                      ("renderer", edit_renderer, False),
                      ("compiler", edit_compiler, False)]
        for rebuilt, (name, vary, telemetry) in enumerate(variations, 2):
            reader = SimulationCache(root)
            with pytest.MonkeyPatch.context() as patch:
                if vary is not None:
                    vary(patch)
                self._build(model, table, reader, telemetry)
            assert reader.stats["native_misses"] == 1, name
            assert reader.stats["native_stores"] == 1, name
            assert toolchain == {"render": rebuilt,
                                 "compile": rebuilt}, name

    def test_renderer_digest_reads_the_renderer_source(self):
        import hashlib

        from repro.simcc.native import backend, cgen, layout

        digest = hashlib.sha256()
        for module in (cgen, layout):
            with open(module.__file__, "rb") as handle:
                digest.update(handle.read())
        assert backend.renderer_digest() == digest.hexdigest()


@pytest.mark.skipif(not native_available(),
                    reason="no usable C compiler on the host")
class TestNativeWarmHit:
    """End to end with a real compiler: a warm native hit renders no C,
    and every kind runs bit-identically to an uncached run."""

    @pytest.mark.parametrize("kind", ["compiled", "unfolded_static"])
    def test_warm_hit_renders_nothing(self, kind, tmp_path, monkeypatch):
        from repro.simcc.native import NativePipeline, backend, cgen

        model, program = _c62x_fir()
        root = tmp_path / "simtab"
        _run(model, program, kind, cache=SimulationCache(root),
             backend="native")
        renders = []
        render = cgen.render_native_source
        monkeypatch.setattr(
            cgen, "render_native_source",
            lambda *args, **kwargs: renders.append(1) or render(
                *args, **kwargs))
        monkeypatch.setattr(backend, "_LOADED", {})  # a fresh process
        warm_cache = SimulationCache(root)
        warm, counts = _run(model, program, kind, cache=warm_cache,
                            backend="native")
        assert renders == []
        assert warm_cache.stats["native_hits"] == 1
        assert isinstance(warm.engine, NativePipeline)
        reference, reference_counts = _run(model, program, kind)
        assert counts == reference_counts
        assert warm.state.differences(reference.state) == []


class TestFinishedSimulatorIsFreed:
    """A finished simulator holds no reference cycle, so its table goes
    by reference counting, not at a later generation-2 collection.  What
    the collector may still find are the exec'd namespaces (each
    function refers to its globals, which hold the function)."""

    @pytest.mark.parametrize("backend", ["auto", "native"])
    @pytest.mark.parametrize(
        "kind", ["compiled", "static", "unfolded", "unfolded_static"])
    def test_warm_run_leaves_no_table_garbage(self, kind, backend,
                                              tmp_path):
        import gc

        from repro.analysis.absint import PacketProof
        from repro.machine.driver import IssueSlot, Pipeline
        from repro.sim.base import Simulator
        from repro.sim.static import StaticPipeline, _WindowNode
        from repro.simcc.ir import IRFunction
        from repro.simcc.native import NativePipeline

        model, program = _c62x_fir()
        root = tmp_path / "simtab"
        _run(model, program, kind, cache=SimulationCache(root),
             backend=backend)
        kept = (IssueSlot, _WindowNode, IRFunction, PacketProof, Simulator,
                Pipeline, StaticPipeline, NativePipeline)
        flags = gc.get_debug()
        gc.collect()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            _run(model, program, kind, cache=SimulationCache(root),
                 backend=backend)
            gc.collect()
            garbage = sorted({type(obj).__name__ for obj in gc.garbage
                              if isinstance(obj, kept)})
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert garbage == []
