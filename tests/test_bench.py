"""Tests for the experiment harness used by the benchmark suite."""

import json

import pytest

from repro.apps import build_fir
from repro.bench import (
    PAPER,
    compilation_speed,
    load_app_program,
    paper_reference,
    run_and_verify,
    simulation_speed,
    speedup,
    standard_apps,
)
from repro.bench.reporting import ExperimentReport, publish_json


@pytest.fixture(scope="module")
def small_fir():
    return build_fir("tinydsp", taps=4, samples=8)


class TestHarness:
    def test_compilation_speed_metrics(self, small_fir):
        metrics = compilation_speed(small_fir)
        assert set(metrics) == {"words", "compile_s", "insn_per_s"}
        assert metrics["words"] > 0
        assert metrics["insn_per_s"] > 0

    def test_simulation_speed_metrics(self, small_fir):
        metrics = simulation_speed(small_fir, "compiled")
        assert metrics["cycles"] > 0
        assert metrics["cycles_per_s"] > 0
        assert metrics["runs"] == 1

    def test_simulation_speed_repeats_until_min_runtime(self, small_fir):
        metrics = simulation_speed(small_fir, "compiled", min_runtime=0.2)
        assert metrics["runs"] >= 2

    def test_simulation_speed_verifies_results(self, small_fir):
        # Verification must run: a wrong expectation must raise.
        broken = build_fir("tinydsp", taps=4, samples=8)
        memory = broken.expected_memory
        first = min(broken.expected[memory])
        broken.expected[memory][first] += 1
        from repro.support.errors import ReproError

        with pytest.raises(ReproError):
            simulation_speed(broken, "compiled")

    def test_speedup_shape(self, small_fir):
        metrics = speedup(small_fir, "interpretive", "compiled")
        assert metrics["speedup"] > 1.0

    def test_run_and_verify_returns_simulator(self, small_fir):
        simulator = run_and_verify(small_fir, "compiled")
        assert simulator.halted

    def test_load_app_program(self, small_fir):
        model, program = load_app_program(small_fir)
        assert model.name == "tinydsp"
        assert program.word_count("pmem") > 0

    def test_standard_apps_are_the_papers_three(self):
        apps = standard_apps(gsm_words=600, fir_samples=8, adpcm_samples=8)
        assert [a.name for a in apps] == [
            "fir_c62x", "adpcm_c62x", "gsm_c62x",
        ]

    def test_paper_reference_table(self):
        assert paper_reference("speedup_gsm") == 47
        assert PAPER["compilation_speed_insn_per_s"] == (530, 560)
        with pytest.raises(KeyError):
            paper_reference("nonsense")


class TestReporting:
    def test_report_written_to_results_dir(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        report = ExperimentReport("E0-test", "unit test experiment",
                                  "paper note")
        report.add_row(workload="x", value=1.23456)
        text = report.emit()
        assert "E0-test" in text
        assert "value=1.235" in text
        written = (tmp_path / "e0-test.txt").read_text()
        assert written == text
        assert "unit test experiment" in capsys.readouterr().out

    def test_json_written_only_to_results_dir(self, tmp_path, monkeypatch):
        results = tmp_path / "results"
        checkout = tmp_path / "checkout"
        checkout.mkdir()
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(results))
        monkeypatch.chdir(checkout)
        path = publish_json("BENCH_unit.json", {"speedup": 2.5})
        assert path == str(results / "BENCH_unit.json")
        assert json.loads((results / "BENCH_unit.json").read_text()) == {
            "speedup": 2.5}
        assert list(checkout.iterdir()) == []
