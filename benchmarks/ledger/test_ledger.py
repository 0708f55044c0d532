"""Smoke test of the performance ledger (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Runs every workload once, traced, at ``--scale smoke`` (tiny programs,
one set-up) and checks that the ledger emits every metric
``BENCHMARK.json`` names, that no job fails, and that each traced
wrapper fires on the workloads that claim it -- a silently renamed
entry point shows up here as a missing span.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.ledger import calibrate, compare, harness, tracer, workloads

WARM = ("short_warm", "long_native", "service_mixed")


def _run(name, cwd=harness.ROOT, env=None):
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", name,
         "--seed", "11", "--seconds", "0.2", "--trace", "1",
         "--scale", "smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name in workloads.WORKLOAD_NAMES:
        proc = _run(name)
        assert proc.returncode == 0, proc.stderr
        out[name] = harness.parse_output(proc.stdout)
    return out


def _value(runs, name, metric):
    return runs[name][0]["metrics"][metric]["value"]


def test_every_benchmark_metric_is_emitted(runs):
    benchmark = harness.load_benchmark()
    for name, (record, result) in runs.items():
        for section in ("end_to_end", "per_layer"):
            for entry in benchmark[section]:
                emitted = record["metrics"][entry["name"]]
                assert emitted["unit"] == entry["unit"], (name, entry)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [
            entry["name"] for entry in benchmark["per_layer"]]


def test_no_job_fails(runs):
    for name, (record, result) in runs.items():
        assert result["correct"] and result["failed"] == 0, record["errors"]
        assert result["attempted"] >= 1
        assert _value(runs, name, "fail_ratio") == 0
        if record["host"]["compiler"] is not None:
            assert _value(runs, name, "native.fallbacks") == 0


def test_layers_fire_where_claimed(runs):
    assert _value(runs, "cold_compile", "native.cc_s") > 0
    assert _value(runs, "cold_compile", "cache.hit_ratio") == 0
    assert _value(runs, "python_engines", "simcc.compile_direct_s") > 0
    assert _value(runs, "short_warm", "cache.hit_ratio") == 1
    assert _value(runs, "service_mixed", "sim.run_s") > 0  # worker spans
    for name in WARM:
        assert _value(runs, name, "simcc.compiles") == 0, name
        assert _value(runs, name, "native.compiles") == 0, name
    for name in runs:
        assert _value(runs, name, "trace.uncovered_share") <= 0.1, name
    for metric in tracer.PER_JOB:
        assert any(_value(runs, name, metric) > 0 for name in runs), metric


def test_refuses_to_run_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, a run
    fails instead of printing a result."""
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = _run("short_warm", cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_windows_leave_out_and_normalise_calibration():
    """Two windows of two jobs on a host at half the reference speed:
    each window's 0.6 s minus its two samples, halved."""
    sample = 2 * calibrate.REFERENCE_S
    outcomes = [harness.Outcome("j%d" % i, "k", 0.25, done=0.3 * (i + 1),
                                cal=sample) for i in range(4)]
    windows = list(harness.Phase(outcomes, 0.0, 2).windows())
    assert len(windows) == 2
    for verified, wall, slow in windows:
        assert len(verified) == 2 and slow == pytest.approx(2.0)
        assert wall == pytest.approx((0.6 - 2 * sample) / 2)
    metrics = harness.end_to_end(harness.Phase(outcomes, 0.0, 2), 1.0, 50.0)
    assert metrics["job_p50_s"] == pytest.approx(0.125)
    assert harness.normalised({"sim.run_s": 1.0, "asm.words_per_s": 1.0,
                               "sim.cycles": 7}, 2.0) == {
        "sim.run_s": 0.5, "asm.words_per_s": 2.0, "sim.cycles": 7}


def _ledger(seed, **values):
    metrics = {"sim.cycles": 1000, "sim.retired": 900, "setup_s": 1.0,
               "jobs_per_s": 10.0}
    metrics.update(values)
    record = {"seed": seed, "failed": 0, "errors": [],
              "metrics": {key: {"value": value} for key, value in
                          metrics.items()}}
    return {"workloads": {"short_warm": record}}


def test_compare_verdicts():
    benchmark = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ]}
    parents = [_ledger(11, jobs_per_s=10.0 + 0.01 * i) for i in range(10)]

    def verdicts(changes):
        rows, problems = compare.compare(benchmark, parents, changes)
        return {row[1]: row[-1] for row in rows}, problems

    slower = [_ledger(11, jobs_per_s=8.0 + 0.01 * i) for i in range(10)]
    assert verdicts(slower)[0]["jobs_per_s"] == "REGRESSION"
    faster = [_ledger(11, jobs_per_s=12.0 + 0.01 * i) for i in range(10)]
    assert verdicts(faster) == ({"setup_s": "ok",
                                 "jobs_per_s": "improved"}, [])
    assert verdicts(faster[:9])[0]["jobs_per_s"] == "ok"  # < 10 pairs
    noisy = [_ledger(11, jobs_per_s=value)
             for value in (7, 13, 7, 13, 7, 13, 7, 13, 7, 13)]
    assert verdicts(noisy)[0]["jobs_per_s"] == "unresolved"
    drifted = [_ledger(11, **{"sim.cycles": 1001}) for _ in range(10)]
    assert verdicts(drifted)[1] == ["short_warm seed 11: sim.cycles "
                                    "1000 -> 1001"]


def test_ledger_files_round_trip(tmp_path, runs):
    """``compare`` reads what ``run`` writes: a run against itself
    passes."""
    ledger = {"workloads": {name: record for name, (record, _) in
                            runs.items()}}
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger))
    benchmark = harness.load_benchmark()
    assert compare.main(benchmark, [str(path)], [str(path)]) == 0
