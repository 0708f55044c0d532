"""Persistent simulation-table cache: speed and bit-exactness.

Two claims, both extending the paper's compile-time/run-time trade
(Section 4): first, that a *persistent* cache moves simulation
compilation out of the process entirely -- a warm reload of the GSM
table must be at least an order of magnitude faster than a cold
compile; second, that the cache round-trip does not change a single
bit of simulation behaviour (the E4 accuracy bar applied to the new
machinery).

Writes ``BENCH_compile_cache.json`` with the measured timings so CI
and the figure scripts can consume them.
"""

from __future__ import annotations

import time

from repro.bench import load_app_program
from repro.bench.reporting import ExperimentReport, publish_json
from repro.sim import create_simulator
from repro.simcc.cache import SimulationCache

#: The acceptance bar: warm reload vs cold compile on GSM.
MIN_WARM_SPEEDUP = 10.0

#: Table-based simulator kinds (the cache applies to nothing else).
CACHED_KINDS = ("compiled", "static", "unfolded", "unfolded_static")


def _timed_load(model, program, cache):
    simulator = create_simulator(model, "compiled", cache=cache)
    start = time.perf_counter()
    simulator.load_program(program)
    return time.perf_counter() - start


def test_cache_warm_reload_speedup(benchmark, gsm_app, tmp_path):
    """Cold compile+store vs warm disk reload vs warm memory hit (GSM)."""
    model, program = load_app_program(gsm_app)
    root = tmp_path / "simtab"

    cold_cache = SimulationCache(root)
    cold_seconds = _timed_load(model, program, cold_cache)
    assert cold_cache.stats["misses"] == 1
    assert cold_cache.stats["stores"] == 1

    # Warm disk: a fresh cache instance per trial (empty LRU), best of
    # three to shave scheduler noise.
    warm_disk_seconds = min(
        _timed_load(model, program, SimulationCache(root))
        for _ in range(3)
    )

    # Warm memory: same instance, table already rehydrated.
    memory_cache = SimulationCache(root)
    _timed_load(model, program, memory_cache)
    warm_memory_seconds = min(
        _timed_load(model, program, memory_cache) for _ in range(3)
    )
    assert memory_cache.stats["memory_hits"] >= 3

    speedup_disk = cold_seconds / warm_disk_seconds
    speedup_memory = cold_seconds / warm_memory_seconds

    report = ExperimentReport(
        "BENCH-compile-cache",
        "persistent simulation-table cache, GSM workload",
        "extends the paper's compile-time/run-time trade (Section 4)",
    )
    report.add_row(
        workload=gsm_app.name,
        words=program.word_count(model.config.program_memory),
        cold_s=cold_seconds,
        warm_disk_s=warm_disk_seconds,
        warm_memory_s=warm_memory_seconds,
        speedup_disk=speedup_disk,
        speedup_memory=speedup_memory,
    )
    report.emit()

    payload = {
        "experiment": "compile-cache",
        "workload": gsm_app.name,
        "program_words": program.word_count(model.config.program_memory),
        "cold_seconds": cold_seconds,
        "warm_disk_seconds": warm_disk_seconds,
        "warm_memory_seconds": warm_memory_seconds,
        "speedup_disk": speedup_disk,
        "speedup_memory": speedup_memory,
        "threshold": MIN_WARM_SPEEDUP,
    }
    publish_json("BENCH_compile_cache.json", payload)

    assert speedup_disk >= MIN_WARM_SPEEDUP, (
        "warm disk reload %.3fs is only %.1fx faster than cold compile "
        "%.3fs (need >= %.0fx)"
        % (warm_disk_seconds, speedup_disk, cold_seconds, MIN_WARM_SPEEDUP)
    )

    benchmark.pedantic(
        lambda: _timed_load(model, program, SimulationCache(root)),
        rounds=3, iterations=1,
    )


def test_cache_bit_identical(paper_apps, tmp_path):
    """E4 extended: cached (cold store + warm reload) simulators are
    bit-identical to an uncached one on every application at every
    table-based level."""
    report = ExperimentReport(
        "BENCH-cache-crosscheck",
        "cache bit-exactness across levels",
        "E4 accuracy bar applied to the cache",
    )
    for app in paper_apps:
        model, program = load_app_program(app)
        for kind in CACHED_KINDS:
            reference = create_simulator(model, kind)
            reference.load_program(program)
            ref_stats = reference.run()
            app.verify(reference.state)
            ref_signature = (
                ref_stats.cycles,
                ref_stats.instructions,
                reference.state.snapshot(),
            )

            root = tmp_path / app.name / kind
            variants = [
                ("cached-cold", dict(cache=SimulationCache(root))),
                ("cached-warm", dict(cache=SimulationCache(root))),
            ]
            for label, kwargs in variants:
                simulator = create_simulator(model, kind, **kwargs)
                simulator.load_program(program)
                stats = simulator.run()
                app.verify(simulator.state)
                signature = (
                    stats.cycles,
                    stats.instructions,
                    simulator.state.snapshot(),
                )
                assert signature == ref_signature, (
                    "%s/%s: %s simulation diverges from uncached"
                    % (app.name, kind, label)
                )
            assert variants[1][1]["cache"].stats["disk_hits"] == 1

            report.add_row(
                workload=app.name,
                kind=kind,
                cycles=ref_stats.cycles,
                instructions=ref_stats.instructions,
                variants="cached-cold,cached-warm",
                golden="match",
            )
    report.emit()
