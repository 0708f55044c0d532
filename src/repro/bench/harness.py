"""Measurement helpers for the paper's experiments."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

from repro.api import build_toolset, load_model
from repro.apps import build_adpcm, build_fir, build_gsm
from repro.sim import create_simulator

# Paper-reported numbers (DATE 2000, Section 6.1), for side-by-side
# reporting in benchmark output and EXPERIMENTS.md.
PAPER = {
    "compilation_speed_insn_per_s": (530, 560),
    "interpretive_cycles_per_s": (2_000, 9_000),
    "compiled_cycles_per_s": (288_000, 403_000),
    "speedup_fir": 170,
    "speedup_adpcm": 127,  # figure 7 middle bar (approximate reading)
    "speedup_gsm": 47,
    "model_translation_s": 35.0,
}


def paper_reference(key):
    return PAPER[key]


@dataclass
class BenchmarkResult:
    """One measured row of an experiment."""

    experiment: str
    workload: str
    metrics: Dict[str, float] = field(default_factory=dict)

    def row(self):
        parts = ["%-12s %-28s" % (self.experiment, self.workload)]
        for key, value in self.metrics.items():
            if isinstance(value, float):
                parts.append("%s=%.4g" % (key, value))
            else:
                parts.append("%s=%s" % (key, value))
        return "  ".join(parts)


def standard_apps(gsm_words=4096, fir_taps=16, fir_samples=48,
                  adpcm_samples=256):
    """The paper's three benchmark applications, on the c62x."""
    return [
        build_fir("c62x", taps=fir_taps, samples=fir_samples),
        build_adpcm(samples=adpcm_samples),
        build_gsm(target_words=gsm_words),
    ]


def load_app_program(app, toolset=None):
    """Assemble an application; returns (model, program)."""
    model = load_model(app.model_name)
    tools = toolset or build_toolset(model)
    return model, app.assemble(tools)


def compilation_speed(app, level="sequenced"):
    """Measure simulation-compilation speed (paper Figure 6).

    Returns a dict with program size, compile wall-clock and the
    instructions/second figure the paper reports.
    """
    model, program = load_app_program(app)
    kind = "compiled" if level == "sequenced" else "unfolded"
    simulator = create_simulator(model, kind)
    start = time.perf_counter()
    simulator.load_program(program)
    elapsed = time.perf_counter() - start
    instructions = simulator.table.instruction_count
    return {
        "words": program.word_count(model.config.program_memory),
        "compile_s": elapsed,
        "insn_per_s": instructions / elapsed if elapsed else float("inf"),
    }


def simulation_speed(app, kind, max_cycles=200_000_000, verify=True,
                     min_runtime=0.0):
    """Measure simulation speed in cycles/second (paper Figure 7 input).

    Load (simulation compilation) is excluded from the timing, matching
    the paper's split between Figures 6 and 7.  With ``min_runtime`` the
    run is repeated (reset + rerun) until the accumulated wall-clock
    exceeds the threshold, for stable numbers on fast simulators.
    """
    model, program = load_app_program(app)
    simulator = create_simulator(model, kind)
    simulator.load_program(program)
    total_cycles = 0
    total_time = 0.0
    runs = 0
    while True:
        start = time.perf_counter()
        stats = simulator.run(max_cycles)
        total_time += time.perf_counter() - start
        total_cycles += stats.cycles
        runs += 1
        if verify:
            app.verify(simulator.state)
        if total_time >= min_runtime:
            break
        simulator.reset()
    return {
        "cycles": total_cycles // runs,
        "runs": runs,
        "run_s": total_time / runs,
        "cycles_per_s": total_cycles / total_time if total_time else
        float("inf"),
    }


def speedup(app, baseline_kind="interpretive", kind="compiled",
            min_runtime=0.0):
    """Speed-up of ``kind`` over ``baseline_kind`` for one application."""
    base = simulation_speed(app, baseline_kind, min_runtime=min_runtime)
    fast = simulation_speed(app, kind, min_runtime=min_runtime)
    return {
        "baseline_cps": base["cycles_per_s"],
        "fast_cps": fast["cycles_per_s"],
        "speedup": fast["cycles_per_s"] / base["cycles_per_s"],
        "cycles": base["cycles"],
    }


def run_and_verify(app, kind="compiled", max_cycles=200_000_000):
    """Run an application to completion and verify against the golden
    model; returns the simulator for inspection."""
    model, program = load_app_program(app)
    simulator = create_simulator(model, kind)
    simulator.load_program(program)
    simulator.run(max_cycles)
    app.verify(simulator.state)
    return simulator
