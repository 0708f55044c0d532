"""E7 (ours): retargetability across three pipelines.

The paper's core claim is *retargetable* compiled simulation: the same
generator flow serves any LISA model.  We run the identical FIR problem
through the full flow on all three shipped models -- 4-stage flushing
scalar, 6-stage accumulator DSP, 11-stage VLIW -- and report, per model:
tool-generation time, simulation-compilation speed, and the
compiled-over-interpretive speed-up.

Shape assertion: the deeper the front-end (more fetch/decode work per
instruction), the larger the compiled-simulation win -- the paper's
argument for why the C6201 benefits so much.
"""

from __future__ import annotations

import time

from repro.apps import build_fir
from repro.bench import compilation_speed, simulation_speed
from repro.bench.reporting import ExperimentReport
from repro.lisa.parser import parse_source
from repro.lisa.semantics import compile_ast
from repro.models import model_source, model_source_path
from repro.simcc import generate_simulation_compiler

_FIR_ARGS = {
    "tinydsp": dict(taps=8, samples=48),
    "c54x": dict(taps=8, samples=48),
    "c62x": dict(taps=8, samples=48),
}


def test_retargeting(benchmark):
    report = ExperimentReport(
        "E7-retarget",
        "one tool flow, three pipelines: FIR on every shipped model",
        "retargetability is the paper's premise (6 weeks for the C6201 "
        "model vs 12 months for a hand-written C54x simulator)",
    )
    speedups = {}
    for name in ("tinydsp", "c54x", "c62x"):
        text, path = model_source(name), model_source_path(name)
        start = time.perf_counter()
        model = compile_ast(parse_source(text, path), path)
        generate_simulation_compiler(model)
        toolgen_s = time.perf_counter() - start
        app = build_fir(name, **_FIR_ARGS[name])
        compile_metrics = compilation_speed(app)
        interp = simulation_speed(app, "interpretive", min_runtime=0.8)
        compiled = simulation_speed(app, "compiled", min_runtime=0.8)
        speedups[name] = (
            compiled["cycles_per_s"] / interp["cycles_per_s"]
        )
        report.add_row(
            model=name,
            pipeline_depth=model.pipeline.depth,
            toolgen_s=toolgen_s,
            simcc_insn_per_s=compile_metrics["insn_per_s"],
            interpretive_cps=interp["cycles_per_s"],
            compiled_cps=compiled["cycles_per_s"],
            speedup=speedups[name],
        )
    report.emit()

    for name, factor in speedups.items():
        assert factor > 2.0, (
            "compiled simulation should win on %s (got %.1fx)"
            % (name, factor)
        )
    # Deep VLIW front-end should benefit at least as much as the
    # shallow scalar pipeline (the paper's C6201 argument).
    assert speedups["c62x"] > speedups["tinydsp"] * 0.8

    app = build_fir("c54x", **_FIR_ARGS["c54x"])
    benchmark.pedantic(
        lambda: simulation_speed(app, "compiled"), rounds=1, iterations=1
    )
