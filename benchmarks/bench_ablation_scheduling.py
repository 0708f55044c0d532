"""E6 (ours): static vs dynamic scheduling under control hazards.

The paper distinguishes *dynamic* scheduling (operations of overlapping
instructions selected at simulation run-time) from *static* scheduling
(composed at compile time).  Static columns cannot contain instructions
that may flush/stall/halt, so on a flushing pipeline every taken branch
forces the dynamic fallback path.

We sweep branch density on tinydsp (flush policy): static scheduling's
advantage should erode as density grows.  On the c62x (exposed delay
slots, no flushes) branches are ordinary operations and static columns
keep working -- measured as a second series.
"""

from __future__ import annotations

from repro.apps import build_synthetic
from repro.bench import simulation_speed
from repro.bench.reporting import ExperimentReport

_DENSITIES = (0.0, 0.1, 0.25, 0.4)


def test_scheduling_vs_branch_density_tinydsp(benchmark):
    report = ExperimentReport(
        "E6-sched-tinydsp",
        "static vs dynamic scheduling vs branch density (flushing "
        "pipeline)",
        "static scheduling composes windows free of control hazards at "
        "compile time",
    )
    advantages = []
    for density in _DENSITIES:
        app = build_synthetic(
            "tinydsp", target_words=384, branch_density=density,
            loop_iterations=96,
        )
        dynamic = simulation_speed(app, "compiled", min_runtime=0.6)
        static = simulation_speed(app, "static", min_runtime=0.6)
        advantage = static["cycles_per_s"] / dynamic["cycles_per_s"]
        advantages.append(advantage)
        report.add_row(
            branch_density=density,
            dynamic_cps=dynamic["cycles_per_s"],
            static_cps=static["cycles_per_s"],
            static_advantage=advantage,
        )
    report.emit()

    # Shape: the static advantage at zero hazards exceeds the advantage
    # under heavy hazards (where most cycles fall back to dynamic).
    assert advantages[0] > advantages[-1] * 0.98, (
        "static scheduling should degrade toward dynamic as control "
        "hazards increase: %r" % advantages
    )

    app = build_synthetic("tinydsp", target_words=384, branch_density=0.0,
                          loop_iterations=96)
    benchmark.pedantic(
        lambda: simulation_speed(app, "static"), rounds=1, iterations=1
    )


def test_scheduling_vs_branch_density_c62x(benchmark):
    report = ExperimentReport(
        "E6-sched-c62x",
        "static scheduling vs branch density (exposed pipeline: "
        "branches are not control hazards)",
    )
    for density in (0.0, 0.25):
        app = build_synthetic(
            "c62x", target_words=384, branch_density=density,
            loop_iterations=48,
        )
        dynamic = simulation_speed(app, "compiled", min_runtime=0.6)
        static = simulation_speed(app, "static", min_runtime=0.6)
        report.add_row(
            branch_density=density,
            dynamic_cps=dynamic["cycles_per_s"],
            static_cps=static["cycles_per_s"],
            static_advantage=static["cycles_per_s"]
            / dynamic["cycles_per_s"],
        )
    report.emit()
    app = build_synthetic("c62x", target_words=384, branch_density=0.25,
                          loop_iterations=48)
    benchmark.pedantic(
        lambda: simulation_speed(app, "static"), rounds=1, iterations=1
    )
