"""Observability overhead: the disabled path must be (near) free.

The instrumentation layer (:mod:`repro.obs`) promises that a simulator
with no observer attached runs the same hot loop as a driver without
the layer: with no observer, ``Pipeline.run_chunk`` runs the unhooked
cycle body inline (``_run_plain``).  This benchmark holds it to that
promise by racing the current disabled path against a replica of that
plain loop with no observer slot at all, on the FIR workload, and
asserting the wall-time ratio stays within ``MAX_DISABLED_OVERHEAD``:
the ratio measures only the observer dispatch.

The enabled configurations (metrics-only observer, full event
recording) are measured alongside for the record -- they are expected
to cost real time; the point of the dual-path design is that only
people who ask for tracing pay it.

The native leg holds the in-burst telemetry to its own bar: an
observer-attached (counters-mode) native ``unfolded_static`` run must
keep at least ``NATIVE_MIN_TELEMETRY_SPEEDUP``x over the Python
``unfolded_static`` path -- profiling must not demote bursts back to
the per-cycle loop.  Skipped silently when the host has no C
toolchain (the JSON records ``"native": null``).

Writes ``BENCH_trace_overhead.json`` so CI can track the ratios.
"""

from __future__ import annotations

import time
from functools import partial

from repro import obs
from repro.bench import load_app_program
from repro.bench.reporting import ExperimentReport, publish_json
from repro.sim import create_simulator

#: The acceptance bar: disabled-tracing FIR wall time vs the
#: observer-free replica of the plain loop.
MAX_DISABLED_OVERHEAD = 1.05

#: Best-of-N timing per configuration, re-raced on a noisy first try.
TRIALS = 5
RETRIES = 3

#: The native-telemetry bar: a counters-mode observed native run must
#: keep at least this speedup over the Python ``unfolded_static`` path.
NATIVE_MIN_TELEMETRY_SPEEDUP = 5.0

#: The native leg runs a longer FIR than the shared fixture: burst
#: setup and the per-burst telemetry flush are fixed costs, so the
#: speedup claim needs enough cycles to measure the steady state.
NATIVE_FIR_ARGS = dict(taps=16, samples=512)


class _BaselinePipeline:
    """The plain pipeline loop with no observer slot.

    This is ``repro.machine.driver.Pipeline.run_chunk`` without the
    observability layer: the same inline cycle body over the table's
    active stages, with hoisted locals, and no observer to dispatch on.
    Kept here (not in the package) because its only job is to be the
    honest baseline for the overhead assertion.
    """

    __slots__ = (
        "_control", "_frontend", "_read_pc", "_write_pc", "_active",
        "slots", "pcs", "cycles", "instructions_retired",
    )

    def __init__(self, model, state, control, frontend, active_stages):
        self._control = control
        self._frontend = frontend
        self._read_pc = partial(getattr, state, model.pc_name)
        self._write_pc = partial(setattr, state, model.pc_name)
        self._active = active_stages
        self.slots = [None] * model.pipeline.depth
        self.pcs = [None] * model.pipeline.depth
        self.cycles = 0
        self.instructions_retired = 0

    def run_chunk(self, cycles):
        control = self._control
        slots = self.slots
        pcs = self.pcs
        if cycles <= 0 or (control.halted
                           and all(s is None for s in slots)):
            return 0
        read_pc = self._read_pc
        write_pc = self._write_pc
        retired = self.instructions_retired
        ran = 0
        try:
            while True:
                retiring = slots.pop()
                pcs.pop()
                if retiring is not None:
                    retired += retiring.insn_count
                if control.halted:
                    incoming = None
                    issue_pc = None
                elif control.stall_cycles > 0:
                    control.stall_cycles -= 1
                    incoming = None
                    issue_pc = None
                else:
                    pc = read_pc()
                    incoming = self._frontend(pc)
                    issue_pc = pc if incoming is not None else None
                    if incoming is not None:
                        write_pc(pc + incoming.words)
                slots.insert(0, incoming)
                pcs.insert(0, issue_pc)

                for stage in self._active:
                    slot = slots[stage]
                    if slot is None:
                        continue
                    if stage < control.flush_below:
                        slots[stage] = None
                        pcs[stage] = None
                        continue
                    ops = slot.ops_by_stage[stage]
                    if ops:
                        control.current_stage = stage
                        for fn in ops:
                            fn()
                below = control.flush_below
                if below > 0:
                    slots[:below] = [None] * below
                    pcs[:below] = [None] * below
                control.flush_below = -1

                ran += 1
                if ran >= cycles or (
                    control.halted and all(s is None for s in slots)
                ):
                    return ran
        finally:
            self.cycles += ran
            self.instructions_retired = retired


def _fresh_engine(model, program, baseline=False, observer_factory=None,
                  kind="compiled", backend="auto"):
    observer = observer_factory() if observer_factory else None
    simulator = create_simulator(model, kind, observer=observer,
                                 backend=backend)
    simulator.load_program(program)
    if baseline:
        return _BaselinePipeline(
            model, simulator.state, simulator.control,
            simulator.table.make_frontend(model),
            simulator.table.active_stages,
        )
    return simulator.engine


def _best_run_seconds(model, program, max_cycles, **kwargs):
    """Best-of-``TRIALS`` wall time of the engine's run loop alone
    (fresh state per trial; load/compile time excluded)."""
    best = float("inf")
    cycles = None
    engine = None
    for _ in range(TRIALS):
        engine = _fresh_engine(model, program, **kwargs)
        start = time.perf_counter()
        engine.run_chunk(max_cycles)
        best = min(best, time.perf_counter() - start)
        cycles = engine.cycles
    return best, cycles, engine


def _native_telemetry_leg(max_cycles):
    """Race the observed native burst path against Python
    ``unfolded_static``; None when the host cannot compile C."""
    from repro.apps import build_fir
    from repro.simcc.native import native_available

    if not native_available():
        return None
    model, program = load_app_program(
        build_fir("c62x", **NATIVE_FIR_ARGS)
    )

    python_s, python_cycles, _ = _best_run_seconds(
        model, program, max_cycles,
        kind="unfolded_static", backend="auto",
    )
    counters_s, counters_cycles, counters_engine = _best_run_seconds(
        model, program, max_cycles,
        kind="unfolded_static", backend="native",
        observer_factory=lambda: obs.Observer(mode=obs.COUNTERS_MODE),
    )
    profile_s, profile_cycles, profile_engine = _best_run_seconds(
        model, program, max_cycles,
        kind="unfolded_static", backend="native",
        observer_factory=lambda: obs.Observer(mode=obs.PROFILE_MODE),
    )
    assert counters_cycles == python_cycles
    assert profile_cycles == python_cycles
    # The tentpole claim: observers in counters/profile mode must not
    # demote the native engine to the per-cycle Python path.
    assert counters_engine.dispatch_counts["bursts"] > 0
    assert profile_engine.dispatch_counts["bursts"] > 0

    return {
        "workload": dict(NATIVE_FIR_ARGS),
        "cycles": python_cycles,
        "python_unfolded_static_seconds": python_s,
        "counters_observed_seconds": counters_s,
        "profile_observed_seconds": profile_s,
        "counters_speedup": python_s / counters_s,
        "profile_speedup": python_s / profile_s,
        "bursts": counters_engine.dispatch_counts["bursts"],
        "threshold": NATIVE_MIN_TELEMETRY_SPEEDUP,
    }


def test_trace_overhead(benchmark, fir_app):
    """Disabled observability costs <= 5% on the FIR run loop."""
    model, program = load_app_program(fir_app)
    max_cycles = fir_app.max_cycles

    # Race disabled vs the replica; re-race on scheduler noise.
    ratio = baseline_s = disabled_s = None
    for _ in range(RETRIES):
        baseline_s, baseline_cycles, _ = _best_run_seconds(
            model, program, max_cycles, baseline=True)
        disabled_s, disabled_cycles, _ = _best_run_seconds(
            model, program, max_cycles)
        assert disabled_cycles == baseline_cycles
        ratio = disabled_s / baseline_s
        if ratio <= MAX_DISABLED_OVERHEAD:
            break

    metrics_s, _, _ = _best_run_seconds(
        model, program, max_cycles,
        observer_factory=lambda: obs.Observer(record=False),
    )
    full_s, _, _ = _best_run_seconds(
        model, program, max_cycles,
        observer_factory=obs.Observer,
    )
    native = _native_telemetry_leg(max_cycles)

    report = ExperimentReport(
        "BENCH-trace-overhead",
        "observability overhead on the FIR run loop",
        "the disabled plain loop must match a driver with no "
        "observer slot",
    )
    report.add_row(
        workload=fir_app.name,
        cycles=baseline_cycles,
        baseline_s=baseline_s,
        disabled_s=disabled_s,
        disabled_ratio=ratio,
        metrics_only_s=metrics_s,
        full_trace_s=full_s,
        native_counters_speedup=(
            native["counters_speedup"] if native else None
        ),
    )
    report.emit()

    payload = {
        "experiment": "trace-overhead",
        "workload": fir_app.name,
        "cycles": baseline_cycles,
        "baseline_seconds": baseline_s,
        "disabled_seconds": disabled_s,
        "disabled_overhead_ratio": ratio,
        "metrics_only_seconds": metrics_s,
        "full_trace_seconds": full_s,
        "metrics_only_overhead_ratio": metrics_s / baseline_s,
        "full_trace_overhead_ratio": full_s / baseline_s,
        "threshold": MAX_DISABLED_OVERHEAD,
        "native": native,
    }
    publish_json("BENCH_trace_overhead.json", payload)

    assert ratio <= MAX_DISABLED_OVERHEAD, (
        "disabled-observability FIR run %.4fs is %.3fx the "
        "observer-free baseline %.4fs (bar: %.2fx)"
        % (disabled_s, ratio, baseline_s, MAX_DISABLED_OVERHEAD)
    )
    if native is not None:
        assert native["counters_speedup"] \
            >= NATIVE_MIN_TELEMETRY_SPEEDUP, (
                "counters-mode observed native run %.4fs keeps only "
                "%.2fx over the Python unfolded_static path %.4fs "
                "(bar: %.1fx)"
                % (native["counters_observed_seconds"],
                   native["counters_speedup"],
                   native["python_unfolded_static_seconds"],
                   NATIVE_MIN_TELEMETRY_SPEEDUP)
            )

    benchmark.pedantic(
        lambda: _fresh_engine(model, program).run_chunk(max_cycles),
        rounds=3, iterations=1,
    )
