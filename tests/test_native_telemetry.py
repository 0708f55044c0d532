"""Native in-burst telemetry: observer-compatible bursts.

The tentpole guarantee of the observability layer: an observer in
``profile`` (or ``counters``) mode no longer forces the native backend
onto the per-cycle Python path.  The generated C maintains a telemetry
side-region in the flat state buffer and the engine flushes it into the
metrics registry at burst boundaries -- producing per-packet counters
that are **bit-identical** to a per-cycle Python-loop run.

These tests check that construction over the full app x model matrix,
plus the mode semantics around it:

* profile-mode native runs burst (``dispatch_counts["bursts"] > 0``)
  and every deterministic counter, family and histogram matches the
  Python backend exactly,
* trace-mode observers still take the per-cycle path (events cannot be
  emitted from inside a burst),
* an un-instrumented run renders byte-identical C to the plain
  generator (the telemetry variant is a separate artifact),
* the hot-region report built from a native profile run matches the
  one built from a Python run.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.apps import build_adpcm, build_fir, build_gsm
from repro.bench import load_app_program
from repro.sim import create_simulator
from repro.simcc.native import NativePipeline, native_available

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no usable C compiler on the host"
)

APP_MATRIX = [
    ("fir-c62x", lambda: build_fir("c62x", taps=4, samples=8)),
    ("fir-c54x", lambda: build_fir("c54x", taps=4, samples=8)),
    ("fir-tinydsp", lambda: build_fir("tinydsp", taps=4, samples=8)),
    ("adpcm-c62x", lambda: build_adpcm(samples=16)),
    ("gsm-c62x", lambda: build_gsm(target_words=1024)),
]

#: The deterministic slice of the metrics registry both paths must
#: agree on bit-for-bit.  (Span histograms and run.wall_seconds are
#: wall-clock dependent; native.* gauges intentionally differ.)
PARITY_COUNTERS = (
    "sim.issue_cycles", "sim.instructions_issued", "sim.bubble_cycles",
    "sim.squashed_slots", "control.stalls", "control.flushes",
    "control.halts",
)
PARITY_FAMILIES = (
    "sim.fetch_by_pc", "sim.cycles_by_pc", "sim.packet_sizes",
    "sim.bubbles_by_reason",
)
PARITY_HISTOGRAMS = ("sim.packet_insns",)


def _observed_run(model, program, kind, backend, mode):
    observer = obs.Observer(mode=mode)
    simulator = create_simulator(
        model, kind, backend=backend, observer=observer
    )
    simulator.load_program(program)
    simulator.run()
    return observer, simulator


def _parity_slice(observer):
    metrics = observer.metrics
    return {
        "counters": {
            name: metrics.counter(name) for name in PARITY_COUNTERS
        },
        "families": {
            name: dict(metrics.family(name)) for name in PARITY_FAMILIES
        },
        "histograms": {
            name: metrics.histograms[name].to_dict()
            for name in PARITY_HISTOGRAMS
            if name in metrics.histograms
        },
    }


@needs_cc
@pytest.mark.parametrize(
    "builder", [entry[1] for entry in APP_MATRIX],
    ids=[entry[0] for entry in APP_MATRIX],
)
def test_profile_mode_burst_counters_bit_identical(builder):
    """Per-packet counters from the telemetry flush match a per-cycle
    Python-loop run exactly, on every app x model pair."""
    app = builder()
    model, program = load_app_program(app)

    py_obs, py_sim = _observed_run(
        model, program, "unfolded", "auto", obs.PROFILE_MODE
    )
    nat_obs, nat_sim = _observed_run(
        model, program, "unfolded", "native", obs.PROFILE_MODE
    )

    assert isinstance(nat_sim.engine, NativePipeline)
    counts = nat_sim.engine.dispatch_counts
    assert counts["bursts"] > 0, "observer must not disable bursting"
    assert counts["native_cycles"] > 0
    assert nat_sim.cycles == py_sim.cycles
    assert nat_sim.state.differences(py_sim.state) == []
    assert _parity_slice(nat_obs) == _parity_slice(py_obs)
    # Attribution is exhaustive: every simulated cycle is billed to
    # some packet.
    attributed = sum(nat_obs.metrics.family("sim.cycles_by_pc").values())
    assert attributed == nat_sim.cycles


@needs_cc
@pytest.mark.parametrize(
    "kind", ["compiled", "static", "unfolded", "unfolded_static"]
)
def test_profile_mode_bursts_on_every_table_kind(kind):
    """Every table-based kind keeps bursting under a profile observer,
    with counters matching its own Python-backend run."""
    app = build_fir("c62x", taps=4, samples=8)
    model, program = load_app_program(app)

    py_obs, py_sim = _observed_run(
        model, program, kind, "auto", obs.PROFILE_MODE
    )
    nat_obs, nat_sim = _observed_run(
        model, program, kind, "native", obs.PROFILE_MODE
    )

    assert nat_sim.engine.dispatch_counts["bursts"] > 0
    assert nat_sim.cycles == py_sim.cycles
    assert _parity_slice(nat_obs) == _parity_slice(py_obs)


@needs_cc
def test_counters_mode_bursts_without_attribution():
    app = build_fir("c62x", taps=4, samples=8)
    model, program = load_app_program(app)

    observer, simulator = _observed_run(
        model, program, "unfolded_static", "native", obs.COUNTERS_MODE
    )
    counts = simulator.engine.dispatch_counts
    assert counts["bursts"] > 0
    assert observer.metrics.counter("sim.issue_cycles") > 0
    # counters mode skips per-packet cycle attribution entirely.
    assert observer.metrics.family("sim.cycles_by_pc") == {}
    assert observer.events_of(obs.FETCH) == []


@needs_cc
def test_trace_mode_still_takes_per_cycle_path():
    """Per-cycle events cannot come out of a burst: a trace-mode
    observer forces the Python path and records every fetch."""
    app = build_fir("c62x", taps=4, samples=8)
    model, program = load_app_program(app)

    observer, simulator = _observed_run(
        model, program, "unfolded_static", "native", obs.TRACE_MODE
    )
    counts = simulator.engine.dispatch_counts
    assert counts["bursts"] == 0
    assert counts["python_cycles"] == simulator.cycles
    fetches = observer.events_of(obs.FETCH)
    assert len(fetches) == observer.metrics.counter("sim.issue_cycles")


@needs_cc
def test_hot_region_report_backend_invariant():
    """The profile report ranks the same packets with the same shares
    whether the cycles were attributed in Python or flushed from C."""
    app = build_fir("c62x", taps=4, samples=8)
    model, program = load_app_program(app)

    py_obs, _ = _observed_run(
        model, program, "unfolded", "auto", obs.PROFILE_MODE
    )
    nat_obs, _ = _observed_run(
        model, program, "unfolded", "native", obs.PROFILE_MODE
    )
    py_report = obs.hot_region_report(py_obs)
    nat_report = obs.hot_region_report(nat_obs)
    assert py_report["basis"] == nat_report["basis"] == "attributed_cycles"
    assert py_report["packets"] == nat_report["packets"]
    assert py_report["windows"] == nat_report["windows"]
    assert py_report["total_cycles"] == nat_report["total_cycles"]


def test_plain_source_untouched_by_telemetry_support():
    """telemetry=False renders C with no trace of the side-region, so
    un-instrumented runs reuse their pre-existing cached artifacts."""
    from repro.machine.control import PipelineControl
    from repro.machine.state import ProcessorState
    from repro.simcc import SimulationCompiler
    from repro.simcc.native import cgen
    from repro.simcc.native.layout import StateLayout, TEL_HEADER_SLOTS

    app = build_fir("c62x", taps=4, samples=8)
    model, program = load_app_program(app)
    state = ProcessorState(model)
    program.load_into(state)
    table = SimulationCompiler(model).compile_portable(
        program, level="instantiated"
    ).bind(state, PipelineControl())
    layout = StateLayout.build(model)

    plain_source, plain_plan = cgen.render_native_source(
        table, model, layout
    )
    tel_source, tel_plan = cgen.render_native_source(
        table, model, layout, telemetry=True
    )
    assert "TEL_" not in plain_source
    assert plain_plan.telemetry is None
    assert "TEL_DISP" in tel_source
    region = tel_plan.telemetry
    assert region is not None
    assert region.base == layout.total_slots
    assert region.slots == TEL_HEADER_SLOTS + 2 * region.n_pc
    # The telemetry variant is a different artifact by construction.
    assert plain_source != tel_source


def test_telemetry_region_geometry():
    from repro.simcc.native import layout as L

    region = L.TelemetryRegion(base=100, n_pc=7)
    assert region.disp_base == 100 + L.TEL_HEADER_SLOTS
    assert region.cyc_base == 100 + L.TEL_HEADER_SLOTS + 7
    assert region.slots == L.TEL_HEADER_SLOTS + 14
    assert "telemetry" in region.describe()


def test_on_burst_telemetry_matches_per_cycle_hooks():
    """The flush helper reproduces exactly what the per-cycle hooks
    would have accumulated (no compiler required)."""

    class _Slot:
        def __init__(self, insn_count):
            self.insn_count = insn_count
            self.words = insn_count
            self.label = None

    reference = obs.Observer(mode=obs.PROFILE_MODE, record=False)
    # pc 10 issues twice (2 insns), pc 11 once (1 insn), then a stall
    # bubble billed to pc 11, a drain bubble, and a squash of 3 slots.
    reference.on_issue(0, 10, _Slot(2))
    reference.on_issue(1, 10, _Slot(2))
    reference.on_issue(2, 11, _Slot(1))
    reference.on_bubble(3, "stall")
    reference.on_bubble(4, "drain")
    reference.on_squash(5, 3)
    reference.on_stall("EX", 1)
    reference.on_flush("EX")
    reference.on_halt("EX")

    flushed = obs.Observer(mode=obs.PROFILE_MODE, record=False)
    flushed.on_burst_telemetry(
        pc_base=10, dispatch=[2, 1], cycles=[2, 3], insns=[2, 1],
        drain_bubbles=1, stall_bubbles=1, squashed=3,
        ctrl_stalls=1, ctrl_flushes=1, ctrl_halts=1,
        stray_cycles=0, stray_pc=None, last_pc=11,
    )

    assert flushed.metrics.snapshot() == reference.metrics.snapshot()
    assert flushed.last_issue_pc == reference.last_issue_pc == 11
