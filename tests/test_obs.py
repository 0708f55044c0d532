"""Tests for the observability layer (repro.obs)."""

import json
import re

import pytest

from repro import obs
from repro.sim import SIM_KINDS, create_simulator


SOURCE = """
        .entry start
start:  ldi r1, 4
        ldi r2, -1
loop:   add r3, r3, r1
        add r1, r1, r2
        brnz r1, loop
        st r3, 0
        halt
"""


def run_traced(model, tools, kind, observer=None, cache=None):
    program = tools.assembler.assemble_text(SOURCE)
    if observer is None:
        observer = obs.Observer()
    simulator = create_simulator(model, kind, observer=observer,
                                 cache=cache)
    simulator.load_program(program)
    simulator.run(max_cycles=10_000)
    return observer, simulator, program


@pytest.fixture
def traced(testmodel, testmodel_tools):
    return run_traced(testmodel, testmodel_tools, "compiled")


class TestEvents:
    def test_event_ordering(self, traced):
        observer, _, _ = traced
        timestamps = [event.ts for event in observer.events]
        assert timestamps == sorted(timestamps)
        cycles = [e.args["cycle"] for e in observer.events_of(obs.FETCH)]
        assert cycles == sorted(cycles)
        assert observer.events[-1].kind == obs.RUN_END

    def test_fetch_events_cover_issues(self, traced):
        observer, simulator, _ = traced
        fetches = observer.events_of(obs.FETCH)
        assert len(fetches) == observer.metrics.counter("sim.issue_cycles")
        bubbles = observer.events_of(obs.BUBBLE)
        assert len(fetches) + len(bubbles) == simulator.cycles

    def test_control_events(self, traced):
        observer, _, _ = traced
        assert len(observer.events_of(obs.HALT)) == 1
        assert observer.events_of(obs.FLUSH)  # halt flushes younger slots
        # Taken brnz branches flush; the squashed slots are reported.
        squashes = observer.events_of(obs.SQUASH)
        assert sum(e.args["slots"] for e in squashes) \
            == observer.metrics.counter("sim.squashed_slots")

    def test_register_write_events(self, testmodel):
        observer = obs.Observer()
        simulator = create_simulator(testmodel, "compiled",
                                     observer=observer)
        simulator.state.write_register("R", 1, 42)
        events = observer.events_of(obs.REG_WRITE)
        assert len(events) == 1
        assert events[0].args == {"register": "R", "index": 1, "value": 42}

    def test_memory_write_events(self, testmodel):
        observer = obs.Observer()
        simulator = create_simulator(testmodel, "compiled",
                                     observer=observer)
        simulator.state.write_memory("dmem", 3, 7)
        events = observer.events_of(obs.MEM_WRITE)
        assert len(events) == 1
        assert events[0].args["address"] == 3

    def test_metrics_only_observer_records_no_events(
            self, testmodel, testmodel_tools):
        observer = obs.Observer(record=False)
        observer, simulator, _ = run_traced(
            testmodel, testmodel_tools, "compiled", observer=observer)
        assert observer.events is None
        assert observer.events_of(obs.FETCH) == []
        assert observer.metrics.counter("sim.issue_cycles") > 0


class TestSpans:
    def test_span_nesting(self, traced):
        observer, _, _ = traced
        load = observer.spans_of("sim.load")[0]
        compile_span = observer.spans_of("simcc.compile")[0]
        decode = observer.spans_of("simcc.decode")[0]
        assert load.depth == 0 and load.parent is None
        assert compile_span.parent == "sim.load"
        assert decode.parent == "simcc.compile"
        assert load.contains(compile_span)
        assert compile_span.contains(decode)

    def test_compile_phase_spans_present(self, traced):
        observer, _, _ = traced
        names = {span.name for span in observer.spans}
        assert {"sim.load", "simcc.compile", "simcc.decode",
                "simcc.sequence", "simcc.packetize"} <= names

    def test_instantiated_level_records_instantiate_span(
            self, testmodel, testmodel_tools):
        # Level 3 is built by the portable compiler: one span per step,
        # abstract interpretation included, and no level-2 sequencing.
        observer, _, _ = run_traced(testmodel, testmodel_tools, "unfolded")
        names = {span.name for span in observer.spans}
        assert {"simcc.decode", "simcc.packetize",
                "simcc.absint"} <= names
        assert not observer.spans_of("simcc.sequence")

    def test_span_durations_accumulate_into_histograms(self, traced):
        observer, _, _ = traced
        histogram = observer.metrics.histograms["span.simcc.decode"]
        assert histogram.count == 1
        assert histogram.total >= 0


class TestMetricsAcrossKinds:
    def _sim_projection(self, snapshot):
        """The kind-independent slice of a metrics snapshot."""
        counters = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("sim.")
        }
        families = {
            name: snapshot["families"].get(name, {})
            for name in ("sim.fetch_by_pc", "sim.bubbles_by_reason",
                         "sim.packet_sizes")
        }
        return counters, families

    def test_snapshots_identical_across_kinds(self, testmodel,
                                              testmodel_tools):
        projections = {}
        for kind in SIM_KINDS:
            observer, _, _ = run_traced(testmodel, testmodel_tools, kind)
            projections[kind] = self._sim_projection(observer.snapshot())
        baseline = projections["compiled"]
        for kind, projection in projections.items():
            assert projection == baseline, kind

    def test_static_kind_counts_composition(self, testmodel,
                                            testmodel_tools):
        observer, _, _ = run_traced(testmodel, testmodel_tools, "static")
        metrics = observer.metrics
        static = metrics.counter("sched.static_cycles")
        dynamic = metrics.counter("sched.dynamic_cycles")
        assert static + dynamic == metrics.gauges["run.cycles"]
        assert 0.0 <= metrics.gauges["sched.static_cycle_ratio"] <= 1.0

    def test_run_gauges(self, traced):
        observer, simulator, _ = traced
        gauges = observer.metrics.gauges
        assert gauges["run.cycles"] == simulator.cycles
        assert gauges["run.kind"] == "compiled"
        assert gauges["run.wall_seconds"] > 0
        assert gauges["run.cycles_per_second"] > 0

    def test_opcode_folding(self, testmodel, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(SOURCE)
        observer = obs.Observer(
            labeler=obs.opcode_labeler(testmodel, program))
        simulator = create_simulator(testmodel, "compiled",
                                     observer=observer)
        simulator.load_program(program)
        simulator.run(max_cycles=10_000)
        by_opcode = observer.metrics.family("sim.dispatch_by_opcode")
        assert by_opcode.get("add", 0) >= 8  # 2 adds x 4 iterations
        assert sum(by_opcode.values()) \
            == observer.metrics.counter("sim.issue_cycles")


class TestCacheEvents:
    def test_cache_miss_then_hit(self, testmodel, testmodel_tools,
                                 tmp_path):
        from repro.simcc.cache import SimulationCache

        cache = SimulationCache(tmp_path)
        cold, _, _ = run_traced(testmodel, testmodel_tools, "compiled",
                                cache=cache)
        outcomes = cold.metrics.family("cache.outcomes")
        assert outcomes == {"miss": 1, "store": 1}
        assert cold.metrics.gauges["cache.hit_rate"] == 0.0
        assert cold.spans_of("cache.lookup")
        assert cold.spans_of("cache.store")
        assert cold.spans_of("cache.bind")

        warm, _, _ = run_traced(testmodel, testmodel_tools, "compiled",
                                cache=cache)
        outcomes = warm.metrics.family("cache.outcomes")
        assert outcomes == {"memory_hit": 1}
        assert warm.metrics.gauges["cache.hit_rate"] == 1.0
        # A warm load never runs the simulation compiler.
        assert not warm.spans_of("simcc.compile")


class TestStaticScheduling:
    @pytest.mark.parametrize("kind", ["static", "unfolded_static"])
    def test_load_runs_no_hazard_analysis(self, testmodel, testmodel_tools,
                                          kind):
        observer, _, _ = run_traced(testmodel, testmodel_tools, kind)
        assert observer.spans_of("simcc.compile")
        assert not observer.spans_of("simcc.analyze")
        assert not observer.events_of(obs.HAZARD)
        # The loop program branches, so control-capable windows fall
        # back to the dynamic path and say why: control is the only
        # reason there is.
        fallbacks = observer.events_of(obs.FALLBACK)
        assert fallbacks
        assert {e.args["reason"] for e in fallbacks} == {"control"}
        assert observer.metrics.family("sched.fallbacks_by_reason") == {
            "control": len(fallbacks)}

    def test_analyzer_emits_one_verdict_per_packet(self, testmodel,
                                                   testmodel_tools):
        from repro.analysis import analyze_program

        program = testmodel_tools.assembler.assemble_text(SOURCE)
        observer = obs.Observer()
        result = analyze_program(testmodel, program, observer=observer)
        verdicts = observer.events_of(obs.HAZARD)
        assert len(verdicts) == len(result.cfg.order)
        assert {e.args["pc"]: e.args["verdict"] for e in verdicts} \
            == result.safety


class TestExporters:
    def test_chrome_trace_schema(self, traced):
        observer, _, _ = traced
        trace = obs.to_chrome_trace(observer, process_name="test")
        # Strict JSON: no NaN/Infinity anywhere.
        encoded = json.dumps(trace, allow_nan=False)
        decoded = json.loads(encoded)
        assert isinstance(decoded["traceEvents"], list)
        phases = {"M", "X", "i"}
        for entry in decoded["traceEvents"]:
            assert entry["ph"] in phases
            assert isinstance(entry["pid"], int)
            if entry["ph"] == "X":
                assert entry["dur"] >= 0
                assert isinstance(entry["ts"], float)
            if entry["ph"] == "i":
                assert entry["s"] == "t"
        names = {e["name"] for e in decoded["traceEvents"]}
        assert "sim.load" in names and "fetch" in names
        assert decoded["otherData"]["metrics"]["counters"]

    def test_jsonl_lines_parse(self, traced):
        observer, _, _ = traced
        lines = obs.to_jsonl_lines(observer)
        records = [json.loads(line) for line in lines]
        types = {record["type"] for record in records}
        assert types == {"event", "span", "metrics"}
        assert records[-1]["type"] == "metrics"

    def test_text_summary_sections(self, traced):
        observer, _, _ = traced
        summary = obs.text_summary(observer)
        assert "phases:" in summary
        assert "counters:" in summary
        assert "sim.issue_cycles" in summary

    def test_write_trace_formats(self, traced, tmp_path):
        observer, _, _ = traced
        for fmt, check in (
            ("chrome", lambda text: json.loads(text)["traceEvents"]),
            ("jsonl", lambda text: [json.loads(l) for l in
                                    text.splitlines()]),
            ("summary", lambda text: "counters:" in text),
        ):
            path = tmp_path / ("trace." + fmt)
            obs.write_trace(observer, path, trace_format=fmt)
            assert check(path.read_text())

    def test_write_trace_rejects_unknown_format(self, traced, tmp_path):
        observer, _, _ = traced
        with pytest.raises(ValueError):
            obs.write_trace(observer, tmp_path / "t", trace_format="xml")

    def test_write_metrics(self, traced, tmp_path):
        observer, _, _ = traced
        path = tmp_path / "metrics.json"
        obs.write_metrics(observer, path)
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["sim.issue_cycles"] > 0
        # Family keys render as hex program addresses.
        assert all(key.startswith("0x")
                   for key in snapshot["families"]["sim.fetch_by_pc"])


def _step_paths(monkeypatch, engine):
    """Record which cycle body each ``engine.step()`` runs."""
    calls = []
    cls = type(engine)
    monkeypatch.setattr(cls, "_run_plain",
                        lambda self, cycles: calls.append(("plain", cycles)))
    monkeypatch.setattr(cls, "_step_traced",
                        lambda self: calls.append("traced"))
    return calls


class TestDisabledPath:
    def test_no_observer_means_plain_step(self, testmodel,
                                          testmodel_tools, monkeypatch):
        program = testmodel_tools.assembler.assemble_text(SOURCE)
        simulator = create_simulator(testmodel, "compiled")
        simulator.load_program(program)
        engine = simulator.engine
        calls = _step_paths(monkeypatch, engine)
        engine.step()
        assert calls == [("plain", 1)]

    def test_attach_detach_swaps_step(self, testmodel, testmodel_tools,
                                      monkeypatch):
        program = testmodel_tools.assembler.assemble_text(SOURCE)
        simulator = create_simulator(testmodel, "static")
        simulator.load_program(program)
        engine = simulator.engine
        calls = _step_paths(monkeypatch, engine)
        observer = obs.Observer()
        simulator.attach_observer(observer)
        engine.step()
        simulator.attach_observer(None)
        engine.step()
        assert calls == ["traced", ("plain", 1)]

    def test_tracing_does_not_change_results(self, testmodel,
                                             testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(SOURCE)
        for kind in SIM_KINDS:
            plain = create_simulator(testmodel, kind)
            plain.load_program(program)
            plain_stats = plain.run(max_cycles=10_000)
            traced = create_simulator(testmodel, kind,
                                      observer=obs.Observer())
            traced.load_program(program)
            traced_stats = traced.run(max_cycles=10_000)
            assert plain.state.differences(traced.state) == [], kind
            assert plain_stats.cycles == traced_stats.cycles, kind
            assert plain_stats.instructions \
                == traced_stats.instructions, kind

    def test_null_sink_is_noop(self, testmodel, testmodel_tools):
        sink = obs.NULL_SINK
        observer = obs.Observer(sinks=(sink,))
        observer, _, _ = run_traced(testmodel, testmodel_tools,
                                    "compiled", observer=observer)
        # The base sink ignores everything and closes cleanly.
        observer.close()

    def test_list_sink_collects(self, testmodel, testmodel_tools):
        sink = obs.ListSink()
        observer = obs.Observer(sinks=(sink,))
        observer, _, _ = run_traced(testmodel, testmodel_tools,
                                    "compiled", observer=observer)
        assert len(sink.events) == len(observer.events)
        assert len(sink.spans) == len(observer.spans)


class TestSpanNestingRoundTrip:
    def test_chrome_spans_nest(self, traced):
        observer, _, _ = traced
        trace = obs.to_chrome_trace(observer)
        slices = [entry for entry in trace["traceEvents"]
                  if entry["ph"] == "X"]
        by_name = {entry["name"]: entry for entry in slices}
        load = by_name["sim.load"]
        assert load["args"]["depth"] == 0
        names = {entry["name"] for entry in slices}
        children = [entry for entry in slices
                    if entry["args"].get("parent") == "sim.load"]
        assert children, "compile phases must nest under sim.load"
        for child in children:
            assert child["args"]["depth"] == load["args"]["depth"] + 1
            assert child["args"]["parent"] in names
            # The child's interval lies inside the parent's.
            assert child["ts"] >= load["ts"]
            assert (child["ts"] + child["dur"]
                    <= load["ts"] + load["dur"] + 1e-3)


class TestOpenMetrics:
    # One exposition line: a comment, or `name{labels} value`.
    _SAMPLE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$")

    def test_exposition_lints(self, traced):
        observer, _, _ = traced
        text = obs.to_openmetrics(observer)
        assert text.endswith("# EOF\n")
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        for line in lines[:-1]:
            if line.startswith("# TYPE "):
                parts = line.split()
                assert len(parts) == 4
                assert parts[3] in ("counter", "gauge", "info", "summary")
            else:
                assert self._SAMPLE.match(line), line

    def test_values_round_trip(self, traced):
        observer, _, _ = traced
        metrics = observer.metrics
        samples = {}
        for line in obs.to_openmetrics(observer).splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = value
        assert (int(samples["sim_issue_cycles_total"])
                == metrics.counter("sim.issue_cycles"))
        assert int(samples["run_cycles"]) == metrics.gauges["run.cycles"]
        assert 'run_kind_info{value="compiled"} 1' in {
            "%s %s" % item for item in samples.items()
        }
        histogram = metrics.histograms["sim.packet_insns"]
        assert int(samples["sim_packet_insns_count"]) == histogram.count
        assert int(samples["sim_packet_insns_sum"]) == histogram.total
        # Per-address counter families carry the address as a label.
        pc, count = next(iter(metrics.family("sim.fetch_by_pc").items()))
        assert samples['sim_fetch_by_pc_total{key="0x%x"}' % pc] \
            == str(count)

    def test_write_trace_openmetrics(self, traced, tmp_path):
        observer, _, _ = traced
        path = tmp_path / "metrics.om"
        obs.write_trace(observer, path, trace_format="openmetrics")
        assert path.read_text().endswith("# EOF\n")


class TestEventRing:
    def test_capacity_bounds_and_counts_drops(self):
        observer = obs.Observer(event_capacity=4)
        for index in range(6):
            observer.emit("fetch", cycle=index)
        assert len(observer.events) == 4
        assert [e.args["cycle"] for e in observer.events] == [2, 3, 4, 5]
        assert observer.metrics.counter("obs.events_dropped") == 2

    def test_unbounded_opt_in(self):
        observer = obs.Observer(event_capacity=None)
        for index in range(10):
            observer.emit("fetch", cycle=index)
        assert isinstance(observer.events, list)
        assert len(observer.events) == 10
        assert observer.metrics.counter("obs.events_dropped") == 0

    def test_default_is_bounded(self):
        observer = obs.Observer()
        assert observer.events.maxlen == obs.DEFAULT_EVENT_CAPACITY


class TestObserverModes:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            obs.Observer(mode="verbose")

    def test_profile_mode_attributes_without_events(
        self, testmodel, testmodel_tools
    ):
        observer = obs.Observer(mode=obs.PROFILE_MODE)
        observer, simulator, _ = run_traced(
            testmodel, testmodel_tools, "compiled", observer=observer
        )
        assert not observer.wants_cycle_events
        assert observer.events_of(obs.FETCH) == []
        by_pc = observer.metrics.family("sim.cycles_by_pc")
        assert sum(by_pc.values()) == simulator.cycles

    def test_counters_mode_skips_attribution(
        self, testmodel, testmodel_tools
    ):
        observer = obs.Observer(mode=obs.COUNTERS_MODE)
        observer, _, _ = run_traced(
            testmodel, testmodel_tools, "compiled", observer=observer
        )
        assert observer.metrics.counter("sim.issue_cycles") > 0
        assert observer.metrics.family("sim.cycles_by_pc") == {}

    def test_trace_mode_attributes_every_cycle(
        self, testmodel, testmodel_tools
    ):
        observer, simulator, _ = run_traced(
            testmodel, testmodel_tools, "compiled"
        )
        assert observer.wants_cycle_events
        by_pc = observer.metrics.family("sim.cycles_by_pc")
        assert sum(by_pc.values()) == simulator.cycles

    def test_histogram_dict_includes_mean(self, traced):
        observer, _, _ = traced
        payload = observer.metrics.histograms["sim.packet_insns"].to_dict()
        assert payload["mean"] == payload["total"] / payload["count"]


class TestFlightRecorder:
    def test_ring_bounds_and_drops(self):
        recorder = obs.FlightRecorder(capacity=3)
        observer = obs.Observer(sinks=(recorder,), record=False)
        for index in range(5):
            observer.emit("fetch", cycle=index)
        assert len(recorder) == 3
        assert recorder.dropped == 2
        snapshot = recorder.snapshot()
        assert [entry["cycle"] for entry in snapshot] == [2, 3, 4]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            obs.FlightRecorder(capacity=0)

    def test_enable_is_idempotent_and_resizable(self):
        observer = obs.Observer()
        first = observer.enable_flight_recorder(16)
        assert observer.enable_flight_recorder(16) is first
        resized = observer.enable_flight_recorder(8)
        assert resized is not first
        assert observer.flight_recorder() is resized

    def test_timeout_attaches_snapshot(self, testmodel, testmodel_tools):
        from repro.support.errors import SimulationTimeout

        program = testmodel_tools.assembler.assemble_text(SOURCE)
        observer = obs.Observer()
        observer.enable_flight_recorder(8)
        simulator = create_simulator(testmodel, "compiled",
                                     observer=observer)
        simulator.load_program(program)
        with pytest.raises(SimulationTimeout) as excinfo:
            simulator.run_until(lambda sim: False, max_cycles=5)
        recording = excinfo.value.flight_recording
        assert recording
        assert len(recording) <= 8
        assert all(entry["type"] == "event" for entry in recording)

    def test_survives_checkpoint_restore(self, testmodel,
                                         testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(SOURCE)
        observer = obs.Observer()
        observer.enable_flight_recorder(64)
        first = create_simulator(testmodel, "compiled",
                                 observer=observer)
        first.load_program(program)
        first.run_to_pc(program.entry + 2)
        checkpoint = first.checkpoint()

        second = create_simulator(testmodel, "compiled",
                                  observer=observer)
        second.load_program(program)
        second.restore(checkpoint)
        second.run(max_cycles=10_000)

        kinds = [entry["kind"]
                 for entry in observer.flight_recorder().snapshot()]
        assert "resilience.checkpoint" in kinds
        assert "resilience.restore" in kinds
        assert kinds.index("resilience.checkpoint") \
            < kinds.index("resilience.restore")
        assert "run.end" in kinds


class TestGlobalObserver:
    def test_install_uninstall(self, testmodel, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(SOURCE)
        observer = obs.install(obs.Observer())
        try:
            simulator = create_simulator(testmodel, "compiled")
            assert simulator.observer is observer
            simulator.load_program(program)
            simulator.run(max_cycles=10_000)
            assert observer.metrics.counter("sim.issue_cycles") > 0
        finally:
            assert obs.uninstall() is observer
        assert obs.get_observer() is None
        later = create_simulator(testmodel, "compiled")
        assert later.observer is None


class TestHotWindowExtents:
    """``hot_region_report`` groups windows by packet start address:
    every packet counts as one word wide, so ``limit`` is the last hot
    packet's start + 1 and adjacent multi-word packets stay apart."""

    @staticmethod
    def _observer_with(weights):
        observer = obs.Observer(record=False)
        for pc, cycles in weights.items():
            observer.metrics.bump("sim.cycles_by_pc", pc, cycles)
        return observer

    def test_without_extents_multiword_packets_split(self):
        observer = self._observer_with({0: 60, 5: 40})
        report = obs.hot_region_report(observer, max_gap=4)
        assert [w["start"] for w in report["windows"]] == [0, 5]
        assert all(w["limit"] == w["start"] + 1
                   for w in report["windows"])
