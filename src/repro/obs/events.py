"""Structured trace events and the observer that collects them.

The :class:`Observer` is the one object the rest of the system talks
to.  Hook sites throughout the simulators, the simulation compiler and
the cache hold a reference that is ``None`` when observability is off;
the entire disabled cost is that one ``is not None`` check (the
pipeline drivers go further and swap in an unhooked step function, so
their steady-state loop carries no check at all).

An observer owns

* a list of recorded :class:`TraceEvent` objects (optional -- metrics-
  only observers pass ``record=False``),
* any number of pluggable sinks (:mod:`repro.obs.sinks`) that see every
  event and span as it happens,
* a :class:`repro.obs.metrics.MetricsRegistry` updated inline by the
  hook helpers,
* a span stack for nested phase timing (:mod:`repro.obs.spans`).

Event timestamps are seconds on a monotonic clock, zeroed at observer
creation; ``clock`` is injectable for deterministic tests.
"""

from __future__ import annotations

import time
from collections import deque

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTimer

# -- event kinds -------------------------------------------------------------

FETCH = "fetch"              # an issue slot entered the pipeline
BUBBLE = "bubble"            # a cycle issued nothing (stall/drain)
SQUASH = "squash"            # in-flight slots squashed by a flush
STALL = "stall"              # behaviour requested stall(n)
FLUSH = "flush"              # behaviour requested flush()
HALT = "halt"                # behaviour requested halt()
FALLBACK = "sched.fallback"  # static window fell back to dynamic path
HAZARD = "hazard.verdict"    # per-packet hazard verdict from analysis
REG_WRITE = "reg.write"      # checked register write
MEM_WRITE = "mem.write"      # checked memory write
CACHE = "cache"              # simulation-table cache lookup/store
RUN_END = "run.end"          # simulator run finished
SELF_MODIFY = "resilience.self_modify"  # store into compiled program memory
GUARD_RESOLVE = "resilience.resolve"    # stale packet recompiled/interpreted
CHECKPOINT = "resilience.checkpoint"    # checkpoint taken
RESTORE = "resilience.restore"          # checkpoint restored
TIMEOUT = "resilience.timeout"          # cycle/wall budget expired
FAULT = "resilience.fault"              # injected fault (test harness)
NATIVE = "native"                       # native artifact outcome (hit/compile)
NATIVE_FALLBACK = "native.fallback"     # native backend unavailable, degraded

EVENT_KINDS = (
    FETCH, BUBBLE, SQUASH, STALL, FLUSH, HALT,
    FALLBACK, HAZARD, REG_WRITE, MEM_WRITE, CACHE, RUN_END,
    SELF_MODIFY, GUARD_RESOLVE, CHECKPOINT, RESTORE, TIMEOUT, FAULT,
    NATIVE, NATIVE_FALLBACK,
)

# -- observer modes ----------------------------------------------------------

#: Per-cycle trace events plus full metrics (the historical behaviour).
#: The native backend cannot emit per-cycle events from inside a burst,
#: so trace-mode runs take the per-cycle Python path.
TRACE_MODE = "trace"
#: Metrics plus per-packet cycle attribution (``sim.cycles_by_pc``), no
#: per-cycle event objects -- native bursts stay enabled, flushing their
#: telemetry side-buffer into the registry at burst boundaries.
PROFILE_MODE = "profile"
#: Metrics only (no cycle attribution, no per-cycle events); the
#: cheapest always-on configuration, also burst-compatible.
COUNTERS_MODE = "counters"

OBSERVER_MODES = (TRACE_MODE, PROFILE_MODE, COUNTERS_MODE)

#: Default bound on the recorded-event ring (satellite: long traced runs
#: must not grow memory without limit).  Pass ``event_capacity=None``
#: for the old unbounded list.
DEFAULT_EVENT_CAPACITY = 1 << 18


class TraceEvent:
    """One structured trace record: timestamp, kind, open payload."""

    __slots__ = ("ts", "kind", "args")

    def __init__(self, ts, kind, args):
        self.ts = ts
        self.kind = kind
        self.args = args

    def __repr__(self):
        return "TraceEvent(%.6f, %r, %r)" % (self.ts, self.kind, self.args)

    def to_dict(self):
        payload = {"type": "event", "ts": self.ts, "kind": self.kind}
        payload.update(self.args)
        return payload


def _window_text(pcs):
    return "/".join("-" if pc is None else "0x%x" % pc for pc in pcs)


class Observer:
    """Collects trace events, spans and metrics for one (or more) runs.

    ``labeler`` optionally maps a program address to a human-readable
    label (typically the disassembly of the packet issued there); it is
    consulted only at :meth:`finish_run` to fold per-address dispatch
    counts into per-opcode counts -- never on the hot path.

    ``mode`` selects how much the per-cycle hook helpers produce:

    * ``"trace"`` (default) -- per-cycle trace events plus metrics plus
      per-packet cycle attribution.  Native bursts are disabled (events
      cannot be emitted from C), so runs take the per-cycle path.
    * ``"profile"`` -- metrics plus cycle attribution, no per-cycle
      event objects.  Native bursts stay enabled; the engine flushes
      its telemetry side-buffer here at burst boundaries.
    * ``"counters"`` -- metrics only; also burst-compatible.

    ``event_capacity`` bounds the recorded-event buffer as a ring: once
    full, the oldest event is evicted and the ``obs.events_dropped``
    counter ticks.  ``None`` keeps the historical unbounded list.
    """

    def __init__(self, sinks=(), metrics=None, clock=None, labeler=None,
                 record=True, mode=TRACE_MODE,
                 event_capacity=DEFAULT_EVENT_CAPACITY):
        if mode not in OBSERVER_MODES:
            raise ValueError(
                "unknown observer mode %r (choose from %s)"
                % (mode, ", ".join(OBSERVER_MODES))
            )
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sinks = list(sinks)
        self.mode = mode
        self._cycle_events = mode == TRACE_MODE
        self._attr_cycles = mode != COUNTERS_MODE
        self._last_issue_pc = None
        self._event_capacity = event_capacity
        if not record:
            self.events = None
        elif event_capacity is None:
            self.events = []
        else:
            self.events = deque(maxlen=event_capacity)
        self.spans = []
        self.labeler = labeler
        self._span_stack = []

    @property
    def wants_cycle_events(self):
        """Whether this observer needs one event object per cycle.

        The native burst engine checks this to decide whether an
        attached observer forces the per-cycle Python path (trace mode)
        or can be served by the in-burst telemetry flush
        (profile/counters modes).
        """
        return self._cycle_events

    @property
    def last_issue_pc(self):
        """The address of the most recently issued packet (or None).

        Stall and drain bubbles are attributed to this packet; the
        burst engine seeds the telemetry side-buffer with it so the
        attribution rule is identical across the Python and C paths.
        """
        return self._last_issue_pc

    # -- clock ----------------------------------------------------------------

    def now(self):
        """Seconds since observer creation (monotonic)."""
        return self._clock() - self._epoch

    # -- raw emission ----------------------------------------------------------

    def emit(self, kind, **args):
        """Record one event and forward it to every sink."""
        event = TraceEvent(self.now(), kind, args)
        events = self.events
        if events is not None:
            if (self._event_capacity is not None
                    and len(events) == self._event_capacity):
                self.metrics.inc("obs.events_dropped")
            events.append(event)
        for sink in self.sinks:
            sink.event(event)
        return event

    def events_of(self, *kinds):
        """Recorded events filtered by kind, in emission order."""
        if self.events is None:
            return []
        wanted = set(kinds)
        return [event for event in self.events if event.kind in wanted]

    # -- spans -----------------------------------------------------------------

    def span(self, name, **args):
        """Context manager timing one named phase (spans nest)."""
        return SpanTimer(self, name, args)

    def _finish_span(self, span):
        self.spans.append(span)
        self.metrics.observe("span.%s" % span.name, span.duration)
        for sink in self.sinks:
            sink.span(span)

    def spans_of(self, name):
        return [span for span in self.spans if span.name == name]

    # -- pipeline hook helpers (hot path when enabled) ------------------------

    def on_issue(self, cycle, pc, slot):
        metrics = self.metrics
        metrics.inc("sim.issue_cycles")
        metrics.inc("sim.instructions_issued", slot.insn_count)
        metrics.bump("sim.fetch_by_pc", pc)
        metrics.bump("sim.packet_sizes", slot.insn_count)
        metrics.observe("sim.packet_insns", slot.insn_count)
        if self._attr_cycles:
            metrics.bump("sim.cycles_by_pc", pc)
        self._last_issue_pc = pc
        if self._cycle_events:
            self.emit(
                FETCH, cycle=cycle, pc=pc, words=slot.words,
                insns=slot.insn_count, label=slot.label,
            )

    def on_bubble(self, cycle, reason):
        metrics = self.metrics
        metrics.inc("sim.bubble_cycles")
        metrics.bump("sim.bubbles_by_reason", reason)
        # A bubble's cycle is billed to the packet that caused it: the
        # most recently issued one (stall latency, drain tail).
        if self._attr_cycles and self._last_issue_pc is not None:
            metrics.bump("sim.cycles_by_pc", self._last_issue_pc)
        if self._cycle_events:
            self.emit(BUBBLE, cycle=cycle, reason=reason)

    def on_squash(self, cycle, slots):
        self.metrics.inc("sim.squashed_slots", slots)
        if self._cycle_events:
            self.emit(SQUASH, cycle=cycle, slots=slots)

    def on_static_cycle(self):
        self.metrics.inc("sched.static_cycles")

    def on_dynamic_cycle(self):
        self.metrics.inc("sched.dynamic_cycles")

    # -- control hooks ---------------------------------------------------------

    def on_stall(self, stage, cycles):
        self.metrics.inc("control.stalls")
        if self._cycle_events:
            self.emit(STALL, stage=stage, cycles=cycles)

    def on_flush(self, stage):
        self.metrics.inc("control.flushes")
        if self._cycle_events:
            self.emit(FLUSH, stage=stage)

    def on_halt(self, stage):
        self.metrics.inc("control.halts")
        if self._cycle_events:
            self.emit(HALT, stage=stage)

    # -- state hooks -----------------------------------------------------------

    def on_reg_write(self, name, index, value):
        self.metrics.inc("state.reg_writes")
        self.emit(REG_WRITE, register=name, index=index, value=value)

    def on_mem_write(self, name, address, value):
        self.metrics.inc("state.mem_writes")
        self.emit(MEM_WRITE, memory=name, address=address, value=value)

    # -- scheduler / analysis hooks -------------------------------------------

    def on_fallback(self, pcs, pc, reason):
        """A pipeline window could not be statically composed."""
        self.metrics.inc("sched.fallback_windows")
        self.metrics.bump("sched.fallbacks_by_reason", reason)
        self.emit(FALLBACK, window=_window_text(pcs), pc=pc, reason=reason)

    def on_hazard_verdict(self, pc, verdict):
        self.metrics.bump("analysis.verdicts", verdict)
        self.emit(HAZARD, pc=pc, verdict=verdict)

    # -- cache hooks -----------------------------------------------------------

    def on_cache(self, outcome, **args):
        self.metrics.bump("cache.outcomes", outcome)
        self.emit(CACHE, outcome=outcome, **args)

    # -- native backend hooks --------------------------------------------------

    def on_native(self, outcome, **args):
        """A native artifact outcome (``hit``/``compile``/``load``)."""
        self.metrics.bump("native.outcomes", outcome)
        self.emit(NATIVE, outcome=outcome, **args)

    def on_native_fallback(self, reason, **args):
        """The native backend degraded to the Python module path."""
        self.metrics.inc("native.fallbacks")
        self.emit(NATIVE_FALLBACK, reason=reason, **args)

    def on_burst_telemetry(self, pc_base, dispatch, cycles, insns,
                           drain_bubbles, stall_bubbles, squashed,
                           ctrl_stalls, ctrl_flushes, ctrl_halts,
                           stray_cycles, stray_pc, last_pc):
        """Fold one native burst's telemetry side-buffer into metrics.

        Called by :class:`repro.simcc.native.NativePipeline` after each
        burst in profile/counters mode.  ``dispatch[i]`` / ``cycles[i]``
        are per-packet counters for address ``pc_base + i``; ``insns``
        is the per-address instruction count the packet issues.  The
        update reproduces exactly what :meth:`on_issue` /
        :meth:`on_bubble` / :meth:`on_squash` and the control hooks
        would have accumulated cycle by cycle, so per-packet counters
        are bit-identical across the Python and native paths.
        """
        metrics = self.metrics
        issued = 0
        for index, count in enumerate(dispatch):
            if not count:
                continue
            pc = pc_base + index
            size = insns[index]
            issued += count
            metrics.inc("sim.instructions_issued", count * size)
            metrics.bump("sim.fetch_by_pc", pc, count)
            metrics.bump("sim.packet_sizes", size, count)
            metrics.observe_many("sim.packet_insns", size, count)
        if issued:
            metrics.inc("sim.issue_cycles", issued)
        bubbles = drain_bubbles + stall_bubbles
        if bubbles:
            metrics.inc("sim.bubble_cycles", bubbles)
        if drain_bubbles:
            metrics.bump("sim.bubbles_by_reason", "drain", drain_bubbles)
        if stall_bubbles:
            metrics.bump("sim.bubbles_by_reason", "stall", stall_bubbles)
        if squashed:
            metrics.inc("sim.squashed_slots", squashed)
        if ctrl_stalls:
            metrics.inc("control.stalls", ctrl_stalls)
        if ctrl_flushes:
            metrics.inc("control.flushes", ctrl_flushes)
        if ctrl_halts:
            metrics.inc("control.halts", ctrl_halts)
        if self._attr_cycles:
            for index, count in enumerate(cycles):
                if count:
                    metrics.bump("sim.cycles_by_pc", pc_base + index, count)
            # Bubble cycles attributed to a packet issued before the
            # burst (and outside the compiled range) accumulate in one
            # overflow bucket; the engine remembers which pc seeded it.
            if stray_cycles and stray_pc is not None:
                metrics.bump("sim.cycles_by_pc", stray_pc, stray_cycles)
        if last_pc is not None:
            self._last_issue_pc = last_pc

    # -- flight recorder -------------------------------------------------------

    def enable_flight_recorder(self, capacity=256):
        """Attach (or resize) a bounded ring of recent events.

        Returns the :class:`repro.obs.sinks.FlightRecorder`; failed runs
        attach its :meth:`~repro.obs.sinks.FlightRecorder.snapshot` to
        the escaping exception (``exc.flight_recording``).
        """
        from repro.obs.sinks import FlightRecorder

        recorder = self.flight_recorder()
        if recorder is None:
            recorder = FlightRecorder(capacity)
            self.sinks.append(recorder)
        elif recorder.capacity != capacity:
            self.sinks.remove(recorder)
            recorder = FlightRecorder(capacity)
            self.sinks.append(recorder)
        return recorder

    def flight_recorder(self):
        """The attached flight recorder sink, or None."""
        from repro.obs.sinks import FlightRecorder

        for sink in self.sinks:
            if isinstance(sink, FlightRecorder):
                return sink
        return None

    # -- resilience hooks ------------------------------------------------------

    def on_self_modify(self, address, policy, invalidated):
        """A store landed in (compiled) program memory."""
        metrics = self.metrics
        metrics.inc("resilience.self_mod_writes")
        if invalidated:
            metrics.inc("resilience.invalidated_packets", invalidated)
        self.emit(
            SELF_MODIFY, address=address, policy=policy,
            invalidated=invalidated,
        )

    def on_guard_resolve(self, pc, action):
        """A stale packet was degraded per policy at fetch time."""
        metrics = self.metrics
        metrics.bump("resilience.fallbacks_by_action", action)
        if action == "recompile":
            metrics.inc("resilience.recompiled_packets")
        else:
            metrics.inc("resilience.interpreted_fetches")
        self.emit(GUARD_RESOLVE, pc=pc, action=action)

    def on_checkpoint(self, cycles, kind, auto=False):
        self.metrics.inc("resilience.checkpoints")
        self.emit(CHECKPOINT, cycles=cycles, sim=kind, auto=auto)

    def on_restore(self, cycles, kind):
        self.metrics.inc("resilience.restores")
        self.emit(RESTORE, cycles=cycles, sim=kind)

    def on_timeout(self, budget, cycles, limit):
        self.metrics.inc("resilience.timeouts")
        self.metrics.bump("resilience.timeouts_by_budget", budget)
        self.emit(TIMEOUT, budget=budget, cycles=cycles, limit=limit)

    def on_fault(self, fault, **details):
        self.metrics.inc("resilience.faults_injected")
        self.metrics.bump("resilience.faults_by_kind", fault)
        self.emit(FAULT, fault=fault, **details)

    # -- run finalisation ------------------------------------------------------

    def finish_run(self, simulator, stats):
        """Snapshot run-level gauges; called by ``Simulator.run``."""
        metrics = self.metrics
        metrics.set_gauge("run.cycles", stats.cycles)
        metrics.set_gauge("run.instructions", stats.instructions)
        metrics.set_gauge("run.cpi", stats.cpi)
        metrics.set_gauge("run.wall_seconds", stats.wall_seconds)
        metrics.set_gauge(
            "run.cycles_per_second", stats.simulated_cycles_per_second
        )
        metrics.set_gauge("run.kind", simulator.kind)
        static = metrics.counter("sched.static_cycles")
        dynamic = metrics.counter("sched.dynamic_cycles")
        if static or dynamic:
            metrics.set_gauge(
                "sched.static_cycle_ratio", static / (static + dynamic)
            )
        outcomes = metrics.family("cache.outcomes")
        hits = outcomes.get("memory_hit", 0) + outcomes.get("disk_hit", 0)
        lookups = hits + outcomes.get("miss", 0)
        if lookups:
            metrics.set_gauge("cache.hit_rate", hits / lookups)
        counts = getattr(
            getattr(simulator, "_engine", None), "dispatch_counts", None
        )
        if counts:
            for key, value in counts.items():
                metrics.set_gauge("native.%s" % key, value)
        if self.labeler is not None:
            self._fold_opcode_counts()
        self.emit(
            RUN_END, sim=simulator.kind, cycles=stats.cycles,
            instructions=stats.instructions,
        )

    def _fold_opcode_counts(self):
        """Fold per-address fetch counts into per-opcode dispatch counts."""
        labeler = self.labeler
        metrics = self.metrics
        for pc, count in metrics.family("sim.fetch_by_pc").items():
            label = labeler(pc)
            if not label:
                label = "<unknown>"
            metrics.bump("sim.dispatch_by_opcode", label, count)

    def snapshot(self):
        """The metrics snapshot (JSON-compatible)."""
        return self.metrics.snapshot()

    def close(self):
        for sink in self.sinks:
            sink.close()
