"""Unified observability: trace events, phase spans, metrics.

One instrumentation subsystem wired through every simulator kind and
the simulation compiler:

* **Trace events** (:mod:`repro.obs.events`) -- structured records
  emitted from hook points in the pipeline drivers (fetch, bubble,
  squash), pipeline control (stall/flush/halt), the static scheduler
  (static-to-dynamic fallback), the program analyzer (hazard verdicts),
  the state accessors (checked register/memory writes) and the
  simulation-table cache, with pluggable sinks
  (:mod:`repro.obs.sinks`).
* **Phase-timing spans** (:mod:`repro.obs.spans`) -- nested wall-clock
  timing around the simulation-compilation steps (decoding,
  sequencing, packet formation, analysis), cache lookup/store and
  program load; the paper's Figure 6 measurement as a built-in.
* **A metrics registry** (:mod:`repro.obs.metrics`) -- counters,
  gauges and histograms (per-address/per-opcode dispatch counts,
  static-vs-dynamic composition ratio, cache hit rate, CPI, bubble
  cycles) snapshotted at run end.
* **Exporters** (:mod:`repro.obs.export`) -- JSON-lines, Chrome
  trace-event format (loadable in Perfetto / ``chrome://tracing``) and
  a text summary.

The disabled path is near-free by construction: hook sites hold an
observer reference that is ``None`` when observability is off and
check it once, and the pipeline drivers swap in an entirely unhooked
step function (``benchmarks/bench_trace_overhead.py`` proves the
bound).

Usage::

    from repro import obs

    observer = obs.Observer()
    simulator = create_simulator(model, "static", observer=observer)
    simulator.load_program(program)    # compile-phase spans recorded
    simulator.run()                    # cycle events + metrics recorded
    obs.write_trace(observer, "trace.json")   # open in Perfetto
    observer.snapshot()                       # metrics dict

or process-wide, without threading the observer through call sites::

    obs.install(obs.Observer())
    ...  # simulators created from here on pick it up
    obs.uninstall()
"""

from __future__ import annotations

from repro.obs.events import (
    BUBBLE,
    CACHE,
    CHECKPOINT,
    COUNTERS_MODE,
    DEFAULT_EVENT_CAPACITY,
    EVENT_KINDS,
    FALLBACK,
    FAULT,
    FETCH,
    FLUSH,
    GUARD_RESOLVE,
    HALT,
    HAZARD,
    MEM_WRITE,
    NATIVE,
    NATIVE_FALLBACK,
    OBSERVER_MODES,
    PROFILE_MODE,
    REG_WRITE,
    RESTORE,
    RUN_END,
    SELF_MODIFY,
    SQUASH,
    STALL,
    TIMEOUT,
    TRACE_MODE,
    Observer,
    TraceEvent,
)
from repro.obs.export import (
    TRACE_FORMATS,
    text_summary,
    to_chrome_trace,
    to_jsonl_lines,
    to_openmetrics,
    write_metrics,
    write_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ProfileReport, hot_region_report, profile_report
from repro.obs.sinks import (
    NULL_SINK,
    FlightRecorder,
    ListSink,
    NullSink,
    Sink,
)
from repro.obs.spans import Span

# -- process-wide default observer -------------------------------------------

_GLOBAL = None


def install(observer):
    """Install a process-wide default observer.

    Simulators constructed without an explicit ``observer`` argument
    pick this up; already-constructed simulators are unaffected (use
    ``Simulator.attach_observer``).
    """
    global _GLOBAL
    _GLOBAL = observer
    return observer


def uninstall():
    """Remove the process-wide default observer (returns it)."""
    global _GLOBAL
    observer, _GLOBAL = _GLOBAL, None
    return observer


def get_observer():
    """The process-wide default observer, or None."""
    return _GLOBAL


class _NullSpan:
    """The disabled-path span: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


def span(observer, name, **args):
    """``observer.span(name, ...)`` when enabled, a no-op otherwise.

    The one-liner hook sites use around compilation phases::

        with obs.span(observer, "simcc.decode", words=n):
            ...
    """
    if observer is None:
        return NULL_SPAN
    return observer.span(name, **args)


def opcode_labeler(model, program):
    """A ``pc -> mnemonic`` labeler for ``Observer(labeler=...)``.

    Built from the generated disassembler; consulted only at
    ``finish_run`` to fold per-address dispatch counts into per-opcode
    counts, so the disassembly cost never lands on the hot path.
    Addresses outside the program (or undecodable words) label as None.
    """
    from repro.tools.disasm import Disassembler

    disassembler = Disassembler(model)
    words = {}
    for segment in program.segments_in(model.config.program_memory):
        for offset, word in enumerate(segment.words):
            words[segment.base + offset] = word

    def labeler(pc):
        word = words.get(pc)
        if word is None:
            return None
        try:
            text = disassembler.disassemble_word(word, address=pc)
        except Exception:
            return None
        return text.split(None, 1)[0] if text else None

    return labeler


__all__ = [
    "BUBBLE", "CACHE", "CHECKPOINT", "COUNTERS_MODE",
    "DEFAULT_EVENT_CAPACITY", "EVENT_KINDS", "FALLBACK", "FAULT",
    "FETCH", "FLUSH", "GUARD_RESOLVE",
    "HALT", "HAZARD", "MEM_WRITE", "NATIVE", "NATIVE_FALLBACK",
    "NULL_SINK", "NULL_SPAN", "OBSERVER_MODES", "PROFILE_MODE",
    "REG_WRITE",
    "RESTORE", "RUN_END", "SELF_MODIFY", "SQUASH", "STALL", "TIMEOUT",
    "TRACE_FORMATS", "TRACE_MODE",
    "FlightRecorder", "ListSink",
    "MetricsRegistry",
    "NullSink", "Observer", "ProfileReport", "Sink", "Span", "TraceEvent",
    "get_observer", "hot_region_report", "install", "opcode_labeler",
    "profile_report", "span", "text_summary",
    "to_chrome_trace", "to_jsonl_lines", "to_openmetrics", "uninstall",
    "write_metrics", "write_trace",
]
