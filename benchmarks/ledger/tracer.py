"""Per-layer spans for the ledger's traced runs.

A traced run wraps a fixed list of public functions from benchmark
code: nothing under ``src/`` changes, and an untraced run executes no
wrapper at all.  Each target is patched at the name its caller looks up
-- a method on its class, or a module attribute read at call time -- so
a renamed entry point leaves its span missing, which the smoke test
catches.  No :class:`repro.obs.Observer` is attached: a trace-mode
observer forces the per-cycle Python path and would change what is
measured.

Spans are :class:`repro.obs.spans.Span` records kept in memory.  Each
carries its job id and its *self* time (its duration minus the time its
wrapped children took) in ``args``; :func:`write_chrome_trace` hands
them to the existing Chrome trace-event exporter.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import defaultdict

from repro.obs.spans import Span


class Recorder:
    """The spans of one process and the job they belong to."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._open = []  # [name, seconds spent in wrapped children]

    @contextlib.contextmanager
    def span(self, name):
        """Time the block as span ``name``; yields a dict of extra args."""
        frame = [name, 0.0]
        parent = self._open[-1][0] if self._open else None
        depth = len(self._open)
        args = {}
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield args
        finally:
            end = time.perf_counter()
            self._open.pop()
            if self._open:
                self._open[-1][1] += end - start
            self.add(name, start, end, end - start - frame[1], depth,
                     parent, **args)

    def add(self, name, start, end, self_s, depth=0, parent=None, **args):
        args["job"] = self.job
        args["self"] = self_s
        self.spans.append(Span(name, start, end, depth, parent, args))


def _wrap(rec, name, fn, note):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(name) as extra:
            result = fn(*args, **kwargs)
            if note is not None:
                extra.update(note(args, result))
            return result

    return traced


def _words(args, program):
    return {"n": program.word_count()}


def _insns(args, table):
    return {"n": table.instruction_count}


def _fallback(args, module):
    return {"fallback": module is None}


def _run_counts(args, stats):
    counts = getattr(args[0].engine, "dispatch_counts", None) or {}
    return {
        "backend": "native" if counts else "python",
        "cycles": stats.cycles,
        "native_cycles": counts.get("native_cycles", 0),
        "bursts": counts.get("bursts", 0),
    }


def _targets():
    """``(span name, owner, attribute, note)`` per traced entry point;
    ``note(args, result)`` adds counts to the span."""
    from repro.analysis import absint
    from repro.apps.base import Application
    from repro.lisa import semantics
    from repro.sim import compiled, static
    from repro.sim.base import Simulator
    from repro.simcc import native
    from repro.simcc.cache import SimulationCache
    from repro.simcc.compiler import SimulationCompiler
    from repro.simcc.native import cgen, toolchain
    from repro.simcc.portable import PortableTable
    from repro.tools.asm import Assembler

    return (
        ("lisa.compile", semantics, "compile_source", None),
        ("tools.generate", Assembler, "__init__", None),
        ("asm.assemble", Assembler, "assemble_text", _words),
        # both simulator modules import the generator by name
        ("simcc.generate", compiled, "generate_simulation_compiler", None),
        ("simcc.generate", static, "generate_simulation_compiler", None),
        ("simcc.compile_direct", SimulationCompiler, "compile", _insns),
        ("simcc.compile_portable", SimulationCompiler, "compile_portable",
         _insns),
        ("analysis.absint", absint, "analyze_packet", None),
        ("simcc.bind", PortableTable, "bind", None),
        ("cache.lookup", SimulationCache, "load_portable", None),
        ("cache.store", SimulationCache, "store_portable", None),
        ("cache.native_lookup", SimulationCache, "load_native_artifact",
         None),
        ("cache.native_store", SimulationCache, "store_native_artifact",
         None),
        ("native.build", native, "build_native_module", _fallback),
        ("native.render", cgen, "render_native_source", None),
        ("native.cc", toolchain, "compile_shared", None),
        ("native.load", toolchain, "load_burst", None),
        ("sim.load", Simulator, "load_program", None),
        ("sim.run", Simulator, "run", _run_counts),
        ("verify.golden", Application, "verify", None),
    )


def _service_patches(rec, span_dir):
    """Hooks that make forked service workers record spans too: each
    worker tags its spans with the supervisor's job id and writes them
    to ``span_dir`` when it stops."""
    from repro.service import supervisor, worker

    run_job = worker.run_job
    worker_main = supervisor.worker_main

    def traced_run_job(conn, message, cache_dir):
        rec.job = message.get("job")
        return run_job(conn, message, cache_dir)

    def traced_worker_main(conn, worker_id, cache_dir=None):
        rec.spans = []  # the parent's spans came along with the fork
        try:
            worker_main(conn, worker_id, cache_dir)
        finally:
            path = os.path.join(span_dir, "worker-%d.json" % os.getpid())
            with open(path, "w", encoding="utf-8") as handle:
                json.dump([span.to_dict() for span in rec.spans], handle)

    return [(worker, "run_job", traced_run_job),
            (supervisor, "worker_main", traced_worker_main)]


@contextlib.contextmanager
def installed(rec, span_dir=None):
    """Patch every target for the duration of the block.  With
    ``span_dir``, service workers forked inside the block trace too."""
    patches = [
        (owner, attr, _wrap(rec, name, getattr(owner, attr), note))
        for name, owner, attr, note in _targets()
    ]
    if span_dir is not None:
        patches += _service_patches(rec, span_dir)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def load_worker_spans(span_dir):
    """The spans every traced service worker wrote on exit."""
    spans = []
    for name in sorted(os.listdir(span_dir)):
        with open(os.path.join(span_dir, name), encoding="utf-8") as handle:
            for entry in json.load(handle):
                spans.append(Span(entry["name"], entry["start"],
                                  entry["end"], entry["depth"],
                                  entry.get("parent"),
                                  entry.get("args", {})))
    return spans


#: Metric -> span: the median, over the jobs that used the layer, of
#: the per-job sum of the span's self time.  ``sim.load_s`` is the one
#: whole-span time: program load with everything under it.
PER_JOB = {
    "sim.load_s": "sim.load.total",
    "lisa.compile_s": "lisa.compile",
    "tools.generate_s": "tools.generate",
    "asm.assemble_s": "asm.assemble",
    "simcc.generate_s": "simcc.generate",
    "simcc.compile_direct_s": "simcc.compile_direct",
    "simcc.compile_portable_s": "simcc.compile_portable",
    "analysis.absint_s": "analysis.absint",
    "simcc.bind_s": "simcc.bind",
    "cache.lookup_s": "cache.lookup",
    "cache.store_s": "cache.store",
    "cache.native_lookup_s": "cache.native_lookup",
    "cache.native_store_s": "cache.native_store",
    "native.build_self_s": "native.build",
    "native.render_s": "native.render",
    "native.cc_s": "native.cc",
    "native.load_s": "native.load",
    "sim.load_self_s": "sim.load",
    "sim.run_s": "sim.run",
    "sim.run_native_s": "sim.run.native",
    "sim.run_python_s": "sim.run.python",
    "verify.golden_s": "verify.golden",
}

_COMPILES = ("simcc.compile_direct", "simcc.compile_portable")


def layer_metrics(spans, job_ids):
    """Per-layer metrics over the spans of the jobs in ``job_ids``."""
    per_job = defaultdict(lambda: defaultdict(float))
    count = defaultdict(int)
    total = defaultdict(float)  # inclusive seconds and noted counts
    for span in spans:
        args = span.args
        job = args.get("job")
        if job not in job_ids:
            continue
        name = span.name
        per_job[job][name] += args["self"]
        count[name] += 1
        total[name] += span.duration
        total[name + ".n"] += args.get("n", 0)
        if name == "sim.load":
            per_job[job]["sim.load.total"] += span.duration
        if name == "sim.run":
            per_job[job]["sim.run." + args["backend"]] += args["self"]
            for key in ("cycles", "native_cycles", "bursts"):
                total["sim.run." + key] += args[key]
        if name == "native.build" and args.get("fallback"):
            count["native.fallback"] += 1
        if name == "job":
            total["job.self"] += args["self"]

    metrics = {}
    for metric, name in PER_JOB.items():
        samples = [spent[name] for spent in per_job.values() if name in spent]
        metrics[metric] = statistics.median(samples) if samples else 0.0
    compile_s = sum(total[name] for name in _COMPILES)
    metrics["simcc.insn_per_s"] = ratio(
        sum(total[name + ".n"] for name in _COMPILES), compile_s)
    metrics["asm.words_per_s"] = ratio(total["asm.assemble.n"],
                                        total["asm.assemble"])
    metrics["simcc.compiles"] = sum(count[name] for name in _COMPILES)
    metrics["native.compiles"] = count["native.cc"]
    metrics["native.fallbacks"] = count["native.fallback"]
    metrics["native.cycle_share"] = ratio(total["sim.run.native_cycles"],
                                           total["sim.run.cycles"])
    metrics["native.cycles_per_burst"] = ratio(
        total["sim.run.native_cycles"], total["sim.run.bursts"])
    metrics["trace.uncovered_share"] = ratio(total["job.self"],
                                              total["job"])
    return metrics


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class _TraceView:
    """What :func:`repro.obs.export.to_chrome_trace` reads of an
    observer."""

    events = ()

    def __init__(self, spans, metrics):
        self.spans = spans
        self._metrics = metrics

    def snapshot(self):
        return {"ledger": self._metrics}


def write_chrome_trace(path, spans, metrics, process_name):
    """Write ``spans`` as a Chrome trace-event JSON file."""
    from repro.obs.export import to_chrome_trace

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(_TraceView(spans, metrics), process_name),
                  handle)
