"""Build (or load from cache) the compiled burst module for a table.

:func:`build_native_module` is the one entry point the simulators use.
It never raises on an unusable environment: any failure along the
ladder -- unmappable model, no lowered IR, no C compiler, a compile or
load error -- degrades to ``None`` with a single ``native.fallback``
observability event, and the caller serves the run through the Python
module backend instead.

Artifacts (the generated ``.c``, the built ``.so`` and a metadata
sidecar) persist through :class:`repro.simcc.cache.SimulationCache`
keyed by a digest of the C source plus the state-layout contract; the
compiler identity lives in the metadata so a shared object built by a
stale compiler misses and is rebuilt rather than loaded.  Without a
cache the build compiles in a private temporary directory, removed once
the library is loaded (or the compile fails), and identical C from the
same compiler compiles once per process.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

from repro.simcc.native import cgen
from repro.simcc.native import layout as L
from repro.simcc.native import toolchain

#: Burst callables loaded in this process, keyed by (artifact key,
#: compiler identity): re-dlopening the same artifact for every
#: simulator is wasted work (and some platforms pin the mapping
#: anyway), and a cache-less build of C already loaded skips ``cc``.
_LOADED = {}


class NativeModule:
    """A loaded burst module plus everything needed to drive it.

    ``telemetry`` is the side-region geometry when the module was built
    instrumented (``build_native_module(..., telemetry=True)``), None
    for the plain byte-identical-to-before module.  ``so_path`` is None
    for a cache-less build, whose shared object is deleted once loaded.
    """

    def __init__(self, layout, plan, burst, so_path, source):
        self.layout = layout
        self.plan = plan
        self.burst = burst
        self.so_path = so_path
        self.source = source
        self.telemetry = plan.telemetry
        self.push_set = frozenset(plan.push_names)
        self.pull_set = frozenset(plan.pull_names)


def artifact_key(source, state_layout):
    """Content address of one native artifact: the generated C plus the
    layout contract it was rendered against."""
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(b"\n")
    digest.update(state_layout.digest().encode("ascii"))
    return digest.hexdigest()


def _fallback(observer, reason, **args):
    if observer is not None:
        observer.on_native_fallback(reason, **args)
    return None


def _compile_uncached(cc, source, key):
    """Compile and load ``source`` in a private directory, removing the
    directory whether or not the compile succeeds (a loaded library
    stays mapped after its file is gone)."""
    workdir = tempfile.mkdtemp(prefix="repro-native-")
    try:
        c_path = os.path.join(workdir, key[:16] + ".c")
        so_path = os.path.join(workdir, key[:16] + ".so")
        with open(c_path, "w", encoding="utf-8") as handle:
            handle.write(source)
        toolchain.compile_shared(cc, c_path, so_path)
        return toolchain.load_burst(so_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def build_native_module(model, table, cache=None, observer=None,
                        telemetry=False):
    """The burst module for ``table``, or ``None`` when unavailable.

    ``None`` always means "use the Python path"; the reason is emitted
    as one ``native.fallback`` event when an observer is attached.

    ``telemetry=True`` builds the instrumented variant whose bursts
    count per-packet dispatches and attributed cycles into a side-region
    of the state buffer; it caches under its own artifact key (the
    generated C differs), so plain and instrumented artifacts coexist.
    """
    from repro import obs as _obs

    try:
        state_layout = L.StateLayout.build(model)
        source, plan = cgen.render_native_source(
            table, model, state_layout, telemetry=telemetry
        )
    except L.NativeUnsupported as exc:
        return _fallback(observer, str(exc), model=model.name)
    if not plan.native_pcs:
        return _fallback(observer, "no packet passed native analysis",
                         model=model.name)

    cc = toolchain.find_compiler()
    if cc is None:
        return _fallback(
            observer, "no C compiler (set $CC or install cc)",
            model=model.name,
        )
    packets = len(plan.native_pcs)
    try:
        identity = toolchain.compiler_identity(cc)
        key = artifact_key(source, state_layout)

        so_path = None
        burst = _LOADED.get((key, identity))
        if cache is not None:
            hit = cache.load_native_artifact(key, identity)
            if hit is not None:
                so_path, outcome = hit[1], "hit"
            else:
                with _obs.span(observer, "native.compile", model=model.name,
                               packets=packets):
                    _, so_path = cache.store_native_artifact(
                        key, identity, source,
                        lambda c, so: toolchain.compile_shared(cc, c, so),
                    )
                outcome = "compile"
            if burst is None:
                burst = toolchain.load_burst(so_path)
        elif burst is not None:
            outcome = "load"
        else:
            with _obs.span(observer, "native.compile", model=model.name,
                           packets=packets):
                burst = _compile_uncached(cc, source, key)
            outcome = "compile"
        _LOADED[key, identity] = burst
    except (OSError, toolchain.NativeToolchainError) as exc:
        return _fallback(observer, "native build failed: %s" % exc,
                         model=model.name)
    if observer is not None:
        observer.on_native(outcome, key=key[:16], packets=packets)
    return NativeModule(state_layout, plan, burst, so_path, source)
