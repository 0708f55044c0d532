"""Build (or load from cache) the compiled burst module for a table.

:func:`build_native_module` is the one entry point the simulators use.
It never raises on an unusable environment: any failure along the
ladder -- unmappable model, no lowered IR, no C compiler, a compile or
load error -- degrades to ``None`` with a single ``native.fallback``
observability event, and the caller serves the run through the Python
module backend instead.

Artifacts (the generated ``.c``, the built ``.so`` and a metadata
sidecar) persist through :class:`repro.simcc.cache.SimulationCache`,
keyed by what determines the C (:func:`artifact_key`): the table's
level-free content digest, the state-layout contract, the telemetry
flag and a digest of the renderer's own source.  The sidecar holds the
compiler identity, so a shared object built by a stale compiler misses
and is rebuilt rather than loaded, and the :class:`~repro.simcc.native.
cgen.NativePlan`, so a hit loads the shared object without rendering
any C.  Without a cache the build compiles in a private temporary
directory, removed once the library is loaded (or the compile fails),
and an artifact this process already loaded (same key and compiler) is
neither rendered nor compiled again.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import tempfile

from repro.simcc.native import cgen
from repro.simcc.native import layout as L
from repro.simcc.native import toolchain

#: ``(burst callable, plan)`` per (artifact key, compiler identity)
#: loaded in this process: re-dlopening the same artifact for every
#: simulator is wasted work (and some platforms pin the mapping
#: anyway), and a cache-less build of a table already loaded skips
#: rendering and ``cc``.
_LOADED = {}


class NativeModule:
    """A loaded burst module plus everything needed to drive it.

    ``telemetry`` is the side-region geometry when the module was built
    instrumented (``build_native_module(..., telemetry=True)``), None
    for the plain byte-identical-to-before module.  ``so_path`` is None
    for a cache-less build, whose shared object is deleted once loaded.
    """

    def __init__(self, layout, plan, burst, so_path):
        self.layout = layout
        self.plan = plan
        self.burst = burst
        self.so_path = so_path
        self.telemetry = plan.telemetry
        self.push_set = frozenset(plan.push_names)
        self.pull_set = frozenset(plan.pull_names)


@functools.lru_cache(maxsize=None)
def renderer_digest():
    """SHA-256 of the C renderer's own source (:mod:`.cgen` and
    :mod:`.layout`), read once per process: an edited renderer misses
    instead of loading C it no longer renders."""
    digest = hashlib.sha256()
    for module in (cgen, L):
        with open(module.__file__, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def artifact_key(table_digest, state_layout, telemetry):
    """Content address of one native artifact: everything its C is
    rendered from -- the table's level-free content digest, the layout
    contract, the telemetry flag and the renderer itself."""
    digest = hashlib.sha256()
    for part in (table_digest, state_layout.digest(),
                 "telemetry" if telemetry else "plain", renderer_digest()):
        digest.update(part.encode("ascii"))
        digest.update(b"\n")
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
    of the state buffer; it caches under its own artifact key, so plain
    and instrumented artifacts coexist.

    A hit (in the cache, or loaded in this process) takes the plan
    from the sidecar or the loaded module and renders nothing; only a
    miss renders the C, which decodes the table's IR and proofs.
    """
    from repro import obs as _obs

    if table.digest is None:  # the direct level-2 table carries no IR
        return _fallback(observer, "table has no lowered IR to render",
                         model=model.name)
    try:
        state_layout = L.StateLayout.build(model)
    except L.NativeUnsupported as exc:
        return _fallback(observer, str(exc), model=model.name)
    cc = toolchain.find_compiler()
    if cc is None:
        return _fallback(
            observer, "no C compiler (set $CC or install cc)",
            model=model.name,
        )
    try:
        identity = toolchain.compiler_identity(cc)
        key = artifact_key(table.digest, state_layout, telemetry)
        loaded = _LOADED.get((key, identity))
        so_path = None
        hit = None if cache is None else cache.load_native_artifact(
            key, identity)
        if hit is not None:
            so_path, plan = hit[0], cgen.NativePlan.from_json(hit[1])
            outcome = "hit"
        elif loaded is not None and cache is None:
            plan = loaded[1]
            outcome = "load"
        else:
            source, plan = cgen.render_native_source(
                table, model, state_layout, telemetry=telemetry
            )
            if not plan.native_pcs:
                return _fallback(observer,
                                 "no packet passed native analysis",
                                 model=model.name)
            with _obs.span(observer, "native.compile", model=model.name,
                           packets=len(plan.native_pcs)):
                if cache is None:
                    loaded = _compile_uncached(cc, source, key), plan
                else:
                    _, so_path = cache.store_native_artifact(
                        key, identity, source, plan.to_json(),
                        lambda c, so: toolchain.compile_shared(cc, c, so),
                    )
            outcome = "compile"
        burst = (loaded[0] if loaded is not None
                 else toolchain.load_burst(so_path))
        _LOADED[key, identity] = burst, plan
    except L.NativeUnsupported as exc:
        return _fallback(observer, str(exc), model=model.name)
    except (OSError, toolchain.NativeToolchainError) as exc:
        return _fallback(observer, "native build failed: %s" % exc,
                         model=model.name)
    if observer is not None:
        observer.on_native(outcome, key=key[:16],
                           packets=len(plan.native_pcs))
    return NativeModule(state_layout, plan, burst, so_path)
