"""Simulators, from fully interpretive to fully compiled.

========== ===== ======================= ===============================
kind       level decode / sequence       behaviour execution
========== ===== ======================= ===============================
interpretive  -- every fetch, run-time   AST interpretation, run-time
                                         variant resolution
predecoded    1  decode at load,         AST interpretation,
                 sequencing per fetch    cached variants
compiled      2  simulation table built  AST interpretation with
                 at load (dynamic        pre-bound operands
                 scheduling)
static        2  simulation table +      as ``compiled``, steady-state
                 statically scheduled    columns composed at run-start
                 columns
unfolded      3  simulation table with   generated Python per program
                 operation instantiation instruction, operands folded
unfolded_static  3+static: columns are additionally fused into single
                 generated functions (full simulation-loop unfolding)
========== ===== ======================= ===============================
"""

from repro.sim.base import Simulator
from repro.sim.interpretive import InterpretiveSimulator
from repro.sim.predecoded import PredecodedSimulator
from repro.sim.compiled import CompiledSimulator
from repro.sim.static import StaticScheduledSimulator
from repro.support.errors import ReproError

SIM_KINDS = (
    "interpretive",
    "predecoded",
    "compiled",
    "static",
    "unfolded",
    "unfolded_static",
)

#: Execution backends for the table-based kinds.  ``auto`` runs the
#: table in Python; ``native`` additionally compiles proven packets to
#: C and bursts whole pipeline windows per call, falling back to the
#: Python path (with one ``native.fallback`` event) when no C toolchain
#: is available.  With ``native`` (or a cache) the level-2 kinds bind
#: the portable level-3 code.
SIM_BACKENDS = ("auto", "native")


def create_simulator(model, kind="compiled", cache=None, observer=None,
                     on_self_modify=None, backend="auto"):
    """Instantiate a simulator of the given ``kind`` for ``model``.

    ``cache`` (a :class:`repro.simcc.cache.SimulationCache`) makes
    load-time simulation compilation persistent and only applies to
    the table-based kinds; the interpretive and predecoded simulators
    do no load-time compilation and ignore it.  ``observer`` (a
    :class:`repro.obs.Observer`) enables trace events, phase spans and
    metrics for this simulator; omitted, the process-wide observer
    installed via :func:`repro.obs.install` applies.  ``on_self_modify``
    arms the program-memory write guard with the given degradation
    policy -- ``"error"`` or ``"recover"`` (see
    :mod:`repro.resilience.guard`); ``None``/``"off"`` runs unguarded.
    ``backend`` (table-based kinds only) selects the execution backend
    (see :data:`SIM_BACKENDS`): ``auto`` runs the Python path;
    ``native`` degrades gracefully to the Python path when no C
    compiler is available -- it never errors.
    """
    if backend not in SIM_BACKENDS:
        raise ReproError(
            "unknown simulation backend %r (expected one of %s)"
            % (backend, ", ".join(SIM_BACKENDS))
        )
    if kind in ("interpretive", "predecoded"):
        if backend != "auto":
            raise ReproError(
                "backend %r requires a table-based simulator kind "
                "(compiled, static, unfolded or unfolded_static)"
                % backend
            )
        if kind == "interpretive":
            simulator = InterpretiveSimulator(model, observer=observer)
        else:
            simulator = PredecodedSimulator(model, observer=observer)
    elif kind == "compiled":
        simulator = CompiledSimulator(model, level="sequenced",
                                      cache=cache, observer=observer,
                                      backend=backend)
    elif kind == "unfolded":
        simulator = CompiledSimulator(model, level="instantiated",
                                      cache=cache, observer=observer,
                                      backend=backend)
    elif kind == "static":
        simulator = StaticScheduledSimulator(model, level="sequenced",
                                             cache=cache, observer=observer,
                                             backend=backend)
    elif kind == "unfolded_static":
        simulator = StaticScheduledSimulator(model, level="instantiated",
                                             cache=cache, observer=observer,
                                             backend=backend)
    else:
        raise ReproError(
            "unknown simulator kind %r (expected one of %s)"
            % (kind, ", ".join(SIM_KINDS))
        )
    if on_self_modify not in (None, "off"):
        simulator.enable_write_guard(on_self_modify)
    return simulator


__all__ = [
    "SIM_KINDS",
    "SIM_BACKENDS",
    "create_simulator",
    "Simulator",
    "InterpretiveSimulator",
    "PredecodedSimulator",
    "CompiledSimulator",
    "StaticScheduledSimulator",
]
