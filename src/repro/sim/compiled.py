"""Levels 2 and 3 compiled simulation with dynamic scheduling.

The simulation compiler translates the loaded program into a simulation
table at load time; at run-time the front-end is a dictionary lookup and
the driver selects operations from the overlapping instructions in the
pipeline cycle by cycle -- the paper's *dynamic scheduling*.

``level="sequenced"`` (kind ``compiled``) reproduces exactly what the
paper implemented (steps 1+2); ``level="instantiated"`` (kind
``unfolded``) adds the announced third step, operation instantiation.
"""

from __future__ import annotations

from repro.machine.driver import Pipeline
from repro.sim.base import Simulator
from repro.simcc.generator import generate_simulation_compiler


def build_simulation_table(simulator, program):
    """Build the simulation table for ``program``: the one place that
    decides which route a table takes.

    * With a cache attached, the cache serves (or compiles and stores)
      a portable table and binds it.
    * Level ``sequenced`` on the Python path without a cache is the
      paper's level-2 table: the simulation compiler binds
      :class:`~repro.simcc.compiler._BoundBehavior` operations that
      the AST evaluator runs.
    * Everything else -- every level-3 table and every native table --
      compiles a portable table and binds it.  ``compile_portable`` is
      called directly (not through ``compile``) so each load runs
      exactly one simulation compile.
    """
    simcc = simulator._simcc
    level = simulator._level
    if simulator._cache is not None:
        return simulator._cache.load_table(
            simcc, program, simulator.state, simulator.control,
            level=level, observer=simulator.observer,
        )
    if level == "sequenced" and simulator.backend != "native":
        return simcc.compile(
            program, simulator.state, simulator.control, level=level,
            observer=simulator.observer,
        )
    portable = simcc.compile_portable(
        program, level=level, observer=simulator.observer,
    )
    return portable.bind(simulator.state, simulator.control)


def maybe_wrap_native(simulator, engine):
    """Wrap ``engine`` for burst execution when backend is ``native``.

    Degrades silently (plus one ``native.fallback`` event) to the
    unwrapped engine when the native module cannot be built -- no C
    toolchain, an unmappable model, or no packet passing the analysis.

    When a profile/counters-mode observer is attached at load time, the
    module is built with in-burst telemetry so observed runs keep
    bursting (an observer attached *later* in those modes simply takes
    the per-cycle Python path until the program is reloaded).
    """
    if simulator.backend != "native":
        return engine
    from repro.simcc.native import NativePipeline, build_native_module

    observer = simulator.observer
    telemetry = (
        observer is not None
        and not getattr(observer, "wants_cycle_events", True)
    )
    module = build_native_module(
        simulator.model, simulator.table, cache=simulator._cache,
        observer=observer, telemetry=telemetry,
    )
    if module is None:
        return engine
    return NativePipeline(engine, simulator.state, simulator.control,
                          module)


class CompiledSimulator(Simulator):
    """Compiled simulator.

    ``cache`` accepts a :class:`repro.simcc.cache.SimulationCache`; when
    set, load-time simulation compilation is replaced by a cache lookup
    (compiling and storing on the first miss).
    ``backend`` selects the execution backend (see
    :data:`repro.sim.SIM_BACKENDS`).
    """

    def __init__(self, model, level="sequenced", cache=None,
                 observer=None, backend="auto"):
        super().__init__(model, observer=observer)
        self._level = level
        self._simcc = generate_simulation_compiler(model, validate=False)
        self._cache = cache
        self.backend = backend
        self.table = None

    @property
    def kind(self):
        return "compiled" if self._level == "sequenced" else "unfolded"

    @property
    def level(self):
        return self._level

    @property
    def cache(self):
        return self._cache

    def _guard_target(self, engine):
        from repro.resilience.guard import TableGuardTarget

        return TableGuardTarget(self, engine)

    def _build_engine(self, program):
        # Simulation compilation happens here, at load time.
        self.table = build_simulation_table(self, program)
        engine = Pipeline(
            self.model, self.state, self.control,
            self.table.make_frontend(self.model),
            active_stages=self.table.active_stages,
        )
        return maybe_wrap_native(self, engine)
