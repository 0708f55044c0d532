"""High-level convenience API tying the tool flow together.

This is the entry point a downstream user sees: compile a LISA model,
get a generated toolset (assembler, disassembler, simulation compiler,
simulators), and run programs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict

from repro.lisa.semantics import compile_source
from repro.support.errors import ReproError


def default_cache_dir():
    """The default on-disk location for the simulation-table cache.

    ``REPRO_CACHE_DIR`` overrides; otherwise a per-user cache directory.
    """
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "simtab"
    )


def open_cache(path=None, max_memory_entries=8):
    """Open (creating lazily on first store) a persistent cache for
    compiled simulation tables.

    Pass the returned object as the ``cache=`` argument of
    :meth:`Toolset.new_simulator` /
    :func:`repro.sim.create_simulator`: simulation compilation then
    runs at most once per (model, program, level) across processes.
    """
    from repro.simcc.cache import SimulationCache

    return SimulationCache(
        path if path is not None else default_cache_dir(),
        max_memory_entries=max_memory_entries,
    )


def load_checkpoint(path):
    """Load a simulation checkpoint file (see :mod:`repro.resilience`).

    Returns a :class:`repro.resilience.checkpoint.Checkpoint`; pass it
    to :meth:`repro.sim.base.Simulator.restore` (after loading the same
    program) to resume, on any simulator kind.
    """
    from repro.resilience.checkpoint import Checkpoint

    return Checkpoint.load(path)


def compile_lisa_source(source, filename="<string>"):
    """Compile LISA source text into a machine-model data base."""
    return compile_source(source, filename)


def compile_lisa_file(path):
    """Compile a LISA description file into a machine-model data base."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return compile_source(source, str(path))


def list_models():
    """Names of the processor models shipped with the package."""
    from repro.models import MODEL_REGISTRY

    return sorted(MODEL_REGISTRY)


def load_model(name):
    """Load (and cache) one of the shipped processor models by name."""
    from repro.models import load_model as _load

    return _load(name)


@dataclass
class Toolset:
    """The generated tool suite for one machine model.

    Mirrors the paper's Figure 5: from the model data base we generate
    the assembler/disassembler, the instruction decoder, and the
    processor-specific simulation compiler; simulators are built on
    demand via :meth:`new_simulator`.
    """

    model: object
    _cache: Dict[str, object] = field(default_factory=dict)

    @property
    def decoder(self):
        if "decoder" not in self._cache:
            from repro.coding.decoder import InstructionDecoder

            self._cache["decoder"] = InstructionDecoder(self.model)
        return self._cache["decoder"]

    @property
    def encoder(self):
        if "encoder" not in self._cache:
            from repro.coding.encoder import InstructionEncoder

            self._cache["encoder"] = InstructionEncoder(self.model)
        return self._cache["encoder"]

    @property
    def assembler(self):
        if "assembler" not in self._cache:
            from repro.tools.asm import Assembler

            self._cache["assembler"] = Assembler(self.model)
        return self._cache["assembler"]

    @property
    def disassembler(self):
        if "disassembler" not in self._cache:
            from repro.tools.disasm import Disassembler

            self._cache["disassembler"] = Disassembler(self.model)
        return self._cache["disassembler"]

    @property
    def simulation_compiler(self):
        if "simcc" not in self._cache:
            from repro.simcc.generator import generate_simulation_compiler

            self._cache["simcc"] = generate_simulation_compiler(self.model)
        return self._cache["simcc"]

    def new_simulator(self, kind="compiled", cache=None, observer=None,
                      on_self_modify=None, backend="auto"):
        """Create a fresh simulator.

        ``kind`` is one of ``interpretive``, ``predecoded`` (compiled
        level 1), ``compiled`` (level 2, dynamic scheduling), ``static``
        (level 2, static scheduling) or ``unfolded`` (level 3, operation
        instantiation).

        ``cache`` (see :func:`open_cache`) makes load-time simulation
        compilation persistent across runs.
        ``observer`` (see :func:`new_observer` / :mod:`repro.obs`)
        enables trace events, compile-phase spans and metrics.
        ``on_self_modify`` arms the program-memory write guard with a
        degradation policy (``error`` or ``recover``; see
        :mod:`repro.resilience`).  ``backend`` (table-based kinds)
        selects the execution backend -- ``auto`` (the Python path) or
        ``native`` (compiled C bursts; falls back to the Python path
        when no C toolchain is available).
        """
        from repro.sim import create_simulator

        return create_simulator(self.model, kind, cache=cache,
                                observer=observer,
                                on_self_modify=on_self_modify,
                                backend=backend)

    def new_observer(self, program=None, **kwargs):
        """Create a :class:`repro.obs.Observer` for this model.

        When ``program`` is given, the observer folds per-address
        dispatch counts into per-opcode counts at run end using the
        generated disassembler.  Remaining keyword arguments pass
        through to the :class:`~repro.obs.Observer` constructor.
        """
        from repro import obs

        if program is not None and "labeler" not in kwargs:
            kwargs["labeler"] = obs.opcode_labeler(self.model, program)
        return obs.Observer(**kwargs)

    def dump_ir(self, program):
        """The lowered, post-pass SimIR of every execute packet.

        Returns the same human-readable text ``repro-sim --dump-ir``
        prints: per packet, the per-member, per-stage micro-operation
        functions exactly as the simulation backends consume them --
        the ground truth for debugging retargeting issues.
        """
        from repro.simcc.ir import dump_program_ir

        return dump_program_ir(self.model, program)

    def analyze(self, program, packet_lint=True, observer=None):
        """Run the static analysis passes over an assembled program.

        Returns a :class:`repro.analysis.AnalysisResult` holding the
        findings report, the per-packet hazard verdicts, and the
        recovered control-flow graph.
        """
        from repro.analysis import analyze_program

        return analyze_program(self.model, program,
                               packet_lint=packet_lint, observer=observer)


def build_toolset(model):
    """Build the generated tool suite for ``model``."""
    if model is None:
        raise ReproError("build_toolset needs a compiled machine model")
    return Toolset(model)


def analyze_program(model, program, packet_lint=True, observer=None):
    """Run the static analysis passes over an assembled program.

    Convenience re-export of :func:`repro.analysis.analyze_program`.
    """
    from repro.analysis import analyze_program as _analyze

    return _analyze(model, program, packet_lint=packet_lint,
                    observer=observer)
