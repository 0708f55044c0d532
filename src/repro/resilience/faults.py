"""Deterministic fault injection for exercising the resilience paths.

The degradation machinery (write guard, checkpoint recovery, cache
quarantine, typed error annotation) is only trustworthy if every path
has actually fired in a test.  This harness injects the faults those
paths exist for, deterministically -- no randomness, every injection
point is an explicit (cycle, action) pair or an explicit file
corruption mode -- and logs each one (plus a ``resilience.fault`` trace
event and ``resilience.faults_injected`` metric when an observer is
attached).

Fault classes:

* **architectural bit flips**: :meth:`FaultInjector.flip_register_bit`,
  :meth:`FaultInjector.flip_memory_bit`;
* **self-modifying stores**: :meth:`FaultInjector.write_program_word`
  routes through the checked state accessors, so it hits the guarded
  program memory exactly like a behaviour-level store;
* **decode faults**: :meth:`FaultInjector.decode_fault` patches the
  decoder to raise for a chosen address;
* **compile-phase faults**: :meth:`FaultInjector.compile_fault` makes
  simulation compilation raise;
* **cache corruption**: :meth:`FaultInjector.corrupt_cache_entry`
  (truncation, bad magic, garbage bytes) and
  :meth:`FaultInjector.spoof_cache_format` (a well-formed entry from a
  different format version, which must be a *clean* miss, not
  quarantine).

:meth:`FaultInjector.run_with_faults` drives a simulator through a
(cycle, action) plan, firing each action at its exact cycle boundary.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager

from repro.support.errors import DecodeError, ReproError


class FaultInjector:
    """Deterministic fault injection with a structured log."""

    def __init__(self, observer=None):
        self.observer = observer
        self.log = []

    def _record(self, kind, **details):
        self.log.append({"fault": kind, **details})
        if self.observer is not None:
            self.observer.on_fault(kind, **details)

    # -- architectural faults ----------------------------------------------

    def flip_register_bit(self, simulator, name, bit, index=None):
        """XOR one bit of a register (file entry when ``index`` given)."""
        value = simulator.state.read_register(name, index)
        flipped = value ^ (1 << bit)
        if index is None:
            simulator.state.write_register(name, flipped)
        else:
            simulator.state.write_register(name, index, flipped)
        self._record(
            "register_bit_flip", register=name, index=index, bit=bit,
            before=value, after=simulator.state.read_register(name, index),
        )

    def flip_memory_bit(self, simulator, memory, address, bit):
        """XOR one bit of a memory cell (via the checked accessors)."""
        value = simulator.state.read_memory(memory, address)
        simulator.state.write_memory(memory, address, value ^ (1 << bit))
        self._record(
            "memory_bit_flip", memory=memory, address=address, bit=bit,
            before=value,
            after=simulator.state.read_memory(memory, address),
        )

    def write_program_word(self, simulator, address, value):
        """Store an instruction word into program memory (an SMC event).

        Goes through ``ProcessorState.write_memory``, i.e. through the
        guarded storage when a write guard is armed -- the same path a
        behaviour-level store takes.
        """
        pmem = simulator.model.config.program_memory
        before = simulator.state.read_memory(pmem, address)
        simulator.state.write_memory(pmem, address, value)
        self._record(
            "program_write", memory=pmem, address=address,
            before=before, after=value,
        )

    # -- process faults -----------------------------------------------------

    def process_kill(self, simulator=None, sig=signal.SIGKILL):
        """Kill the current process (default: SIGKILL, uncatchable).

        The worker-death fault: with SIGKILL the process gets no chance
        to flush, hand off, or mark the job failed -- exactly what a
        supervisor must recover from.  The injection is recorded (and
        the observer flushed through its sinks) *before* the signal is
        raised, so a survivable signal still leaves a log entry; under
        SIGKILL the record only survives if it already left the process
        (e.g. down a pipe sink).  ``simulator`` is accepted (and
        ignored) so the method is usable directly as a fault-plan
        action.
        """
        self._record("process_kill", pid=os.getpid(), sig=int(sig))
        os.kill(os.getpid(), sig)

    # -- toolchain faults ---------------------------------------------------

    @contextmanager
    def decode_fault(self, address=None, message="injected decode fault"):
        """Make ``InstructionDecoder.decode`` raise (for one address, or
        for every address when ``address`` is None) inside the block."""
        from repro.coding.decoder import InstructionDecoder

        original = InstructionDecoder.decode
        injector = self
        fault_address = address

        def faulty(self, word, address=None):
            if fault_address is None or address == fault_address:
                injector._record(
                    "decode_fault", address=address, word=word,
                )
                raise DecodeError(message)
            return original(self, word, address=address)

        InstructionDecoder.decode = faulty
        try:
            yield self
        finally:
            InstructionDecoder.decode = original

    @contextmanager
    def compile_fault(self, message="injected compile fault"):
        """Make simulation compilation raise inside the block.

        Covers both the direct compiler path and the portable-table
        builder (which load-time cache misses go through).
        """
        from repro.simcc import portable
        from repro.simcc.compiler import SimulationCompiler

        original = SimulationCompiler.compile
        original_portable = portable.build_portable_table
        injector = self

        def faulty(self, *args, **kwargs):
            injector._record("compile_fault")
            raise ReproError(message)

        def faulty_portable(*args, **kwargs):
            injector._record("compile_fault")
            raise ReproError(message)

        SimulationCompiler.compile = faulty
        portable.build_portable_table = faulty_portable
        try:
            yield self
        finally:
            SimulationCompiler.compile = original
            portable.build_portable_table = original_portable

    # -- cache faults -------------------------------------------------------

    def corrupt_cache_entry(self, cache, model, program, level="sequenced",
                            mode="truncate"):
        """Damage the on-disk cache entry for (model, program, level).

        ``mode``:

        * ``truncate`` -- keep only the first few bytes (torn write),
        * ``magic`` -- clobber the magic line (foreign file),
        * ``garbage`` -- replace the payload with junk bytes (bit rot).

        Returns the entry path.  Raises :class:`ReproError` when no
        entry exists (the test would silently pass otherwise).
        """
        from repro.simcc.cache import _MAGIC, table_digest

        digest = table_digest(model, program, level)
        path = cache.entry_path(digest)
        if not os.path.exists(path):
            raise ReproError("no cache entry to corrupt at %s" % path)
        if mode == "truncate":
            with open(path, "rb") as handle:
                head = handle.read(len(_MAGIC) + 4)
            with open(path, "wb") as handle:
                handle.write(head)
        elif mode == "magic":
            with open(path, "r+b") as handle:
                handle.write(b"XXXX")
        elif mode == "garbage":
            with open(path, "wb") as handle:
                handle.write(_MAGIC + b"\x00garbage\xff" * 16)
        else:
            raise ReproError("unknown cache corruption mode %r" % mode)
        self._record("cache_corruption", mode=mode, path=path)
        return path

    def spoof_cache_format(self, cache, model, program, level="sequenced",
                           format_version=0):
        """Replace an entry with a well-formed one of another format.

        The reader must treat this as a *clean* miss (an entry written
        by a different tool version), not as corruption: no quarantine
        counter, file left in place.
        """
        from repro.simcc.cache import entry_bytes, table_digest

        digest = table_digest(model, program, level)
        path = cache.entry_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "meta": {"format": format_version, "digest": digest},
            "table": None,
        }
        with open(path, "wb") as handle:
            handle.write(entry_bytes(payload))
        self._record(
            "cache_format_spoof", format=format_version, path=path,
        )
        return path

    # -- plan-driven runs ---------------------------------------------------

    #: Fault-plan actions expressible as plain data (see
    #: :meth:`compile_plan`), mapped to the injector method each one
    #: drives.  ``process_kill`` makes worker-death schedules part of
    #: the same plan format as bit flips and program writes.
    PLAN_ACTIONS = {
        "process_kill": "process_kill",
        "write_program_word": "write_program_word",
        "flip_register_bit": "flip_register_bit",
        "flip_memory_bit": "flip_memory_bit",
    }

    def compile_plan(self, entries, attempt=None, resume_cycles=0):
        """Compile serialisable fault-plan entries into (cycle, action)
        pairs for :meth:`run_with_faults`.

        Each entry is a mapping ``{"cycle": N, "action": NAME}`` plus
        the action's keyword arguments under ``"args"``; names come
        from :data:`PLAN_ACTIONS`.  The format is JSON/pipe friendly,
        so schedules cross process boundaries -- the simulation
        service's chaos harness ships them to worker processes.

        Two filters make plans replayable across recovery attempts:

        * ``"attempts"`` (a list of attempt ordinals) restricts an
          entry to those attempts; entries without it fire on *every*
          attempt.  ``attempt=None`` skips the filter.
        * entries whose cycle is not beyond ``resume_cycles`` are
          dropped -- a job resumed from a checkpoint past the fault has
          already survived it.
        """
        plan = []
        for entry in entries:
            action_name = entry.get("action")
            method_name = self.PLAN_ACTIONS.get(action_name)
            if method_name is None:
                raise ReproError(
                    "unknown fault-plan action %r (choose from %s)"
                    % (action_name, ", ".join(sorted(self.PLAN_ACTIONS)))
                )
            cycle = int(entry.get("cycle", 0))
            allowed = entry.get("attempts")
            if (attempt is not None and allowed is not None
                    and attempt not in allowed):
                continue
            if cycle <= resume_cycles and resume_cycles > 0:
                continue
            method = getattr(self, method_name)
            args = dict(entry.get("args", {}))
            plan.append(
                (cycle, lambda sim, _m=method, _a=args: _m(sim, **_a))
            )
        return plan

    def run_with_faults(self, simulator, plan, max_cycles=50_000_000,
                        budget=None, on_checkpoint=None):
        """Run ``simulator`` firing ``plan`` actions at exact cycles.

        ``plan`` is an iterable of ``(cycle, action)`` pairs; each
        ``action`` is called with the simulator once the engine reaches
        that cycle (actions beyond the program's natural end, or beyond
        the cycle limit, never fire).  Returns
        :class:`repro.sim.base.SimulationStats`.

        The plan's cycles are stops of the simulator's one run loop
        (:meth:`repro.sim.base.Simulator.run`), next to the cycle limit,
        the wall deadline and the autosnapshot cadence: the engine runs
        chunks between them -- native engines burst right up to a fault
        -- and ``budget``/``on_checkpoint`` hold throughout, exactly as
        in ``run``.  A process-kill fault therefore finds every resume
        point its cadence promised already delivered.
        """
        return simulator._drive(max_cycles, budget, on_checkpoint, plan)
