"""Effects analysis: per-instruction, per-stage read and write sets.

The write-collision packet check (:func:`packet_collisions`,
``repro-lint``'s ``packet.collision``) needs only the write sets of one
instruction; the hazard pass needs much more:
*which pipeline stage* each access happens in, the *read* sets (for
RAW/WAR detection), whether the instruction may raise pipeline-control
requests, and the constant PC targets it can assign (for control-flow
recovery).  :func:`read_effects` reads all of it off the raw SimIR
(:mod:`repro.simcc.ir`) of the decode-time-resolved schedule, which the
program front end (:mod:`repro.simcc.frontend`) lowers once per word --
the *same* lowering the simulator backends execute, so the analysis
sees exactly the accesses the generated simulator performs.  Effects
are read before the IR passes run, and a word whose lowering hits
``ir.MAX_LOWER_DEPTH`` (or an unresolvable construct) has truncated
effects.

Cells are identified as ``(resource, element)`` pairs: a
constant-folded element access becomes an exact cell ``("lsq", "0")``,
a scalar register ``("PC", None)``, and a computed index degrades to a
whole-resource wildcard ``("R", "*")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


def cells_collide(a, b):
    """Whether two cells may denote the same storage."""
    if a[0] != b[0]:
        return False
    return a[1] == b[1] or a[1] == "*" or b[1] == "*"


def cell_text(cell, other=None):
    """Human-readable rendering of a cell (pairing wildcards with the
    other side's element when available)."""
    resource, element = cell
    if element == "*" and other is not None:
        element = other[1]
    if element is None:
        return resource
    if element == "*":
        return "%s[...]" % resource
    return "%s[%s]" % (resource, element)


@dataclass(frozen=True)
class PCWrite:
    """One assignment to the program counter found in a behaviour."""

    target: Optional[int]  # constant target, or None when computed
    conditional: bool  # under a run-time IF/WHILE


@dataclass(frozen=True)
class StageEffects:
    """Merged effects of everything one instruction does in one stage."""

    reads: frozenset
    writes: frozenset
    control: bool  # calls flush/stall/halt
    pc_writes: Tuple[PCWrite, ...]

    @classmethod
    def empty(cls):
        return cls(frozenset(), frozenset(), False, ())


@dataclass(frozen=True)
class InstructionEffects:
    """Per-stage effects of one decoded instruction instance.

    ``truncated`` is set when lowering hit the inline-depth limit or an
    unresolvable construct; consumers must treat such instructions
    conservatively (the hazard pass reports ``unknown``).
    """

    stages: Tuple[StageEffects, ...]
    truncated: bool

    @property
    def reads(self):
        cells = set()
        for stage in self.stages:
            cells |= stage.reads
        return cells

    @property
    def writes(self):
        cells = set()
        for stage in self.stages:
            cells |= stage.writes
        return cells

    @property
    def has_control(self):
        return any(stage.control for stage in self.stages)

    def pc_write_stages(self):
        """(stage index, PCWrite) pairs, shallowest stage first."""
        return [
            (index, write)
            for index, stage in enumerate(self.stages)
            for write in stage.pc_writes
        ]


class _StageAccumulator:
    __slots__ = ("reads", "writes", "control", "pc_writes")

    def __init__(self):
        self.reads = set()
        self.writes = set()
        self.control = False
        self.pc_writes = []

    def freeze(self):
        return StageEffects(
            reads=frozenset(self.reads),
            writes=frozenset(self.writes),
            control=self.control,
            pc_writes=tuple(self.pc_writes),
        )


def read_effects(model, stage_ops, truncated):
    """The :class:`InstructionEffects` of one instruction, read off its
    raw SimIR: ``stage_ops`` holds the lowered micro-ops per pipeline
    stage (only selected IF/SWITCH variants, sub-operations inlined).

    Conditional accesses inside run-time guards are included
    conservatively.
    """
    from repro.simcc import ir

    pc_cell = (model.pc_name, None)
    stages = []
    for ops in stage_ops:
        acc = _StageAccumulator()
        _accumulate(ops, acc, False, pc_cell, ir)
        stages.append(acc.freeze())
    return InstructionEffects(stages=tuple(stages), truncated=truncated)


def _accumulate(ops, acc, cond, pc_cell, ir):
    """Fold one lowered micro-op sequence into a stage accumulator.

    ``cond`` marks ops nested under a run-time guard/loop (their PC
    writes are conditional; their reads/writes still count, which is
    the conservative inclusion the hazard pass relies on).
    """
    for op in ops:
        if isinstance(op, (ir.WriteReg, ir.WriteElem)):
            cell = ir.write_cell(op)
            acc.writes.add(cell)
            if isinstance(op, ir.WriteElem):
                acc.reads |= ir.read_cells(op.index)
            acc.reads |= ir.read_cells(op.value)
            if op.augmented:
                acc.reads.add(cell)
            elif cell == pc_cell:
                acc.pc_writes.append(PCWrite(
                    target=_const_target(op.value, ir),
                    conditional=cond,
                ))
        elif isinstance(op, ir.WriteLocal):
            acc.reads |= ir.read_cells(op.value)
        elif isinstance(op, ir.Control):
            acc.control = True
            for arg in op.args:
                acc.reads |= ir.read_cells(arg)
        elif isinstance(op, ir.Guard):
            acc.reads |= ir.read_cells(op.cond)
            _accumulate(op.then_ops, acc, True, pc_cell, ir)
            _accumulate(op.else_ops, acc, True, pc_cell, ir)
        elif isinstance(op, ir.Loop):
            acc.reads |= ir.read_cells(op.cond)
            _accumulate(op.body, acc, True, pc_cell, ir)
        elif isinstance(op, ir.Eval):
            acc.reads |= ir.read_cells(op.value)


def _const_target(value, ir):
    """The constant a PC write assigns, or None when computed.

    Folds just this value (never whole op sequences: folding away a
    constant-false guard would silently shrink the write sets the
    hazard pass depends on).
    """
    folded = ir._fold_value(value, ir.PassStats())
    return folded.value if isinstance(folded, ir.Const) else None


def packet_collisions(members, report, packet_pc):
    """Record into ``report`` (check id ``packet.collision``) each
    write-set collision between the members of the execute packet at
    ``packet_pc``; ``members`` is a sequence of ``(address,
    InstructionEffects)`` pairs."""
    seen = set()
    indexed = [(addr, fx.writes) for addr, fx in members]
    for i, (addr_a, cells_a) in enumerate(indexed):
        for addr_b, cells_b in indexed[i + 1:]:
            for cell_a in sorted(cells_a):
                for cell_b in sorted(cells_b):
                    if not cells_collide(cell_a, cell_b):
                        continue
                    message = (
                        "packet at 0x%x: parallel instructions at 0x%x "
                        "and 0x%x both write %s"
                        % (packet_pc, addr_a, addr_b,
                           cell_text(cell_a, cell_b))
                    )
                    if message in seen:
                        continue
                    seen.add(message)
                    report.add("warning", addr_a, "packet.collision",
                               message)


__all__ = [
    "InstructionEffects",
    "StageEffects",
    "PCWrite",
    "cells_collide",
    "cell_text",
    "packet_collisions",
    "read_effects",
]
