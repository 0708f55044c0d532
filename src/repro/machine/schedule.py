"""Operation scheduling: decoded instruction -> per-stage micro-operations.

This implements the paper's *operation sequencing* model requirement
(its Section 4.2): from the pipeline assignment of operations (``IN
pipe.STAGE``) and the ACTIVATION chains, derive the intra-instruction
precedence of operations -- which behaviour runs in which pipeline stage
(the paper's Figure 2).

The schedule is *decode-dependent*: IF/SWITCH guards may select
different behaviours or activations per instruction encoding, so the
schedule is computed from a :class:`repro.coding.DecodedNode`.  The
simulation compiler calls this once per program location
(compile-time); the interpretive simulator calls it on every fetch
(run-time).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.behavior.evaluator import execute_behavior
from repro.coding.decoder import DecodedNode
from repro.machine.driver import IssueSlot
from repro.support.errors import LisaSemanticError


@dataclass(frozen=True)
class ScheduledBehavior:
    """One behaviour of one operation instance, placed in a stage."""

    stage: int
    node: DecodedNode  # operation instance providing the operand context
    behavior: object  # repro.lisa.model.Behavior


def build_schedule(node, model):
    """Compute the per-stage behaviour list for a decoded instruction.

    Returns a tuple of :class:`ScheduledBehavior`, ordered by activation
    precedence within each stage (parents before activated children).
    ``flush``/``halt`` requests and PC writes happen when the scheduled
    stage executes, which is how delay slots and pipeline flushes emerge.
    """
    items = []
    _visit(node, model, _root_stage(node, model), items, guard=set())
    items.sort(key=lambda item: item.stage)
    return tuple(items)


def sequence_slot(model, nodes, ctx):
    """The issue slot of one packet whose members decoded to ``nodes``,
    scheduled and bound to ``ctx`` now: the run-time operation
    sequencing of the interpretive and predecoded fetches."""
    stages = [[] for _ in range(model.pipeline.depth)]
    for node in nodes:
        for item in build_schedule(node, model):
            stages[item.stage].append(
                partial(execute_behavior, item.behavior.statements,
                        item.node, ctx)
            )
    return IssueSlot(
        ops_by_stage=tuple(tuple(stage) for stage in stages),
        words=len(nodes),
        insn_count=len(nodes),
    )


def _root_stage(node, model):
    operation = node.operation
    if operation.stage is not None:
        return model.stage_of(operation)
    return model.stage_of(operation)  # default execute stage


def _visit(node, model, inherited_stage, items, guard):
    operation = node.operation
    if operation.name in guard:
        raise LisaSemanticError(
            "activation cycle through operation %r" % operation.name
        )
    guard = guard | {operation.name}
    if operation.stage is not None:
        stage = model.stage_of(operation)
    else:
        stage = inherited_stage
    variant = node.variant(model)
    for behavior in variant.behaviors:
        items.append(ScheduledBehavior(stage, node, behavior))
    for name in variant.activations:
        for child in _activation_targets(node, model, name):
            _visit(child, model, stage, items, guard)


def _activation_targets(node, model, name):
    """Resolve one ACTIVATION name to decoded child nodes.

    A name can be a GROUP/INSTANCE slot of this operation (yielding the
    decoded sub-operation) or a global helper operation without coding
    (yielding a fresh node parented here so its REFERENCEs resolve
    through this instruction's operands).
    """
    if name in node.children:
        yield node.children[name]
        return
    if name in node.operation.references:
        kind, value = node.lookup(name)
        if kind != "child":
            raise LisaSemanticError(
                "ACTIVATION of %r: reference %r is not an operation"
                % (node.operation.name, name)
            )
        yield value
        return
    operation = model.operations.get(name)
    if operation is None:
        raise LisaSemanticError(
            "ACTIVATION of %r names unknown operation %r"
            % (node.operation.name, name)
        )
    yield DecodedNode(operation=operation, parent=node, slot_name=None)
