"""Tree-walking evaluator for behaviour ASTs.

This back-end does *everything at run-time*: operand values are looked
up in the decoded node, group operands delegate to the selected
sub-operation's EXPRESSION, and IF/SWITCH variants are resolved on each
execution (unless a variant cache is supplied -- the compiled level-2
simulator reuses the evaluator with pre-resolved variants).

The arithmetic must agree bit-for-bit with the code generator
(:mod:`repro.simcc.ir`); both use unbounded Python integers with
C-style division and 0/1 booleans, and canonicalise on resource writes.
"""

from __future__ import annotations

from repro.behavior import ast
from repro.behavior.runtime import (
    CONTROL_INTRINSICS,
    PURE_INTRINSICS,
    idiv,
    imod,
)
from repro.support.errors import BehaviorError, SimulationError

_MAX_LOOP_ITERATIONS = 1 << 22


class EvalContext:
    """Execution context for one behaviour invocation.

    ``variant_cache`` maps DecodedNode id -> (node, resolved variant);
    pass a persistent dict to move variant resolution to compile time
    (level 2), or None to resolve on every execution (interpretive).
    The entry pins the node: ids are only unique among live objects.
    """

    __slots__ = ("state", "control", "model", "variant_cache")

    def __init__(self, state, control, model, variant_cache=None):
        self.state = state
        self.control = control
        self.model = model
        self.variant_cache = variant_cache

    def variant_of(self, node):
        cache = self.variant_cache
        if cache is None:
            return node.variant(self.model)
        key = id(node)
        entry = cache.get(key)
        if entry is None or entry[0] is not node:
            entry = (node, node.variant(self.model))
            cache[key] = entry
        return entry[1]


def execute_behavior(statements, node, ctx):
    """Execute behaviour ``statements`` in the context of ``node``."""
    _exec_statements(statements, node, ctx, {})


def evaluate_expression(expression, node, ctx):
    """Evaluate a single expression in the context of ``node``."""
    return _eval(expression, node, ctx, {})


# -- statements ---------------------------------------------------------------


def _exec_statements(statements, node, ctx, local_vars):
    for stmt in statements:
        _exec_one(stmt, node, ctx, local_vars)


def _exec_one(stmt, node, ctx, local_vars):
    if isinstance(stmt, ast.Assign):
        _exec_assign(stmt, node, ctx, local_vars)
    elif isinstance(stmt, ast.ExprStmt):
        _eval(stmt.expression, node, ctx, local_vars)
    elif isinstance(stmt, ast.LocalDecl):
        value = 0
        if stmt.init is not None:
            value = _eval(stmt.init, node, ctx, local_vars)
        local_vars[stmt.name] = value
    elif isinstance(stmt, ast.If):
        if _eval(stmt.condition, node, ctx, local_vars):
            _exec_statements(stmt.then_body, node, ctx, local_vars)
        else:
            _exec_statements(stmt.else_body, node, ctx, local_vars)
    elif isinstance(stmt, ast.While):
        iterations = 0
        while _eval(stmt.condition, node, ctx, local_vars):
            _exec_statements(stmt.body, node, ctx, local_vars)
            iterations += 1
            if iterations >= _MAX_LOOP_ITERATIONS:
                raise SimulationError(
                    "behaviour while-loop exceeded %d iterations"
                    % _MAX_LOOP_ITERATIONS
                )
    elif isinstance(stmt, ast.Block):
        _exec_statements(stmt.body, node, ctx, local_vars)
    else:
        raise BehaviorError("unknown statement %r" % (stmt,), None)


def _exec_assign(stmt, node, ctx, local_vars):
    value = _eval(stmt.value, node, ctx, local_vars)
    if stmt.op != "=":
        current = _eval(stmt.target, node, ctx, local_vars)
        value = _apply_binary(stmt.op[:-1], current, value)
    _store(stmt.target, value, node, ctx, local_vars)


def _store(target, value, node, ctx, local_vars):
    if isinstance(target, ast.Name):
        name = target.name
        if name in local_vars:
            local_vars[name] = value
            return
        operand = _resolve_operand(name, node)
        if operand is not None:
            kind, payload = operand
            if kind == "label":
                raise BehaviorError(
                    "cannot assign to coding field %r" % name, target.location
                )
            child = payload
            child_variant = ctx.variant_of(child)
            if child_variant.expression is None:
                raise BehaviorError(
                    "operand %r (operation %r) has no EXPRESSION to assign "
                    "through" % (name, child.operation.name),
                    target.location,
                )
            _store(
                child_variant.expression.expression, value, child, ctx, {}
            )
            return
        state = ctx.state
        reg = ctx.model.registers.get(name)
        if reg is not None and not reg.is_file:
            setattr(state, name, reg.dtype.canonical(value))
            return
        raise BehaviorError(
            "cannot assign to %r" % name, target.location
        )
    if isinstance(target, ast.Index):
        base = target.base
        index = _eval(target.index, node, ctx, local_vars)
        model = ctx.model
        reg = model.registers.get(base)
        if reg is not None and reg.is_file:
            _checked_store(
                getattr(ctx.state, base), index, reg.dtype.canonical(value),
                base,
            )
            return
        mem = model.memories.get(base)
        if mem is not None:
            _checked_store(
                getattr(ctx.state, base), index, mem.dtype.canonical(value),
                base,
            )
            return
        raise BehaviorError(
            "cannot index-assign to %r" % base, target.location
        )
    raise BehaviorError("invalid assignment target %r" % (target,), None)


def _checked_store(storage, index, value, name):
    if index < 0 or index >= len(storage):
        raise SimulationError(
            "index %d out of range for %r (size %d)" % (index, name,
                                                        len(storage))
        )
    storage[index] = value


# -- expressions --------------------------------------------------------------


def _resolve_operand(name, node):
    """Resolve ``name`` as an operand of ``node`` (or via REFERENCE)."""
    if name in node.fields:
        return ("label", node.fields[name])
    if name in node.children:
        return ("child", node.children[name])
    if name in node.operation.references:
        return node.lookup(name)
    return None


def _eval(expr, node, ctx, local_vars):
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.Name):
        return _eval_name(expr, node, ctx, local_vars)
    if isinstance(expr, ast.Index):
        return _eval_index(expr, node, ctx, local_vars)
    if isinstance(expr, ast.Binary):
        return _eval_binary(expr, node, ctx, local_vars)
    if isinstance(expr, ast.Unary):
        value = _eval(expr.operand, node, ctx, local_vars)
        if expr.op == "-":
            return -value
        if expr.op == "~":
            return ~value
        return 0 if value else 1  # "!"
    if isinstance(expr, ast.Ternary):
        if _eval(expr.condition, node, ctx, local_vars):
            return _eval(expr.if_true, node, ctx, local_vars)
        return _eval(expr.if_false, node, ctx, local_vars)
    if isinstance(expr, ast.Call):
        return _eval_call(expr, node, ctx, local_vars)
    raise BehaviorError("unknown expression %r" % (expr,), None)


def _eval_name(expr, node, ctx, local_vars):
    name = expr.name
    if name in local_vars:
        return local_vars[name]
    operand = _resolve_operand(name, node)
    if operand is not None:
        kind, payload = operand
        if kind == "label":
            return payload
        child = payload
        child_variant = ctx.variant_of(child)
        if child_variant.expression is None:
            raise BehaviorError(
                "operand %r (operation %r) has no EXPRESSION"
                % (name, child.operation.name),
                expr.location,
            )
        return _eval(child_variant.expression.expression, child, ctx, {})
    model = ctx.model
    reg = model.registers.get(name)
    if reg is not None:
        if reg.is_file:
            raise BehaviorError(
                "register file %r used without index" % name, expr.location
            )
        return getattr(ctx.state, name)
    if name in model.config.defines:
        return model.config.defines[name]
    raise BehaviorError("unknown name %r in behaviour" % name, expr.location)


def _eval_index(expr, node, ctx, local_vars):
    base = expr.base
    index = _eval(expr.index, node, ctx, local_vars)
    model = ctx.model
    reg = model.registers.get(base)
    storage = None
    if reg is not None and reg.is_file:
        storage = getattr(ctx.state, base)
    else:
        mem = model.memories.get(base)
        if mem is not None:
            storage = getattr(ctx.state, base)
    if storage is None:
        raise BehaviorError(
            "%r is not an indexable resource" % base, expr.location
        )
    if index < 0 or index >= len(storage):
        raise SimulationError(
            "index %d out of range for %r (size %d)"
            % (index, base, len(storage))
        )
    return storage[index]


def _apply_binary(op, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return idiv(left, right)
    if op == "%":
        return imod(left, right)
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        return left << right
    if op == ">>":
        return left >> right
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "<":
        return 1 if left < right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">=":
        return 1 if left >= right else 0
    raise BehaviorError("unknown binary operator %r" % op, None)


def _eval_binary(expr, node, ctx, local_vars):
    op = expr.op
    if op == "&&":
        left = _eval(expr.left, node, ctx, local_vars)
        if not left:
            return 0
        return 1 if _eval(expr.right, node, ctx, local_vars) else 0
    if op == "||":
        left = _eval(expr.left, node, ctx, local_vars)
        if left:
            return 1
        return 1 if _eval(expr.right, node, ctx, local_vars) else 0
    left = _eval(expr.left, node, ctx, local_vars)
    right = _eval(expr.right, node, ctx, local_vars)
    return _apply_binary(op, left, right)


def _eval_call(expr, node, ctx, local_vars):
    name = expr.name
    pure = PURE_INTRINSICS.get(name)
    if pure is not None:
        args = [_eval(a, node, ctx, local_vars) for a in expr.args]
        return pure(*args)
    control_method = CONTROL_INTRINSICS.get(name)
    if control_method is not None:
        args = [_eval(a, node, ctx, local_vars) for a in expr.args]
        getattr(ctx.control, control_method)(*args)
        return 0
    # Child-behaviour invocation: run the selected sub-operation's
    # behaviours inline, in the child's operand context.
    operand = _resolve_operand(name, node)
    if operand is not None and operand[0] == "child":
        child = operand[1]
        child_variant = ctx.variant_of(child)
        for behavior in child_variant.behaviors:
            _exec_statements(behavior.statements, child, ctx, {})
        return 0
    raise BehaviorError("unknown callable %r in behaviour" % name,
                        expr.location)
