"""SimIR: the typed micro-operation IR between sequencing and emission.

The paper's operation-instantiation step (Section 3, step 3) is a
*translation*: decoded operations become specialised code.  SimIR makes
that translation explicit.  Instead of three independent
string-generating paths (the exec'd function path, the standalone
module emitter, and the static column fusion) that had to agree
bit-for-bit while sharing no representation, behaviours now lower into
one small typed IR:

* decode-time constants (:class:`Const`) -- coding fields, defines and
  selected sub-operation expressions folded at simulation-compile time,
* resource reads/writes (:class:`ReadReg`/:class:`ReadElem`/
  :class:`WriteReg`/:class:`WriteElem`) carrying the declared width of
  the storage they touch,
* ALU operations (:class:`Alu`, :class:`Unary`, :class:`Intrinsic`,
  :class:`Select`) over unbounded integers,
* control intrinsics (:class:`Control`) targeting the pipeline-control
  object, and
* guards and loops (:class:`Guard`, :class:`Loop`) for run-time
  conditional behaviour.

A pass pipeline (:func:`run_passes`) optimises the lowered form --
constant folding of decoded operands, width-canonicalisation
coalescing, dead local/resource-write elimination, runtime-helper
hoisting -- and two backends consume the *same* lowered IR:

* :func:`render_function_source` renders a function as ``(s, c)``
  module-level source (the portable table's shared namespace and the
  emitted simulator module), and
* :func:`compile_function` execs that same source for one function and
  binds it to a state/control pair (the static column fuser).

The coalescing pass asks the abstract interpreter
(:mod:`repro.analysis.absint`) which stores are already canonical and
drops their wrap here, in the IR, so every backend -- these two and
the native C backend (:mod:`repro.simcc.native`) -- renders the same
raw stores.

Because both backends render from the same lowered ops, their outputs
are bit-identical by construction -- the cross-backend matrix in the
test suite asserts it on every application x model pair.  The IR is
also the persistence format: portable tables and the on-disk cache
store IR payloads (:func:`function_to_payload`), not source text.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.analysis.effects import cells_collide
from repro.behavior import ast as bast
from repro.behavior.runtime import (
    CODEGEN_GLOBALS,
    CODEGEN_INTRINSIC_NAMES,
    CONTROL_INTRINSICS,
    PURE_INTRINSICS,
    bind_function,
)
from repro.support.bitutils import canonical_source, canonicalize
from repro.support.errors import BehaviorError

#: Prefix distinguishing behaviour-local variables in rendered source.
LOCAL_PREFIX = "_l_"

#: Inline-depth limit for sub-operation expansion during lowering.
MAX_LOWER_DEPTH = 64

_CMP_OPS = frozenset(["==", "!=", "<", ">", "<=", ">="])
_PLAIN_OPS = frozenset(["+", "-", "*", "&", "|", "^", "<<", ">>"])
_BOOL_OPS = frozenset(["&&", "||"])
_ALU_OPS = _PLAIN_OPS | _CMP_OPS | _BOOL_OPS | frozenset(["/", "%"])


class LoweringLimit(BehaviorError):
    """Sub-operation nesting exceeded the lowering depth limit."""


# ---------------------------------------------------------------------------
# IR nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    """Base class of SimIR value (expression) nodes."""


@dataclass(frozen=True)
class Const(Value):
    """A decode-time constant: coding field, define, or folded result."""

    value: int


@dataclass(frozen=True)
class ReadReg(Value):
    """Read a scalar register resource."""

    name: str


@dataclass(frozen=True)
class ReadElem(Value):
    """Read one element of a register file or memory."""

    resource: str
    index: Value


@dataclass(frozen=True)
class ReadLocal(Value):
    """Read a behaviour-local variable."""

    name: str


@dataclass(frozen=True)
class Unary(Value):
    """Unary ALU operation: ``-``, ``~`` or ``!``."""

    op: str
    operand: Value


@dataclass(frozen=True)
class Alu(Value):
    """Binary ALU operation over unbounded integers.

    Comparison and logical operators produce 0/1; division and modulo
    follow C semantics (truncation toward zero).
    """

    op: str
    left: Value
    right: Value


@dataclass(frozen=True)
class Intrinsic(Value):
    """A pure behaviour intrinsic (sext/zext/sat/abs/min/max)."""

    name: str
    args: Tuple[Value, ...]


@dataclass(frozen=True)
class Select(Value):
    """Ternary select: ``if_true if cond else if_false``."""

    cond: Value
    if_true: Value
    if_false: Value


@dataclass(frozen=True)
class MicroOp:
    """Base class of SimIR micro-operation (statement) nodes."""


@dataclass(frozen=True)
class WriteReg(MicroOp):
    """Write a scalar register, canonicalising to the declared width.

    ``width`` is ``None`` when a pass proved the value already
    canonical (or the target needs no canonicalisation); the backends
    then emit a raw store.  ``augmented`` marks read-modify-write
    updates lowered from ``op=`` assignments (the read is already part
    of ``value``; the flag only informs analyses).
    """

    name: str
    value: Value
    width: Optional[int] = None
    signed: bool = False
    augmented: bool = False


@dataclass(frozen=True)
class WriteElem(MicroOp):
    """Write one element of a register file or memory."""

    resource: str
    index: Value
    value: Value
    width: Optional[int] = None
    signed: bool = False
    augmented: bool = False


@dataclass(frozen=True)
class WriteLocal(MicroOp):
    """Write a behaviour-local variable (unbounded, never canonicalised)."""

    name: str
    value: Value


@dataclass(frozen=True)
class Control(MicroOp):
    """Invoke a pipeline-control intrinsic (flush/stall/halt)."""

    method: str  # the PipelineControl method name
    args: Tuple[Value, ...]


@dataclass(frozen=True)
class Guard(MicroOp):
    """Run-time conditional: execute ``then_ops`` or ``else_ops``."""

    cond: Value
    then_ops: Tuple[MicroOp, ...]
    else_ops: Tuple[MicroOp, ...] = ()


@dataclass(frozen=True)
class Loop(MicroOp):
    """Run-time while loop."""

    cond: Value
    body: Tuple[MicroOp, ...]


@dataclass(frozen=True)
class Eval(MicroOp):
    """Evaluate a value for completeness (trap parity with the
    evaluator: an expression statement may still fault)."""

    value: Value


@dataclass
class IRFunction:
    """One lowered micro-operation function (a (pc, stage) cell or a
    fused column).

    ``helpers`` holds the mangled runtime-helper names the body uses
    (``__sext`` etc.), filled in by :func:`hoist_helpers`; backends bind
    them as default parameters so the hot path uses local loads.
    """

    name: str
    ops: Tuple[MicroOp, ...]
    helpers: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Lowering: behaviour AST x decoded operand context -> SimIR
# ---------------------------------------------------------------------------


class Lowerer:
    """Lowers decoded behaviours into SimIR micro-operations.

    Performs, at lowering time, exactly the resolution the former
    string generator performed: coding fields fold to :class:`Const`,
    group operands inline the selected sub-operation's EXPRESSION,
    sub-operation invocations splice the child's behaviours in, and
    resource writes pick up the declared width of their target.
    Sub-operation inlining deeper than :data:`MAX_LOWER_DEPTH` raises
    :class:`LoweringLimit`.
    """

    def __init__(self, model):
        self._model = model
        self._variant_cache = {}
        self._depth_limit = MAX_LOWER_DEPTH

    # -- entry point --------------------------------------------------------

    def lower_statements(self, statements, node, depth=0):
        ops = []
        for stmt in statements:
            ops.extend(self._stmt(stmt, node, depth))
        return ops

    # -- statements ---------------------------------------------------------

    def _stmt(self, stmt, node, depth):
        if isinstance(stmt, bast.Assign):
            return [self._assign(stmt, node, depth)]
        if isinstance(stmt, bast.ExprStmt):
            return self._expr_stmt(stmt.expression, node, depth)
        if isinstance(stmt, bast.LocalDecl):
            init = Const(0)
            if stmt.init is not None:
                init = self._expr(stmt.init, node, depth)
            return [WriteLocal(stmt.name, init)]
        if isinstance(stmt, bast.If):
            return [Guard(
                cond=self._expr(stmt.condition, node, depth),
                then_ops=tuple(
                    self.lower_statements(stmt.then_body, node, depth)
                ),
                else_ops=tuple(
                    self.lower_statements(stmt.else_body, node, depth)
                ),
            )]
        if isinstance(stmt, bast.While):
            return [Loop(
                cond=self._expr(stmt.condition, node, depth),
                body=tuple(self.lower_statements(stmt.body, node, depth)),
            )]
        if isinstance(stmt, bast.Block):
            return self.lower_statements(stmt.body, node, depth)
        raise BehaviorError("cannot lower statement %r" % (stmt,), None)

    def _expr_stmt(self, expr, node, depth):
        if isinstance(expr, bast.Call):
            control_method = CONTROL_INTRINSICS.get(expr.name)
            if control_method is not None:
                return [Control(
                    method=control_method,
                    args=tuple(
                        self._expr(a, node, depth) for a in expr.args
                    ),
                )]
            operand = self._operand(expr.name, node)
            if operand is not None and operand[0] == "child":
                # Inline the selected sub-operation's behaviours.
                child = operand[1]
                if depth >= self._depth_limit:
                    raise LoweringLimit(
                        "sub-operation nesting exceeds %d levels"
                        % self._depth_limit, None
                    )
                variant = self._variant(child)
                ops = []
                for behavior in variant.behaviors:
                    ops.extend(self.lower_statements(
                        behavior.statements, child, depth + 1
                    ))
                return ops
            if expr.name in PURE_INTRINSICS:
                return []  # pure call in statement position: no effect
        return [Eval(self._expr(expr, node, depth))]

    def _assign(self, stmt, node, depth):
        value = self._expr(stmt.value, node, depth)
        location = self._resolve_lvalue(stmt.target, node, depth)
        kind = location[0]
        augmented = stmt.op != "="
        if augmented:
            value = Alu(stmt.op[:-1], self._location_read(location), value)
        if kind == "local":
            return WriteLocal(location[1], value)
        if kind == "reg":
            _, name, dtype = location
            return WriteReg(name, value, width=dtype.width,
                            signed=dtype.signed, augmented=augmented)
        _, resource, index, dtype = location
        return WriteElem(resource, index, value, width=dtype.width,
                         signed=dtype.signed, augmented=augmented)

    def _resolve_lvalue(self, target, node, depth):
        """Resolve an assignment target to a storage location tuple:
        ``("reg", name, dtype)``, ``("elem", resource, index, dtype)``
        or ``("local", name)``."""
        if isinstance(target, bast.Name):
            name = target.name
            operand = self._operand(name, node)
            if operand is not None:
                kind, payload = operand
                if kind == "label":
                    raise BehaviorError(
                        "cannot assign to coding field %r" % name,
                        target.location,
                    )
                child = payload
                variant = self._variant(child)
                if variant.expression is None:
                    raise BehaviorError(
                        "operand %r (operation %r) has no EXPRESSION to "
                        "assign through" % (name, child.operation.name),
                        target.location,
                    )
                return self._resolve_lvalue(
                    variant.expression.expression, child, depth
                )
            reg = self._model.registers.get(name)
            if reg is not None and not reg.is_file:
                return ("reg", name, reg.dtype)
            # Anything else writable by name is a behaviour-local.
            return ("local", name)
        if isinstance(target, bast.Index):
            base = target.base
            index = self._expr(target.index, node, depth)
            reg = self._model.registers.get(base)
            if reg is not None and reg.is_file:
                return ("elem", base, index, reg.dtype)
            mem = self._model.memories.get(base)
            if mem is not None:
                return ("elem", base, index, mem.dtype)
            raise BehaviorError(
                "cannot index-assign to %r" % base, target.location
            )
        raise BehaviorError("invalid assignment target %r" % (target,), None)

    @staticmethod
    def _location_read(location):
        if location[0] == "local":
            return ReadLocal(location[1])
        if location[0] == "reg":
            return ReadReg(location[1])
        return ReadElem(location[1], location[2])

    # -- expressions --------------------------------------------------------

    def _variant(self, node):
        # Keyed by identity, with the node pinned in the entry: ids are
        # only unique among live objects, and a guard refresh replaces
        # decoded nodes whose ids could otherwise be recycled.
        key = id(node)
        entry = self._variant_cache.get(key)
        if entry is None or entry[0] is not node:
            entry = (node, node.variant(self._model))
            self._variant_cache[key] = entry
        return entry[1]

    def _operand(self, name, node):
        if name in node.fields:
            return ("label", node.fields[name])
        if name in node.children:
            return ("child", node.children[name])
        if name in node.operation.references:
            return node.lookup(name)
        return None

    def _expr(self, expr, node, depth):
        if isinstance(expr, bast.IntLit):
            return Const(expr.value)
        if isinstance(expr, bast.Name):
            return self._name(expr, node, depth)
        if isinstance(expr, bast.Index):
            base = expr.base
            model = self._model
            reg = model.registers.get(base)
            mem = model.memories.get(base)
            if (reg is not None and reg.is_file) or mem is not None:
                return ReadElem(base, self._expr(expr.index, node, depth))
            raise BehaviorError(
                "%r is not an indexable resource" % base, expr.location
            )
        if isinstance(expr, bast.Unary):
            return Unary(expr.op, self._expr(expr.operand, node, depth))
        if isinstance(expr, bast.Binary):
            if expr.op not in _ALU_OPS:
                raise BehaviorError(
                    "unknown binary operator %r" % expr.op, None
                )
            return Alu(
                expr.op,
                self._expr(expr.left, node, depth),
                self._expr(expr.right, node, depth),
            )
        if isinstance(expr, bast.Ternary):
            return Select(
                cond=self._expr(expr.condition, node, depth),
                if_true=self._expr(expr.if_true, node, depth),
                if_false=self._expr(expr.if_false, node, depth),
            )
        if isinstance(expr, bast.Call):
            return self._call(expr, node, depth)
        raise BehaviorError("cannot lower expression %r" % (expr,), None)

    def _name(self, expr, node, depth):
        name = expr.name
        operand = self._operand(name, node)
        if operand is not None:
            kind, payload = operand
            if kind == "label":
                return Const(payload)  # constant folding of coding fields
            child = payload
            if depth >= self._depth_limit:
                raise LoweringLimit(
                    "sub-operation nesting exceeds %d levels"
                    % self._depth_limit, None
                )
            variant = self._variant(child)
            if variant.expression is None:
                raise BehaviorError(
                    "operand %r (operation %r) has no EXPRESSION"
                    % (name, child.operation.name),
                    expr.location,
                )
            return self._expr(
                variant.expression.expression, child, depth + 1
            )
        reg = self._model.registers.get(name)
        if reg is not None:
            if reg.is_file:
                raise BehaviorError(
                    "register file %r used without index" % name,
                    expr.location,
                )
            return ReadReg(name)
        if name in self._model.config.defines:
            return Const(self._model.config.defines[name])
        # Otherwise this must be a behaviour-local variable.
        return ReadLocal(name)

    def _call(self, expr, node, depth):
        if expr.name in PURE_INTRINSICS:
            return Intrinsic(
                expr.name,
                tuple(self._expr(a, node, depth) for a in expr.args),
            )
        if expr.name in CONTROL_INTRINSICS:
            raise BehaviorError(
                "control intrinsic %r() cannot be used as a value"
                % expr.name,
                expr.location,
            )
        operand = self._operand(expr.name, node)
        if operand is not None and operand[0] == "child":
            raise BehaviorError(
                "sub-operation call %r() is only allowed as a standalone "
                "statement" % expr.name,
                expr.location,
            )
        raise BehaviorError(
            "unknown callable %r in behaviour" % expr.name, expr.location
        )


# ---------------------------------------------------------------------------
# IR inspection helpers
# ---------------------------------------------------------------------------


def walk_values(value):
    """Yield ``value`` and every nested value node."""
    yield value
    if isinstance(value, ReadElem):
        yield from walk_values(value.index)
    elif isinstance(value, Unary):
        yield from walk_values(value.operand)
    elif isinstance(value, Alu):
        yield from walk_values(value.left)
        yield from walk_values(value.right)
    elif isinstance(value, Intrinsic):
        for arg in value.args:
            yield from walk_values(arg)
    elif isinstance(value, Select):
        yield from walk_values(value.cond)
        yield from walk_values(value.if_true)
        yield from walk_values(value.if_false)


def walk_ops(ops):
    """Yield every micro-op in ``ops``, recursing into guards/loops."""
    for op in ops:
        yield op
        if isinstance(op, Guard):
            yield from walk_ops(op.then_ops)
            yield from walk_ops(op.else_ops)
        elif isinstance(op, Loop):
            yield from walk_ops(op.body)


def op_values(op):
    """Yield the top-level value nodes of one micro-op (not recursing
    into nested guard/loop bodies)."""
    if isinstance(op, (WriteReg, WriteLocal)):
        yield op.value
    elif isinstance(op, WriteElem):
        yield op.index
        yield op.value
    elif isinstance(op, Control):
        yield from op.args
    elif isinstance(op, Guard):
        yield op.cond
    elif isinstance(op, Loop):
        yield op.cond
    elif isinstance(op, Eval):
        yield op.value


def read_cells(value):
    """Architectural cells a value reads: ``(resource, element)`` pairs
    where ``element`` is a decimal string for a constant index, ``"*"``
    for a computed one, and ``None`` for a scalar register."""
    cells = set()
    for node in walk_values(value):
        if isinstance(node, ReadReg):
            cells.add((node.name, None))
        elif isinstance(node, ReadElem):
            index = node.index
            if isinstance(index, Const):
                cells.add((node.resource, str(index.value)))
            else:
                cells.add((node.resource, "*"))
    return cells


def write_cell(op):
    """The cell a write micro-op targets, or None for local writes."""
    if isinstance(op, WriteReg):
        return (op.name, None)
    if isinstance(op, WriteElem):
        if isinstance(op.index, Const):
            return (op.resource, str(op.index.value))
        return (op.resource, "*")
    return None


def value_locals(value):
    """Names of behaviour-locals a value reads."""
    return {
        node.name for node in walk_values(value)
        if isinstance(node, ReadLocal)
    }


# ---------------------------------------------------------------------------
# Pass pipeline
# ---------------------------------------------------------------------------


class PassStats(dict):
    """Counter dict recording what each pass did (for tests, the IR
    dump, and the observability layer)."""

    def bump(self, key, amount=1):
        self[key] = self.get(key, 0) + amount


def _fold_alu(op, left, right):
    """Fold a binary ALU op over two constants, or return None when the
    fold is unsafe (division by zero, negative shift)."""
    if op == "/":
        return None if right == 0 else _c_idiv(left, right)
    if op == "%":
        return None if right == 0 else left - _c_idiv(left, right) * right
    if op in ("<<", ">>") and right < 0:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
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
    if op == "&&":
        return 1 if (left and right) else 0
    if op == "||":
        return 1 if (left or right) else 0
    raise BehaviorError("unknown binary operator %r" % op, None)


def _c_idiv(a, b):
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _fold_value(value, stats):
    if isinstance(value, ReadElem):
        return ReadElem(value.resource, _fold_value(value.index, stats))
    if isinstance(value, Unary):
        operand = _fold_value(value.operand, stats)
        if isinstance(operand, Const):
            stats.bump("const_folds")
            if value.op == "-":
                return Const(-operand.value)
            if value.op == "~":
                return Const(~operand.value)
            return Const(0 if operand.value else 1)
        return Unary(value.op, operand)
    if isinstance(value, Alu):
        left = _fold_value(value.left, stats)
        right = _fold_value(value.right, stats)
        if isinstance(left, Const) and isinstance(right, Const):
            folded = _fold_alu(value.op, left.value, right.value)
            if folded is not None:
                stats.bump("const_folds")
                return Const(folded)
        elif isinstance(left, Const) and value.op in _BOOL_OPS:
            # Short-circuit semantics: a constant left side either
            # decides the result or reduces to a boolean test of the
            # right side (which must still evaluate, for trap parity).
            stats.bump("const_folds")
            if value.op == "&&" and not left.value:
                return Const(0)
            if value.op == "||" and left.value:
                return Const(1)
            return _fold_value(Alu("!=", right, Const(0)), stats)
        return Alu(value.op, left, right)
    if isinstance(value, Intrinsic):
        args = tuple(_fold_value(a, stats) for a in value.args)
        if all(isinstance(a, Const) for a in args):
            try:
                folded = PURE_INTRINSICS[value.name](
                    *[a.value for a in args]
                )
            except Exception:
                folded = None  # fold failure surfaces at run-time
            if folded is not None:
                stats.bump("const_folds")
                return Const(folded)
        return Intrinsic(value.name, args)
    if isinstance(value, Select):
        cond = _fold_value(value.cond, stats)
        if isinstance(cond, Const):
            stats.bump("const_folds")
            branch = value.if_true if cond.value else value.if_false
            return _fold_value(branch, stats)
        return Select(cond, _fold_value(value.if_true, stats),
                      _fold_value(value.if_false, stats))
    return value


def _fold_op(op, stats):
    """Fold one micro-op; returns a list (guards can splice away)."""
    if isinstance(op, WriteReg):
        return [WriteReg(op.name, _fold_value(op.value, stats),
                         op.width, op.signed, op.augmented)]
    if isinstance(op, WriteElem):
        return [WriteElem(op.resource, _fold_value(op.index, stats),
                          _fold_value(op.value, stats),
                          op.width, op.signed, op.augmented)]
    if isinstance(op, WriteLocal):
        return [WriteLocal(op.name, _fold_value(op.value, stats))]
    if isinstance(op, Control):
        return [Control(op.method,
                        tuple(_fold_value(a, stats) for a in op.args))]
    if isinstance(op, Guard):
        cond = _fold_value(op.cond, stats)
        then_ops = _fold_ops(op.then_ops, stats)
        else_ops = _fold_ops(op.else_ops, stats)
        if isinstance(cond, Const):
            stats.bump("const_folds")
            return list(then_ops if cond.value else else_ops)
        return [Guard(cond, then_ops, else_ops)]
    if isinstance(op, Loop):
        cond = _fold_value(op.cond, stats)
        if isinstance(cond, Const) and not cond.value:
            stats.bump("const_folds")
            return []
        return [Loop(cond, _fold_ops(op.body, stats))]
    if isinstance(op, Eval):
        value = _fold_value(op.value, stats)
        if isinstance(value, Const):
            stats.bump("const_folds")
            return []  # a constant expression statement cannot trap
        return [Eval(value)]
    raise BehaviorError("cannot fold micro-op %r" % (op,), None)


def _fold_ops(ops, stats):
    out = []
    for op in ops:
        out.extend(_fold_op(op, stats))
    return tuple(out)


def fold_constants(func, model, stats):
    """Evaluate decode-time-constant subtrees at compile time."""
    func.ops = _fold_ops(func.ops, stats)
    return func


def coalesce_canonicalisation(func, model, stats):
    """Drop write canonicalisation the value provably does not need.

    A constant store is canonicalised here, at compile time, and becomes
    a raw store (``width=None``) of the wrapped constant.  Every other
    store whose value the abstract interpreter
    (:func:`repro.analysis.absint.drop_canonical_wraps`) proves already
    canonical for its declared width becomes a raw store too, so every
    backend renders the same raw stores.
    """
    from repro.analysis import absint  # lazy: absint imports ir

    def fold(op):
        if isinstance(op, (WriteReg, WriteElem)) and op.width is not None \
                and isinstance(op.value, Const):
            return replace(
                op, value=Const(canonicalize(op.value.value, op.width,
                                             op.signed)),
                width=None, signed=False,
            )
        if isinstance(op, Guard):
            return Guard(op.cond,
                         tuple(fold(o) for o in op.then_ops),
                         tuple(fold(o) for o in op.else_ops))
        if isinstance(op, Loop):
            return Loop(op.cond, tuple(fold(o) for o in op.body))
        return op

    func.ops = absint.drop_canonical_wraps(
        tuple(fold(op) for op in func.ops), model
    )
    return func


def _trap_free(value):
    """Whether evaluating ``value`` can never raise (so it is safe to
    elide).  Element reads may be out of range, division may divide by
    zero and shifts may see negative counts; everything else is total."""
    if isinstance(value, (Const, ReadReg, ReadLocal)):
        return True
    if isinstance(value, Unary):
        return _trap_free(value.operand)
    if isinstance(value, Alu):
        if value.op in ("/", "%"):
            if not (isinstance(value.right, Const) and value.right.value):
                return False
            return _trap_free(value.left)
        if value.op in ("<<", ">>"):
            if not (isinstance(value.right, Const)
                    and value.right.value >= 0):
                return False
            return _trap_free(value.left)
        return _trap_free(value.left) and _trap_free(value.right)
    if isinstance(value, Intrinsic):
        if value.name in ("sext", "zext", "sat"):
            if len(value.args) != 2:
                return False
            width = value.args[1]
            if not (isinstance(width, Const) and width.value >= 1):
                return False
            return _trap_free(value.args[0])
        if value.name in ("abs", "min", "max"):
            return all(_trap_free(a) for a in value.args)
        return False
    if isinstance(value, Select):
        return (_trap_free(value.cond) and _trap_free(value.if_true)
                and _trap_free(value.if_false))
    return False  # ReadElem and anything unknown


def _op_reads(op):
    """(cells, locals) one micro-op may read, recursing into nested
    guard/loop bodies conservatively (their writes also count as reads
    because execution is conditional)."""
    cells = set()
    local_names = set()
    for nested in walk_ops([op]):
        for value in op_values(nested):
            cells |= read_cells(value)
            local_names |= value_locals(value)
        if nested is not op and not isinstance(nested, Eval):
            # A conditional write inside this op may or may not happen:
            # treat its target as live-making (read-like) too.
            cell = write_cell(nested)
            if cell is not None:
                cells.add(cell)
            if isinstance(nested, WriteLocal):
                local_names.add(nested.name)
    return cells, local_names


def dead_writes(ops):
    """Yield ``(index, trap_free)`` for every dead write in ``ops``.

    Within one linear micro-op sequence (a per-stage function, or a
    statically scheduled column where several instructions' ops run
    back to back), a resource write that is overwritten by a later
    unconditional write to the same exact cell -- with no potentially
    reading op in between -- is dead.  A behaviour-local write never
    read before the end of the sequence (locals do not survive the
    function) or before an unconditional overwrite is likewise dead.
    ``trap_free`` tells whether evaluating the write can never raise:
    only those may be elided without changing fault behaviour.
    """
    for i, op in enumerate(ops):
        cell = None
        local_name = None
        if isinstance(op, (WriteReg, WriteElem)):
            cell = write_cell(op)
            if cell[1] == "*":
                continue  # computed index: never provably dead
            trap_free = _trap_free(op.value) and (
                not isinstance(op, WriteElem) or _trap_free(op.index)
            )
        elif isinstance(op, WriteLocal):
            local_name = op.name
            trap_free = _trap_free(op.value)
        else:
            continue
        dead = None
        for later in ops[i + 1:]:
            later_cells, later_locals = _op_reads(later)
            if cell is not None and any(
                cells_collide(cell, read) for read in later_cells
            ):
                dead = False
                break
            if local_name is not None and local_name in later_locals:
                dead = False
                break
            if isinstance(later, Control):
                # Control requests do not read architectural state, but
                # a halt/flush ends or reshapes execution: keep prior
                # resource writes observable.  Locals stay private.
                if cell is not None:
                    dead = False
                    break
                continue
            if cell is not None and isinstance(later, (WriteReg, WriteElem)):
                if write_cell(later) == cell:
                    dead = True
                    break
            if local_name is not None and isinstance(later, WriteLocal):
                if later.name == local_name:
                    dead = True
                    break
        if dead is None:
            # Reached the end of the sequence: architectural writes
            # escape; locals die with the function.
            dead = local_name is not None
        if dead:
            yield i, trap_free


def eliminate_dead_writes(func, model, stats):
    """Remove the trap-free :func:`dead_writes` of ``func``.

    Dead writes whose evaluation may fault stay, preserving fault
    parity with the unoptimised form; ``repro-lint`` reports them
    (``ir.dead-write``).
    """
    removed = {i for i, trap_free in dead_writes(func.ops) if trap_free}
    if removed:
        stats.bump("dead_writes_removed", len(removed))
        func.ops = tuple(
            op for i, op in enumerate(func.ops) if i not in removed
        )
    return func


#: Mangled runtime-helper spelling for each pure intrinsic, plus the
#: C-division helpers used by ``/`` and ``%``.
_HELPER_FOR_ALU = {"/": "__idiv", "%": "__imod"}


def hoist_helpers(func, model, stats):
    """Record which runtime helpers the body calls.

    Backends bind the helpers as trailing default parameters, turning
    per-call global-dict lookups into local loads in the hot path.
    """
    helpers = set()
    for op in walk_ops(func.ops):
        for top in op_values(op):
            for value in walk_values(top):
                if isinstance(value, Intrinsic):
                    helpers.add(CODEGEN_INTRINSIC_NAMES[value.name])
                elif isinstance(value, Alu) and value.op in _HELPER_FOR_ALU:
                    helpers.add(_HELPER_FOR_ALU[value.op])
    func.helpers = tuple(sorted(helpers))
    if helpers:
        stats.bump("helpers_hoisted", len(helpers))
    return func


DEFAULT_PASSES = (
    fold_constants,
    coalesce_canonicalisation,
    eliminate_dead_writes,
    hoist_helpers,
)


def run_passes(func, model, passes=DEFAULT_PASSES, stats=None):
    """Run the pass pipeline over one :class:`IRFunction` in place.

    When IR verification is enabled (tests, ``--verify-ir``, or
    ``REPRO_VERIFY_IR=1``), the function is verified before the first
    pass and after every pass, so a pass bug fails loudly with the name
    of the pass that introduced it instead of miscompiling.
    """
    if stats is None:
        stats = PassStats()
    from repro.simcc import verify as _verify  # lazy: verify imports ir

    checking = _verify.enabled()
    if checking:
        _verify.verify_function(func, model, context="pre-pass")
    for pipeline_pass in passes:
        func = pipeline_pass(func, model, stats)
        if checking:
            _verify.verify_function(
                func, model, context="after %s" % pipeline_pass.__name__
            )
    return func


def optimize_column(name, ops, model, stats=None):
    """Optimise a fused static column (ops of several instructions run
    back to back) and return it as a ready-to-render function.

    Per-function passes already ran when the cells were lowered; the
    column composition opens exactly one new opportunity -- writes made
    dead by a *younger instruction in the same cycle* -- so dead-write
    elimination runs again over the concatenated sequence.
    """
    func = IRFunction(name=name, ops=tuple(ops))
    return run_passes(
        func, model,
        passes=(eliminate_dead_writes, hoist_helpers),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Rendering (shared by both backends)
# ---------------------------------------------------------------------------


def render_value(value):
    """Python source for one value node (the single spelling both
    backends share)."""
    if isinstance(value, Const):
        return repr(value.value)
    if isinstance(value, ReadReg):
        return "s.%s" % value.name
    if isinstance(value, ReadElem):
        return "s.%s[%s]" % (value.resource, render_value(value.index))
    if isinstance(value, ReadLocal):
        return LOCAL_PREFIX + value.name
    if isinstance(value, Unary):
        inner = render_value(value.operand)
        if value.op == "-":
            return "(-%s)" % inner
        if value.op == "~":
            return "(~%s)" % inner
        return "(0 if %s else 1)" % inner
    if isinstance(value, Alu):
        left = render_value(value.left)
        right = render_value(value.right)
        op = value.op
        if op in _PLAIN_OPS:
            return "(%s %s %s)" % (left, op, right)
        if op in _CMP_OPS:
            return "(1 if %s %s %s else 0)" % (left, op, right)
        if op == "/":
            return "__idiv(%s, %s)" % (left, right)
        if op == "%":
            return "__imod(%s, %s)" % (left, right)
        if op == "&&":
            return "(1 if (%s and %s) else 0)" % (left, right)
        return "(1 if (%s or %s) else 0)" % (left, right)
    if isinstance(value, Intrinsic):
        return "%s(%s)" % (
            CODEGEN_INTRINSIC_NAMES[value.name],
            ", ".join(render_value(a) for a in value.args),
        )
    if isinstance(value, Select):
        return "((%s) if (%s) else (%s))" % (
            render_value(value.if_true),
            render_value(value.cond),
            render_value(value.if_false),
        )
    raise BehaviorError("cannot render value %r" % (value,), None)


def _render_write(target_source, op):
    value_source = render_value(op.value)
    if op.width is not None:
        value_source = canonical_source(value_source, op.width, op.signed)
    return "%s = %s" % (target_source, value_source)


def render_ops(ops, indent=1):
    """Python source lines for a micro-op sequence."""
    pad = "    " * indent
    lines = []
    for op in ops:
        if isinstance(op, WriteReg):
            lines.append(pad + _render_write("s.%s" % op.name, op))
        elif isinstance(op, WriteElem):
            target = "s.%s[%s]" % (op.resource, render_value(op.index))
            lines.append(pad + _render_write(target, op))
        elif isinstance(op, WriteLocal):
            lines.append(pad + "%s%s = %s" % (
                LOCAL_PREFIX, op.name, render_value(op.value)
            ))
        elif isinstance(op, Control):
            lines.append(pad + "c.%s(%s)" % (
                op.method, ", ".join(render_value(a) for a in op.args)
            ))
        elif isinstance(op, Guard):
            lines.append(pad + "if %s:" % render_value(op.cond))
            lines.extend(render_ops(op.then_ops, indent + 1)
                         or [pad + "    pass"])
            if op.else_ops:
                lines.append(pad + "else:")
                lines.extend(render_ops(op.else_ops, indent + 1))
        elif isinstance(op, Loop):
            lines.append(pad + "while %s:" % render_value(op.cond))
            lines.extend(render_ops(op.body, indent + 1)
                         or [pad + "    pass"])
        elif isinstance(op, Eval):
            lines.append(pad + render_value(op.value))
        else:
            raise BehaviorError("cannot render micro-op %r" % (op,), None)
    return lines


def render_function_source(func):
    """A complete ``def`` for one IR function, over ``(s, c)``.

    The hoisted runtime helpers bind as trailing defaults.
    """
    params = "s, c"
    for helper in func.helpers:
        params += ", %s=%s" % (helper, helper)
    lines = ["def %s(%s):" % (func.name, params)]
    body = render_ops(func.ops, 1)
    lines.extend(body or ["    pass"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def compile_function(func, state, control):
    """Compile ``func`` into a no-argument callable bound to ``state``
    and ``control``: its ``(s, c)`` source is exec'd over
    :data:`repro.behavior.runtime.CODEGEN_GLOBALS` and bound with
    :func:`repro.behavior.runtime.bind_function`, as table ops are."""
    namespace = dict(CODEGEN_GLOBALS)
    exec(compile(render_function_source(func), "<simir:%s>" % func.name,
                 "exec"), namespace)
    return bind_function(namespace[func.name], state, control)


# ---------------------------------------------------------------------------
# Serialisation (marshal-compatible tagged tuples)
# ---------------------------------------------------------------------------


def value_to_payload(value):
    if isinstance(value, Const):
        return ("c", value.value)
    if isinstance(value, ReadReg):
        return ("rr", value.name)
    if isinstance(value, ReadElem):
        return ("re", value.resource, value_to_payload(value.index))
    if isinstance(value, ReadLocal):
        return ("rl", value.name)
    if isinstance(value, Unary):
        return ("un", value.op, value_to_payload(value.operand))
    if isinstance(value, Alu):
        return ("alu", value.op, value_to_payload(value.left),
                value_to_payload(value.right))
    if isinstance(value, Intrinsic):
        return ("in", value.name,
                tuple(value_to_payload(a) for a in value.args))
    if isinstance(value, Select):
        return ("sel", value_to_payload(value.cond),
                value_to_payload(value.if_true),
                value_to_payload(value.if_false))
    raise BehaviorError("cannot serialise value %r" % (value,), None)


def value_from_payload(payload):
    tag = payload[0]
    if tag == "c":
        return Const(payload[1])
    if tag == "rr":
        return ReadReg(payload[1])
    if tag == "re":
        return ReadElem(payload[1], value_from_payload(payload[2]))
    if tag == "rl":
        return ReadLocal(payload[1])
    if tag == "un":
        return Unary(payload[1], value_from_payload(payload[2]))
    if tag == "alu":
        return Alu(payload[1], value_from_payload(payload[2]),
                   value_from_payload(payload[3]))
    if tag == "in":
        return Intrinsic(payload[1],
                         tuple(value_from_payload(a) for a in payload[2]))
    if tag == "sel":
        return Select(value_from_payload(payload[1]),
                      value_from_payload(payload[2]),
                      value_from_payload(payload[3]))
    raise BehaviorError("unknown value payload tag %r" % (tag,), None)


def op_to_payload(op):
    if isinstance(op, WriteReg):
        return ("wr", op.name, value_to_payload(op.value), op.width,
                op.signed, op.augmented)
    if isinstance(op, WriteElem):
        return ("we", op.resource, value_to_payload(op.index),
                value_to_payload(op.value), op.width, op.signed,
                op.augmented)
    if isinstance(op, WriteLocal):
        return ("wl", op.name, value_to_payload(op.value))
    if isinstance(op, Control):
        return ("ctl", op.method, tuple(value_to_payload(a)
                                        for a in op.args))
    if isinstance(op, Guard):
        return ("g", value_to_payload(op.cond),
                tuple(op_to_payload(o) for o in op.then_ops),
                tuple(op_to_payload(o) for o in op.else_ops))
    if isinstance(op, Loop):
        return ("lp", value_to_payload(op.cond),
                tuple(op_to_payload(o) for o in op.body))
    if isinstance(op, Eval):
        return ("ev", value_to_payload(op.value))
    raise BehaviorError("cannot serialise micro-op %r" % (op,), None)


def op_from_payload(payload):
    tag = payload[0]
    if tag == "wr":
        return WriteReg(payload[1], value_from_payload(payload[2]),
                        payload[3], payload[4], payload[5])
    if tag == "we":
        return WriteElem(payload[1], value_from_payload(payload[2]),
                         value_from_payload(payload[3]), payload[4],
                         payload[5], payload[6])
    if tag == "wl":
        return WriteLocal(payload[1], value_from_payload(payload[2]))
    if tag == "ctl":
        return Control(payload[1],
                       tuple(value_from_payload(a) for a in payload[2]))
    if tag == "g":
        return Guard(value_from_payload(payload[1]),
                     tuple(op_from_payload(o) for o in payload[2]),
                     tuple(op_from_payload(o) for o in payload[3]))
    if tag == "lp":
        return Loop(value_from_payload(payload[1]),
                    tuple(op_from_payload(o) for o in payload[2]))
    if tag == "ev":
        return Eval(value_from_payload(payload[1]))
    raise BehaviorError("unknown micro-op payload tag %r" % (tag,), None)


def function_to_payload(func):
    """A marshal-compatible payload for one :class:`IRFunction`."""
    return (
        func.name,
        tuple(func.helpers),
        tuple(op_to_payload(op) for op in func.ops),
    )


def function_from_payload(payload):
    name, helpers, ops = payload
    return IRFunction(
        name=name,
        ops=tuple(op_from_payload(op) for op in ops),
        helpers=tuple(helpers),
    )


# ---------------------------------------------------------------------------
# Human-readable dump (repro-sim --dump-ir)
# ---------------------------------------------------------------------------


def _dtype_tag(op):
    if op.width is None:
        return "raw"
    return "%s%d" % ("i" if op.signed else "u", op.width)


def format_ops(ops, indent=1):
    """Readable one-micro-op-per-line rendering of an op sequence."""
    pad = "  " * indent
    lines = []
    for op in ops:
        if isinstance(op, WriteReg):
            lines.append("%swreg   %s <%s> = %s" % (
                pad, op.name, _dtype_tag(op), render_value(op.value)
            ))
        elif isinstance(op, WriteElem):
            lines.append("%swelem  %s[%s] <%s> = %s" % (
                pad, op.resource, render_value(op.index), _dtype_tag(op),
                render_value(op.value)
            ))
        elif isinstance(op, WriteLocal):
            lines.append("%swlocal %s = %s" % (
                pad, op.name, render_value(op.value)
            ))
        elif isinstance(op, Control):
            lines.append("%sctl    %s(%s)" % (
                pad, op.method,
                ", ".join(render_value(a) for a in op.args)
            ))
        elif isinstance(op, Guard):
            lines.append("%sguard  %s:" % (pad, render_value(op.cond)))
            lines.extend(format_ops(op.then_ops, indent + 1))
            if op.else_ops:
                lines.append("%selse:" % pad)
                lines.extend(format_ops(op.else_ops, indent + 1))
        elif isinstance(op, Loop):
            lines.append("%sloop   %s:" % (pad, render_value(op.cond)))
            lines.extend(format_ops(op.body, indent + 1))
        elif isinstance(op, Eval):
            lines.append("%seval   %s" % (pad, render_value(op.value)))
        else:
            lines.append("%s?      %r" % (pad, op))
    return lines


def format_function(func, indent=1):
    """Readable rendering of one IR function (header + ops)."""
    header = "func %s" % func.name
    if func.helpers:
        header += "  [helpers: %s]" % ", ".join(func.helpers)
    lines = ["  " * (indent - 1) + header]
    ops = format_ops(func.ops, indent)
    lines.extend(ops or ["  " * indent + "(no ops)"])
    return lines


def dump_program_ir(model, program, stream=None):
    """The lowered, post-pass IR of every execute packet of ``program``.

    This is the ``repro-sim --dump-ir`` payload: for each packet, the
    per-member, per-stage IR functions exactly as the backends will
    consume them -- the ground truth for debugging retargeting issues
    where two backends (or a model edit) are suspected of diverging.
    A packet with an undecodable member prints the decoder's message.
    """
    from repro.simcc.portable import build_portable_table

    portable = build_portable_table(model, program, level="instantiated")
    lines = [
        "# SimIR dump: model %s, program %s" % (model.name, program.name),
        "# %d instruction(s), stages %s" % (
            portable.instruction_count,
            "/".join(model.pipeline.stages),
        ),
    ]
    emitted = set()
    for pc in sorted(set(portable.table_spec) | set(portable.traps)):
        if pc in emitted:
            continue
        lines.append("")
        message = portable.traps.get(pc)
        if message is not None:
            lines.append("packet 0x%x: trap (%s)" % (pc, message))
            continue
        per_stage, words, _ = portable.table_spec[pc]
        emitted.update(range(pc, pc + words))
        lines.append("packet 0x%x (%d word%s):" % (
            pc, words, "s" if words != 1 else ""
        ))
        occupied = False
        for stage_index, stage_names in enumerate(per_stage):
            for name in stage_names:
                occupied = True
                stage = model.pipeline.stages[stage_index]
                lines.append("  stage %s:" % stage)
                lines.extend(format_function(portable.function(name),
                                             indent=2))
        if not occupied:
            lines.append("  (no micro-operations)")
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    return text


__all__ = [
    "Const", "ReadReg", "ReadElem", "ReadLocal", "Unary", "Alu",
    "Intrinsic", "Select", "Value",
    "MicroOp", "WriteReg", "WriteElem", "WriteLocal", "Control", "Guard",
    "Loop", "Eval", "IRFunction",
    "Lowerer", "LoweringLimit", "LOCAL_PREFIX", "MAX_LOWER_DEPTH",
    "walk_values", "walk_ops", "op_values",
    "read_cells", "write_cell", "value_locals",
    "PassStats", "fold_constants", "coalesce_canonicalisation",
    "dead_writes", "eliminate_dead_writes", "hoist_helpers", "DEFAULT_PASSES",
    "run_passes", "optimize_column",
    "render_value", "render_ops", "render_function_source",
    "compile_function",
    "value_to_payload", "value_from_payload", "op_to_payload",
    "op_from_payload", "function_to_payload", "function_from_payload",
    "format_ops", "format_function", "dump_program_ir",
]
