"""SimIR well-formedness verifier.

Every backend -- the Python exec backend, the module backend, and the
native C generator -- trusts the IR it receives: a write carrying the
wrong canonicalisation width silently corrupts register values, a local
read before its definition raises a confusing ``NameError`` deep inside
generated code, and a loop whose condition nothing in the body can
change spins forever.  The optimisation passes in :mod:`repro.simcc.ir`
rewrite that IR aggressively, so a pass bug miscompiles rather than
failing.

This module makes such bugs fail loudly at the point of introduction.
:func:`verify_function` structurally checks one :class:`~repro.simcc.ir.
IRFunction` against the machine model:

* node sanity -- known node/op kinds, intrinsic names and arities,
  control methods and arities;
* resource consistency -- scalar reads/writes name scalar registers,
  element accesses name register files or memories;
* width consistency -- a write's ``(width, signed)`` is either ``None``
  (a pass proved the value canonical) or exactly the declared dtype of
  the target (the lowering invariant);
* definite assignment -- every local is written before it is read on
  every path (guard branches are checked independently and joined by
  intersection; loop bodies are checked from the pre-loop state);
* loop sanity -- a constant-true condition, or a trap-free body that
  cannot change anything the condition reads, is a proven hang.

``run_passes`` calls the verifier before the first pass and after every
pass when verification is enabled; the test suite enables it globally
and ``repro-sim --verify-ir`` (or ``REPRO_VERIFY_IR=1``) enables it for
a normal run.  A violation raises :class:`IRVerificationError` naming
the function and the pass that introduced it.
"""

from __future__ import annotations

import os
from typing import Optional, Set, Tuple

from repro.analysis.effects import cells_collide
from repro.simcc import ir
from repro.support.errors import BehaviorError


class IRVerificationError(BehaviorError):
    """Raised when a SimIR function violates a well-formedness rule."""


_UNARY_OPS = frozenset(["-", "~", "!"])

#: Required argument counts for pure intrinsics.
_INTRINSIC_ARITY = {
    "sext": 2,
    "zext": 2,
    "sat": 2,
    "abs": 1,
    "min": 2,
    "max": 2,
}

#: Required argument counts for pipeline-control methods.
_CONTROL_ARITY = {
    "request_flush": 0,
    "request_stall": 1,
    "request_halt": 0,
}


# ---------------------------------------------------------------------------
# Enable state
# ---------------------------------------------------------------------------

_default_enabled: Optional[bool] = None


def enabled() -> bool:
    """Whether the pass pipeline should verify automatically."""
    if _default_enabled is not None:
        return _default_enabled
    return os.environ.get("REPRO_VERIFY_IR", "") not in ("", "0")


def set_verify_default(flag: Optional[bool]) -> Optional[bool]:
    """Set (or with ``None`` reset) the process-wide verify default;
    returns the previous override so callers can restore it."""
    global _default_enabled
    previous = _default_enabled
    _default_enabled = flag
    return previous


# ---------------------------------------------------------------------------
# The verifier
# ---------------------------------------------------------------------------


class _Verifier:
    def __init__(self, func: ir.IRFunction, model, context: str = ""):
        self.func = func
        self.model = model
        self.context = context

    def fail(self, message: str) -> None:
        where = self.func.name
        if self.context:
            where = "%s [%s]" % (where, self.context)
        raise IRVerificationError("IR verification failed in %s: %s"
                                  % (where, message))

    # -- resource rules ---------------------------------------------------

    def _scalar_dtype(self, name: str, what: str):
        reg = self.model.registers.get(name)
        if reg is None:
            self.fail("%s names unknown register %r" % (what, name))
        if reg.is_file:
            self.fail("%s names register file %r (element access "
                      "required)" % (what, name))
        return reg.dtype

    def _element_dtype(self, name: str, what: str):
        reg = self.model.registers.get(name)
        if reg is not None:
            if not reg.is_file:
                self.fail("%s names scalar register %r (element access "
                          "is invalid)" % (what, name))
            return reg.dtype
        mem = self.model.memories.get(name)
        if mem is None:
            self.fail("%s names unknown resource %r" % (what, name))
        return mem.dtype

    def _check_width(self, op, dtype) -> None:
        if op.width is None:
            return
        if (op.width, op.signed) != (dtype.width, dtype.signed):
            self.fail(
                "%s canonicalises %r to width %d/%s but the declared "
                "dtype is width %d/%s"
                % (type(op).__name__, ir.write_cell(op)[0],
                   op.width, "signed" if op.signed else "unsigned",
                   dtype.width, "signed" if dtype.signed else "unsigned")
            )

    # -- value rules ------------------------------------------------------

    def check_value(self, value: ir.Value, defined: Set[str]) -> None:
        for node in ir.walk_values(value):
            if isinstance(node, ir.Const):
                if not isinstance(node.value, int) \
                        or isinstance(node.value, bool):
                    self.fail("Const carries non-integer %r"
                              % (node.value,))
            elif isinstance(node, ir.ReadReg):
                self._scalar_dtype(node.name, "ReadReg")
            elif isinstance(node, ir.ReadElem):
                self._element_dtype(node.resource, "ReadElem")
            elif isinstance(node, ir.ReadLocal):
                if node.name not in defined:
                    self.fail("local %r is read before assignment"
                              % node.name)
            elif isinstance(node, ir.Unary):
                if node.op not in _UNARY_OPS:
                    self.fail("unknown unary op %r" % node.op)
            elif isinstance(node, ir.Alu):
                if node.op not in ir._ALU_OPS:
                    self.fail("unknown ALU op %r" % node.op)
            elif isinstance(node, ir.Intrinsic):
                arity = _INTRINSIC_ARITY.get(node.name)
                if arity is None:
                    self.fail("unknown intrinsic %r" % node.name)
                if len(node.args) != arity:
                    self.fail(
                        "intrinsic %r takes %d argument(s), got %d"
                        % (node.name, arity, len(node.args))
                    )
                if node.name in ("sext", "zext", "sat"):
                    width = node.args[1]
                    if not isinstance(width, ir.Const) \
                            or not 1 <= width.value <= 64:
                        self.fail(
                            "intrinsic %r needs a constant width in "
                            "[1, 64]" % node.name
                        )
            elif isinstance(node, ir.Select):
                pass  # operands are covered by the walk
            else:
                self.fail("unknown value node %r" % type(node).__name__)

    # -- op rules ---------------------------------------------------------

    def check_ops(self, ops: Tuple[ir.MicroOp, ...],
                  defined: Set[str]) -> Set[str]:
        """Check a micro-op sequence; returns the set of locals
        definitely assigned after it (input ``defined`` is not
        mutated)."""
        defined = set(defined)
        for op in ops:
            if isinstance(op, ir.WriteReg):
                dtype = self._scalar_dtype(op.name, "WriteReg")
                self._check_width(op, dtype)
                self.check_value(op.value, defined)
            elif isinstance(op, ir.WriteElem):
                dtype = self._element_dtype(op.resource, "WriteElem")
                self._check_width(op, dtype)
                self.check_value(op.index, defined)
                self.check_value(op.value, defined)
            elif isinstance(op, ir.WriteLocal):
                self.check_value(op.value, defined)
                defined.add(op.name)
            elif isinstance(op, ir.Control):
                arity = _CONTROL_ARITY.get(op.method)
                if arity is None:
                    self.fail("unknown control method %r" % op.method)
                if len(op.args) != arity:
                    self.fail(
                        "control %r takes %d argument(s), got %d"
                        % (op.method, arity, len(op.args))
                    )
                for arg in op.args:
                    self.check_value(arg, defined)
            elif isinstance(op, ir.Guard):
                self.check_value(op.cond, defined)
                then_defined = self.check_ops(op.then_ops, defined)
                else_defined = self.check_ops(op.else_ops, defined)
                defined = then_defined & else_defined
            elif isinstance(op, ir.Loop):
                self.check_value(op.cond, defined)
                self.check_loop(op, defined)
                # The body may run zero times: definitions inside it
                # are not definite afterwards.
                self.check_ops(op.body, defined)
            elif isinstance(op, ir.Eval):
                self.check_value(op.value, defined)
            else:
                self.fail("unknown micro-op %r" % type(op).__name__)
        return defined

    def check_loop(self, op: ir.Loop, defined: Set[str]) -> None:
        if isinstance(op.cond, ir.Const):
            if op.cond.value:
                self.fail("loop condition is constant true (the loop "
                          "cannot terminate)")
            return
        # A loop whose body provably cannot change anything the
        # condition reads -- and cannot exit by trapping -- never
        # terminates once entered.
        cond_cells = ir.read_cells(op.cond)
        cond_locals = ir.value_locals(op.cond)
        values = [op.cond]
        for body_op in ir.walk_ops(op.body):
            cell = ir.write_cell(body_op)
            if cell is not None and any(
                cells_collide(cell, read) for read in cond_cells
            ):
                return
            if isinstance(body_op, ir.WriteLocal) \
                    and body_op.name in cond_locals:
                return
            values.extend(ir.op_values(body_op))
        if all(ir._trap_free(value) for value in values):
            self.fail("loop condition is invariant (nothing in the "
                      "body can change it, and no op can trap out)")


def verify_function(func: ir.IRFunction, model,
                    context: str = "") -> ir.IRFunction:
    """Check one IR function for well-formedness against ``model``.

    Raises :class:`IRVerificationError` on the first violation;
    ``context`` (e.g. the name of the pass that just ran) is included
    in the message.  Returns ``func`` so call sites can chain.
    """
    _Verifier(func, model, context).check_ops(func.ops, set())
    return func


__all__ = [
    "IRVerificationError",
    "enabled",
    "set_verify_default",
    "verify_function",
]
