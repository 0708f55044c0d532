"""Run-time support for behaviour execution.

Both behaviour back-ends (tree-walking evaluator and Python code
generator) share these primitives, so they agree bit-for-bit by
construction of the arithmetic; simulators differ only in *when* work
happens, which is the paper's entire point.

Intrinsics visible to behaviour code:

======== ===================================================== =========
name     meaning                                               kind
======== ===================================================== =========
sext     ``sext(v, w)`` sign-extend low ``w`` bits of ``v``    pure
zext     ``zext(v, w)`` zero-extend (mask to ``w`` bits)       pure
sat      ``sat(v, w)``  clamp to signed ``w``-bit range        pure
abs      absolute value                                        pure
min/max  two-argument minimum / maximum                        pure
flush    squash younger in-flight instructions                 control
stall    ``stall(n)`` freeze fetch for ``n`` cycles            control
halt     request end of simulation (pipeline drains)           control
======== ===================================================== =========
"""

from __future__ import annotations

from types import FunctionType

from repro.support.bitutils import mask as _mask
from repro.support.bitutils import saturate_signed, sign_extend


def idiv(a, b):
    """C-style integer division (truncation toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def imod(a, b):
    """C-style remainder: sign follows the dividend."""
    return a - idiv(a, b) * b


def _sext(value, width):
    return sign_extend(value, width)


def _zext(value, width):
    return value & _mask(width)


PURE_INTRINSICS = {
    "sext": _sext,
    "zext": _zext,
    "sat": saturate_signed,
    "abs": abs,
    "min": min,
    "max": max,
}

# Intrinsics that act on the pipeline control context.  Each maps to a
# method of the control object passed to behaviours.
CONTROL_INTRINSICS = {
    "flush": "request_flush",
    "stall": "request_stall",
    "halt": "request_halt",
}

INTRINSIC_NAMES = frozenset(PURE_INTRINSICS) | frozenset(CONTROL_INTRINSICS)

# Names injected into the globals of generated behaviour code.
CODEGEN_GLOBALS = {
    "__sext": _sext,
    "__zext": _zext,
    "__sat": saturate_signed,
    "__abs": abs,
    "__min": min,
    "__max": max,
    "__idiv": idiv,
    "__imod": imod,
}

# Spelling of each pure intrinsic inside generated code.
CODEGEN_INTRINSIC_NAMES = {
    "sext": "__sext",
    "zext": "__zext",
    "sat": "__sat",
    "abs": "__abs",
    "min": "__min",
    "max": "__max",
}


def bind_function(fn, state, control):
    """``fn(s, c, ...)`` bound to a state/control pair as a
    zero-argument function over the same code object.

    ``(state, control)`` are prepended to ``fn``'s defaults (the hoisted
    runtime helpers), so a call passes no argument and goes through no
    ``functools.partial``.
    """
    return FunctionType(
        fn.__code__, fn.__globals__, fn.__name__,
        (state, control) + (fn.__defaults__ or ()), fn.__closure__,
    )
