"""The C-like behaviour language embedded in BEHAVIOR/EXPRESSION sections.

Two independent back-ends execute behaviours:

* :mod:`repro.behavior.evaluator` -- a tree-walking interpreter used by
  the interpretive simulator (everything resolved at run-time),
* the SimIR lowering of :mod:`repro.simcc.ir` -- the code generator
  used by the simulation compiler (operands constant-folded, variants
  resolved at simulation-compile time).

Having two implementations that must agree bit-for-bit is both the
paper's accuracy claim ("without any loss in accuracy") and a strong
internal consistency check.
"""

from repro.behavior.ast import (
    Assign,
    Binary,
    Block,
    Call,
    ExprStmt,
    If,
    Index,
    IntLit,
    LocalDecl,
    Name,
    Ternary,
    Unary,
    While,
)
from repro.behavior.parser import parse_expression, parse_statements

__all__ = [
    "Assign",
    "Binary",
    "Block",
    "Call",
    "ExprStmt",
    "If",
    "Index",
    "IntLit",
    "LocalDecl",
    "Name",
    "Ternary",
    "Unary",
    "While",
    "parse_expression",
    "parse_statements",
]
