"""AST for the behaviour language.

The tree is deliberately small: integer expressions, assignments,
conditionals and while loops.  Identifiers are unresolved at this level;
binding to operands, resources and intrinsics happens in the back-ends,
because the same behaviour is executed generically by the interpretive
simulator and specialised per program instruction by the simulation
compiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.support.diagnostics import SourceLocation, UNKNOWN_LOCATION


@dataclass(frozen=True)
class Node:
    pass


# -- expressions -------------------------------------------------------------


@dataclass(frozen=True)
class IntLit(Node):
    value: int
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class Name(Node):
    """An unresolved identifier (operand, resource, local or constant)."""

    name: str
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class Index(Node):
    """``base[index]`` -- register-file or memory element access."""

    base: str
    index: Node
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class Unary(Node):
    op: str  # one of: - ~ !
    operand: Node
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class Binary(Node):
    op: str
    left: Node
    right: Node
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class Ternary(Node):
    condition: Node
    if_true: Node
    if_false: Node
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class Call(Node):
    """``name(args...)`` -- intrinsic call or group-behaviour invocation."""

    name: str
    args: tuple
    location: SourceLocation = UNKNOWN_LOCATION


# -- statements --------------------------------------------------------------


@dataclass(frozen=True)
class Assign(Node):
    """``target op= value`` where target is a Name or Index."""

    target: Node
    op: str  # "=", "+=", "-=", ...
    value: Node
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class ExprStmt(Node):
    expression: Node
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class LocalDecl(Node):
    """``int name = init;`` -- declares a behaviour-local variable."""

    type_name: str
    name: str
    init: Optional[Node]
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class If(Node):
    condition: Node
    then_body: tuple
    else_body: tuple
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class While(Node):
    condition: Node
    body: tuple
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class Block(Node):
    body: tuple
    location: SourceLocation = UNKNOWN_LOCATION


def walk(node):
    """Yield ``node`` and every descendant node, depth-first."""
    yield node
    for field_name in getattr(node, "__dataclass_fields__", {}):
        value = getattr(node, field_name)
        if isinstance(value, Node):
            yield from walk(value)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Node):
                    yield from walk(item)


def referenced_names(nodes):
    """All identifiers referenced by the given statement/expression nodes."""
    names = set()
    for root in nodes:
        for node in walk(root):
            if isinstance(node, Name):
                names.add(node.name)
            elif isinstance(node, Index):
                names.add(node.base)
            elif isinstance(node, Call):
                names.add(node.name)
    return names
