"""Kernel-language front end.

The body syntax *is* the behaviour language (same lexer and parser);
the only additions are ``array name[size] @ base;`` declarations, which
are extracted textually before the body is parsed, and the use of
``int name;`` declarations as register-allocated kernel variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.behavior import ast as bast
from repro.behavior.parser import parse_statements
from repro.lisa.lexer import tokenize
from repro.support.errors import ReproError


class KernelError(ReproError):
    """A kernel program is invalid or unsupported by a target."""


_ARRAY_DECL = re.compile(
    r"^\s*array\s+(\w+)\s*\[\s*(\d+)\s*\]\s*@\s*(\d+)\s*;\s*$"
)


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    size: int
    base: int


@dataclass
class KernelProgram:
    """A parsed kernel: arrays, ordered variables, statement body."""

    arrays: Dict[str, ArrayDecl]
    variables: List[str]
    body: Tuple[bast.Node, ...]
    source: str = ""

    def array(self, name):
        try:
            return self.arrays[name]
        except KeyError:
            raise KernelError("unknown array %r" % name) from None


def parse_kernel(source):
    """Parse kernel source into a :class:`KernelProgram`."""
    body_lines = []
    arrays = {}
    for line in source.splitlines():
        match = _ARRAY_DECL.match(line)
        if match:
            name, size, base = match.groups()
            if name in arrays:
                raise KernelError("duplicate array %r" % name)
            arrays[name] = ArrayDecl(name, int(size), int(base))
        else:
            body_lines.append(line)
    tokens = [t for t in tokenize("\n".join(body_lines), "<kernel>")
              if t.kind != "eof"]
    body = parse_statements(tokens)
    program = KernelProgram(arrays=arrays, variables=[], body=body,
                            source=source)
    _collect_variables(program)
    _check(program)
    return program


def _collect_variables(program):
    seen = set()

    def visit(statements):
        for stmt in statements:
            if isinstance(stmt, bast.LocalDecl):
                if stmt.name in seen:
                    raise KernelError(
                        "variable %r declared twice" % stmt.name
                    )
                if stmt.name in program.arrays:
                    raise KernelError(
                        "%r is both an array and a variable" % stmt.name
                    )
                seen.add(stmt.name)
                program.variables.append(stmt.name)
            elif isinstance(stmt, bast.If):
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, bast.While):
                visit(stmt.body)
            elif isinstance(stmt, bast.Block):
                visit(stmt.body)

    visit(program.body)


def _check(program):
    """Front-end checks: every name is a variable or array; arrays are
    only used indexed; no calls."""
    declared = set(program.variables)

    def check_expr(expr, local_ok=declared):
        for node in bast.walk(expr):
            if isinstance(node, bast.Call):
                raise KernelError(
                    "function calls are not part of the kernel language "
                    "(%r)" % node.name
                )
            if isinstance(node, bast.Name):
                if node.name in program.arrays:
                    raise KernelError(
                        "array %r used without an index" % node.name
                    )
                if node.name not in declared:
                    raise KernelError("undeclared variable %r" % node.name)
            if isinstance(node, bast.Index):
                if node.base not in program.arrays:
                    raise KernelError(
                        "%r is not a declared array" % node.base
                    )

    def visit(statements):
        for stmt in statements:
            if isinstance(stmt, bast.LocalDecl):
                if stmt.init is not None:
                    check_expr(stmt.init)
            elif isinstance(stmt, bast.Assign):
                check_expr(stmt.value)
                if isinstance(stmt.target, bast.Index):
                    check_expr(stmt.target.index)
                    if stmt.target.base not in program.arrays:
                        raise KernelError(
                            "%r is not a declared array" % stmt.target.base
                        )
                elif isinstance(stmt.target, bast.Name):
                    if stmt.target.name not in declared:
                        raise KernelError(
                            "undeclared variable %r" % stmt.target.name
                        )
            elif isinstance(stmt, bast.ExprStmt):
                raise KernelError(
                    "expression statements have no effect in kernels"
                )
            elif isinstance(stmt, bast.If):
                check_expr(stmt.condition)
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, bast.While):
                check_expr(stmt.condition)
                visit(stmt.body)
            elif isinstance(stmt, bast.Block):
                visit(stmt.body)
            else:
                raise KernelError(
                    "unsupported statement %r" % type(stmt).__name__
                )

    visit(program.body)
