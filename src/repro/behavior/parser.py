"""Parser for the behaviour language.

Operates on token lists produced by :mod:`repro.lisa.lexer` (BEHAVIOR and
EXPRESSION section bodies are captured as raw token slices by the LISA
parser).

Statement grammar::

    stmt  := type_kw ident [ = expr ] ;          (local declaration)
           | IF ( expr ) body [ ELSE body ]
           | WHILE ( expr ) body
           | { stmt* }
           | lvalue assign_op expr ;
           | expr ;
    body  := stmt | { stmt* }

Expression grammar is classic C precedence (without comma and without
pointer operators); ``?:`` is right-associative.
"""

from __future__ import annotations

from repro.behavior import ast
from repro.support.errors import BehaviorError

_TYPE_KEYWORDS = frozenset(
    ["int", "uint", "long", "ulong", "short", "ushort", "char", "uchar", "bit"]
)

_ASSIGN_OPS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="]
)

# Binary operator precedence, loosest first (C-like).
_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

_IF_KEYWORDS = ("IF", "if")
_ELSE_KEYWORDS = ("ELSE", "else")
_WHILE_KEYWORDS = ("WHILE", "while")


class _Cursor:
    def __init__(self, tokens):
        self._tokens = tokens
        self._index = 0

    def peek(self, ahead=0):
        index = self._index + ahead
        if index < len(self._tokens):
            return self._tokens[index]
        return None

    def next(self):
        token = self.peek()
        if token is None:
            raise BehaviorError("unexpected end of behaviour code")
        self._index += 1
        return token

    def at_end(self):
        return self._index >= len(self._tokens)

    def at_punct(self, text):
        token = self.peek()
        return token is not None and token.is_punct(text)

    def at_ident(self, *texts):
        token = self.peek()
        return token is not None and token.kind == "ident" and (
            not texts or token.text in texts
        )

    def accept_punct(self, text):
        if self.at_punct(text):
            return self.next()
        return None

    def expect_punct(self, text):
        token = self.peek()
        if token is None or not token.is_punct(text):
            raise BehaviorError(
                "expected %r, found %s" % (text, token),
                None if token is None else token.location,
            )
        return self.next()

    def expect_ident(self):
        token = self.peek()
        if token is None or token.kind != "ident":
            raise BehaviorError(
                "expected identifier, found %s" % (token,),
                None if token is None else token.location,
            )
        return self.next()


class BehaviorParser:
    """Parses behaviour statements/expressions from a token slice."""

    def __init__(self, tokens):
        self._cursor = _Cursor(tokens)

    def parse_statements(self):
        statements = []
        while not self._cursor.at_end():
            statements.append(self._parse_statement())
        return tuple(statements)

    def parse_expression_only(self):
        expr = self._parse_expression()
        if not self._cursor.at_end():
            token = self._cursor.peek()
            raise BehaviorError(
                "unexpected trailing token %s in expression" % (token,),
                token.location,
            )
        return expr

    # -- statements -----------------------------------------------------

    def _parse_statement(self):
        c = self._cursor
        token = c.peek()
        if token.is_punct("{"):
            return self._parse_block()
        if token.kind == "ident" and token.text in _TYPE_KEYWORDS:
            return self._parse_local_decl()
        if c.at_ident(*_IF_KEYWORDS):
            return self._parse_if()
        if c.at_ident(*_WHILE_KEYWORDS):
            return self._parse_while()
        return self._parse_assignment_or_expr()

    def _parse_block(self):
        c = self._cursor
        start = c.expect_punct("{")
        body = []
        while not c.at_punct("}"):
            if c.at_end():
                raise BehaviorError("unterminated block", start.location)
            body.append(self._parse_statement())
        c.expect_punct("}")
        return ast.Block(tuple(body), start.location)

    def _parse_local_decl(self):
        c = self._cursor
        type_token = c.next()
        name_token = c.expect_ident()
        init = None
        if c.accept_punct("="):
            init = self._parse_expression()
        c.expect_punct(";")
        return ast.LocalDecl(
            type_token.text, name_token.text, init, type_token.location
        )

    def _parse_if(self):
        c = self._cursor
        start = c.next()  # IF
        c.expect_punct("(")
        condition = self._parse_expression()
        c.expect_punct(")")
        then_body = self._parse_body()
        else_body = ()
        if c.at_ident(*_ELSE_KEYWORDS):
            c.next()
            if c.at_ident(*_IF_KEYWORDS):
                else_body = (self._parse_if(),)
            else:
                else_body = self._parse_body()
        return ast.If(condition, then_body, else_body, start.location)

    def _parse_while(self):
        c = self._cursor
        start = c.next()  # WHILE
        c.expect_punct("(")
        condition = self._parse_expression()
        c.expect_punct(")")
        body = self._parse_body()
        return ast.While(condition, body, start.location)

    def _parse_body(self):
        if self._cursor.at_punct("{"):
            block = self._parse_block()
            return block.body
        return (self._parse_statement(),)

    def _parse_assignment_or_expr(self):
        c = self._cursor
        start = c.peek()
        expr = self._parse_expression()
        token = c.peek()
        if token is not None and token.kind == "punct" and token.text in _ASSIGN_OPS:
            if not isinstance(expr, (ast.Name, ast.Index)):
                raise BehaviorError(
                    "assignment target must be a name or an indexed name",
                    token.location,
                )
            c.next()
            value = self._parse_expression()
            c.expect_punct(";")
            return ast.Assign(expr, token.text, value, start.location)
        c.expect_punct(";")
        return ast.ExprStmt(expr, start.location)

    # -- expressions ----------------------------------------------------

    def _parse_expression(self):
        return self._parse_ternary()

    def _parse_ternary(self):
        condition = self._parse_binary(0)
        if self._cursor.accept_punct("?"):
            if_true = self._parse_expression()
            self._cursor.expect_punct(":")
            if_false = self._parse_expression()
            return ast.Ternary(condition, if_true, if_false)
        return condition

    def _parse_binary(self, level):
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        operators = _BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while True:
            token = self._cursor.peek()
            if token is None or token.kind != "punct" or token.text not in operators:
                return left
            self._cursor.next()
            right = self._parse_binary(level + 1)
            left = ast.Binary(token.text, left, right, token.location)

    def _parse_unary(self):
        c = self._cursor
        token = c.peek()
        if token is not None and token.kind == "punct" and token.text in ("-", "~", "!"):
            c.next()
            operand = self._parse_unary()
            return ast.Unary(token.text, operand, token.location)
        if token is not None and token.is_punct("+"):
            c.next()
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self):
        c = self._cursor
        token = c.peek()
        if token is None:
            raise BehaviorError("unexpected end of expression")
        if token.kind == "int":
            c.next()
            return ast.IntLit(token.value, token.location)
        if token.is_punct("("):
            c.next()
            expr = self._parse_expression()
            c.expect_punct(")")
            return expr
        if token.kind == "ident":
            c.next()
            if c.at_punct("("):
                c.next()
                args = []
                if not c.at_punct(")"):
                    args.append(self._parse_expression())
                    while c.accept_punct(","):
                        args.append(self._parse_expression())
                c.expect_punct(")")
                return ast.Call(token.text, tuple(args), token.location)
            if c.at_punct("["):
                c.next()
                index = self._parse_expression()
                c.expect_punct("]")
                return ast.Index(token.text, index, token.location)
            return ast.Name(token.text, token.location)
        raise BehaviorError(
            "unexpected token %s in expression" % (token,), token.location
        )


def parse_statements(tokens):
    """Parse a BEHAVIOR body (token slice) into a tuple of statements."""
    return BehaviorParser(list(tokens)).parse_statements()


def parse_expression(tokens):
    """Parse an EXPRESSION body / condition (token slice) into one node."""
    return BehaviorParser(list(tokens)).parse_expression_only()
