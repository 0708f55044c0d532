"""Recursive-descent parser for the LISA dialect.

Grammar (informal)::

    model        := [ MODEL ident ; ] ( resource | config | operation )*
    resource     := RESOURCE { resource_item* }
    resource_item:= PROGRAM_COUNTER type ident ;
                  | REGISTER type ident [ '[' int ']' ] ;
                  | MEMORY type ident '[' int ']' ;
                  | PIPELINE ident = { ident ( ; ident )* [;] } ;
    config       := CONFIG { ( ident ( arg {, arg} ) ; )* }
    operation    := OPERATION ident [ IN ident . ident ] { op_item* }
    op_item      := section | if_sections | switch_sections
    section      := DECLARE { declare_item* }
                  | CODING { coding_elem+ }
                  | SYNTAX { syntax_elem+ }
                  | BEHAVIOR { <balanced tokens> }
                  | EXPRESSION { <balanced tokens> }
                  | ACTIVATION { ident ( , ident )* }
    if_sections  := IF ( <tokens> ) { op_item* } [ ELSE { op_item* } ]
    switch       := SWITCH ( <tokens> ) { ( CASE <tokens> : { op_item* }
                                          | DEFAULT : { op_item* } )+ }
    declare_item := GROUP ident = { ident ( '||' ident )* } ;
                  | INSTANCE ident = { ident } ;
                  | LABEL ident ( , ident )* ;
                  | REFERENCE ident ( , ident )* ;
    coding_elem  := <binary literal>            (0b with optional x digits)
                  | ident [ '[' int ']' ]
    syntax_elem  := string | ident
"""

from __future__ import annotations

from repro.lisa import ast
from repro.lisa.lexer import tokenize
from repro.support.bitutils import BitPattern
from repro.support.errors import LisaSyntaxError

_SECTION_KEYWORDS = frozenset(
    ["DECLARE", "CODING", "SYNTAX", "BEHAVIOR", "EXPRESSION", "ACTIVATION"]
)


class _TokenStream:
    """Cursor over the token list with convenience accessors."""

    def __init__(self, tokens):
        self._tokens = tokens
        self._index = 0

    def peek(self, ahead=0):
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def next(self):
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def at_punct(self, text):
        return self.peek().is_punct(text)

    def at_ident(self, text=None):
        return self.peek().is_ident(text)

    def accept_punct(self, text):
        if self.at_punct(text):
            return self.next()
        return None

    def accept_ident(self, text):
        if self.at_ident(text):
            return self.next()
        return None

    def expect_punct(self, text):
        token = self.peek()
        if not token.is_punct(text):
            raise LisaSyntaxError(
                "expected %r, found %s" % (text, token), token.location
            )
        return self.next()

    def expect_ident(self, text=None):
        token = self.peek()
        if token.kind != "ident" or (text is not None and token.text != text):
            expected = "identifier" if text is None else repr(text)
            raise LisaSyntaxError(
                "expected %s, found %s" % (expected, token), token.location
            )
        return self.next()

    def expect_int(self):
        token = self.peek()
        if token.kind != "int":
            raise LisaSyntaxError(
                "expected integer, found %s" % (token,), token.location
            )
        return self.next()

    def at_eof(self):
        return self.peek().kind == "eof"

    def capture_balanced_braces(self):
        """Consume ``{ ... }`` and return the inner tokens (braces dropped)."""
        self.expect_punct("{")
        depth = 1
        captured = []
        while True:
            token = self.peek()
            if token.kind == "eof":
                raise LisaSyntaxError("unterminated '{' block", token.location)
            if token.is_punct("{"):
                depth += 1
            elif token.is_punct("}"):
                depth -= 1
                if depth == 0:
                    self.next()
                    return captured
            captured.append(self.next())

    def capture_balanced_parens(self):
        """Consume ``( ... )`` and return the inner tokens (parens dropped)."""
        self.expect_punct("(")
        depth = 1
        captured = []
        while True:
            token = self.peek()
            if token.kind == "eof":
                raise LisaSyntaxError("unterminated '(' block", token.location)
            if token.is_punct("("):
                depth += 1
            elif token.is_punct(")"):
                depth -= 1
                if depth == 0:
                    self.next()
                    return captured
            captured.append(self.next())


class Parser:
    """Parses one LISA source text into a :class:`repro.lisa.ast.ModelAst`."""

    def __init__(self, source, filename="<string>"):
        self._stream = _TokenStream(tokenize(source, filename))
        self._filename = filename

    def parse_model(self):
        s = self._stream
        start = s.peek().location
        name = "model"
        if s.at_ident("MODEL"):
            s.next()
            name = s.expect_ident().text
            s.expect_punct(";")
        resources = []
        config = []
        operations = []
        while not s.at_eof():
            token = s.peek()
            if token.is_ident("RESOURCE"):
                resources.extend(self._parse_resource_section())
            elif token.is_ident("CONFIG"):
                config.extend(self._parse_config_section())
            elif token.is_ident("OPERATION"):
                operations.append(self._parse_operation())
            else:
                raise LisaSyntaxError(
                    "expected RESOURCE, CONFIG or OPERATION, found %s" % (token,),
                    token.location,
                )
        return ast.ModelAst(
            name=name,
            resources=resources,
            config=config,
            operations=operations,
            location=start,
        )

    # -- RESOURCE ---------------------------------------------------------

    def _parse_resource_section(self):
        s = self._stream
        s.expect_ident("RESOURCE")
        s.expect_punct("{")
        items = []
        while not s.at_punct("}"):
            items.append(self._parse_resource_item())
        s.expect_punct("}")
        return items

    def _parse_resource_item(self):
        s = self._stream
        token = s.peek()
        if token.is_ident("PROGRAM_COUNTER"):
            s.next()
            type_name = s.expect_ident().text
            name = s.expect_ident().text
            s.expect_punct(";")
            return ast.ProgramCounterAst(type_name, name, token.location)
        if token.is_ident("REGISTER"):
            s.next()
            type_name = s.expect_ident().text
            name = s.expect_ident().text
            count = None
            if s.accept_punct("["):
                count = s.expect_int().value
                s.expect_punct("]")
            s.expect_punct(";")
            return ast.RegisterAst(type_name, name, count, token.location)
        if token.is_ident("MEMORY"):
            s.next()
            type_name = s.expect_ident().text
            name = s.expect_ident().text
            s.expect_punct("[")
            size = s.expect_int().value
            s.expect_punct("]")
            s.expect_punct(";")
            return ast.MemoryAst(type_name, name, size, token.location)
        if token.is_ident("PIPELINE"):
            s.next()
            name = s.expect_ident().text
            s.expect_punct("=")
            s.expect_punct("{")
            stages = [s.expect_ident().text]
            while s.accept_punct(";"):
                if s.at_punct("}"):
                    break
                stages.append(s.expect_ident().text)
            s.expect_punct("}")
            s.expect_punct(";")
            return ast.PipelineAst(name, stages, token.location)
        raise LisaSyntaxError(
            "expected a resource declaration, found %s" % (token,), token.location
        )

    # -- CONFIG -----------------------------------------------------------

    def _parse_config_section(self):
        s = self._stream
        s.expect_ident("CONFIG")
        s.expect_punct("{")
        items = []
        while not s.at_punct("}"):
            key_token = s.expect_ident()
            s.expect_punct("(")
            args = []
            if not s.at_punct(")"):
                args.append(self._parse_config_arg())
                while s.accept_punct(","):
                    args.append(self._parse_config_arg())
            s.expect_punct(")")
            s.expect_punct(";")
            items.append(
                ast.ConfigItem(key_token.text, args, key_token.location)
            )
        s.expect_punct("}")
        return items

    def _parse_config_arg(self):
        s = self._stream
        token = s.peek()
        if token.kind == "int":
            s.next()
            return token.value
        if token.kind == "ident":
            s.next()
            return token.text
        if token.kind == "string":
            s.next()
            return token.value
        raise LisaSyntaxError(
            "expected CONFIG argument, found %s" % (token,), token.location
        )

    # -- OPERATION --------------------------------------------------------

    def _parse_operation(self):
        s = self._stream
        start = s.expect_ident("OPERATION")
        name = s.expect_ident().text
        pipeline = None
        stage = None
        if s.accept_ident("IN"):
            pipeline = s.expect_ident().text
            s.expect_punct(".")
            stage = s.expect_ident().text
        s.expect_punct("{")
        items = self._parse_op_items()
        s.expect_punct("}")
        return ast.OperationAst(
            name=name,
            pipeline=pipeline,
            stage=stage,
            items=items,
            location=start.location,
        )

    def _parse_op_items(self):
        """Parse section items until the enclosing '}' (not consumed)."""
        s = self._stream
        items = []
        while not s.at_punct("}"):
            token = s.peek()
            if token.is_ident("IF"):
                items.append(self._parse_if_sections())
            elif token.is_ident("SWITCH"):
                items.append(self._parse_switch_sections())
            elif token.kind == "ident" and token.text in _SECTION_KEYWORDS:
                items.append(self._parse_section())
            else:
                raise LisaSyntaxError(
                    "expected a section keyword, IF or SWITCH, found %s"
                    % (token,),
                    token.location,
                )
        return items

    def _parse_if_sections(self):
        s = self._stream
        start = s.expect_ident("IF")
        condition = s.capture_balanced_parens()
        if not condition:
            raise LisaSyntaxError("empty IF condition", start.location)
        s.expect_punct("{")
        then_items = self._parse_op_items()
        s.expect_punct("}")
        else_items = []
        if s.accept_ident("ELSE"):
            if s.at_ident("IF"):
                else_items = [self._parse_if_sections()]
            else:
                s.expect_punct("{")
                else_items = self._parse_op_items()
                s.expect_punct("}")
        return ast.IfSectionsAst(
            condition_tokens=condition,
            then_items=then_items,
            else_items=else_items,
            location=start.location,
        )

    def _parse_switch_sections(self):
        s = self._stream
        start = s.expect_ident("SWITCH")
        selector = s.capture_balanced_parens()
        if not selector:
            raise LisaSyntaxError("empty SWITCH selector", start.location)
        s.expect_punct("{")
        cases = []
        while not s.at_punct("}"):
            token = s.peek()
            if token.is_ident("CASE"):
                s.next()
                value_tokens = []
                while not s.at_punct(":"):
                    if s.at_eof():
                        raise LisaSyntaxError(
                            "unterminated CASE label", token.location
                        )
                    value_tokens.append(s.next())
                s.expect_punct(":")
                if not value_tokens:
                    raise LisaSyntaxError("empty CASE label", token.location)
                s.expect_punct("{")
                items = self._parse_op_items()
                s.expect_punct("}")
                cases.append(
                    ast.SwitchCaseAst(value_tokens, items, token.location)
                )
            elif token.is_ident("DEFAULT"):
                s.next()
                s.expect_punct(":")
                s.expect_punct("{")
                items = self._parse_op_items()
                s.expect_punct("}")
                cases.append(ast.SwitchCaseAst(None, items, token.location))
            else:
                raise LisaSyntaxError(
                    "expected CASE or DEFAULT, found %s" % (token,),
                    token.location,
                )
        s.expect_punct("}")
        if not cases:
            raise LisaSyntaxError("SWITCH without cases", start.location)
        return ast.SwitchSectionsAst(
            selector_tokens=selector, cases=cases, location=start.location
        )

    def _parse_section(self):
        s = self._stream
        keyword = s.expect_ident()
        if keyword.text == "DECLARE":
            return self._parse_declare_section(keyword)
        if keyword.text == "CODING":
            return self._parse_coding_section(keyword)
        if keyword.text == "SYNTAX":
            return self._parse_syntax_section(keyword)
        if keyword.text == "BEHAVIOR":
            tokens = s.capture_balanced_braces()
            return ast.BehaviorSectionAst(tokens, keyword.location)
        if keyword.text == "EXPRESSION":
            tokens = s.capture_balanced_braces()
            return ast.ExpressionSectionAst(tokens, keyword.location)
        if keyword.text == "ACTIVATION":
            return self._parse_activation_section(keyword)
        raise LisaSyntaxError(
            "unknown section %r" % keyword.text, keyword.location
        )

    def _parse_declare_section(self, keyword):
        s = self._stream
        s.expect_punct("{")
        items = []
        while not s.at_punct("}"):
            token = s.peek()
            if token.is_ident("GROUP"):
                s.next()
                name = s.expect_ident().text
                s.expect_punct("=")
                s.expect_punct("{")
                alternatives = [s.expect_ident().text]
                while s.accept_punct("||"):
                    alternatives.append(s.expect_ident().text)
                s.expect_punct("}")
                s.expect_punct(";")
                items.append(
                    ast.GroupDeclAst(name, alternatives, token.location)
                )
            elif token.is_ident("INSTANCE"):
                s.next()
                name = s.expect_ident().text
                s.expect_punct("=")
                s.expect_punct("{")
                operation = s.expect_ident().text
                s.expect_punct("}")
                s.expect_punct(";")
                items.append(
                    ast.InstanceDeclAst(name, operation, token.location)
                )
            elif token.is_ident("LABEL"):
                s.next()
                names = [s.expect_ident().text]
                while s.accept_punct(","):
                    names.append(s.expect_ident().text)
                s.expect_punct(";")
                items.append(ast.LabelDeclAst(names, token.location))
            elif token.is_ident("REFERENCE"):
                s.next()
                names = [s.expect_ident().text]
                while s.accept_punct(","):
                    names.append(s.expect_ident().text)
                s.expect_punct(";")
                items.append(ast.ReferenceDeclAst(names, token.location))
            else:
                raise LisaSyntaxError(
                    "expected GROUP, INSTANCE, LABEL or REFERENCE, found %s"
                    % (token,),
                    token.location,
                )
        s.expect_punct("}")
        return ast.DeclareSectionAst(items, keyword.location)

    def _parse_coding_section(self, keyword):
        s = self._stream
        s.expect_punct("{")
        elements = []
        while not s.at_punct("}"):
            token = s.peek()
            if token.kind == "bits":
                s.next()
                elements.append(
                    ast.CodingPatternAst(token.value, token.location)
                )
            elif token.kind == "int":
                if not token.text.lower().startswith("0b"):
                    raise LisaSyntaxError(
                        "coding literals must be binary (0b...), found %r"
                        % token.text,
                        token.location,
                    )
                s.next()
                width = len(token.text) - 2
                pattern = BitPattern.exact(token.value, width)
                elements.append(ast.CodingPatternAst(pattern, token.location))
            elif token.kind == "ident":
                s.next()
                width = None
                if s.accept_punct("["):
                    width = s.expect_int().value
                    s.expect_punct("]")
                elements.append(
                    ast.CodingRefAst(token.text, width, token.location)
                )
            else:
                raise LisaSyntaxError(
                    "expected coding element, found %s" % (token,),
                    token.location,
                )
        s.expect_punct("}")
        if not elements:
            raise LisaSyntaxError("empty CODING section", keyword.location)
        return ast.CodingSectionAst(elements, keyword.location)

    def _parse_syntax_section(self, keyword):
        s = self._stream
        s.expect_punct("{")
        elements = []
        while not s.at_punct("}"):
            token = s.peek()
            if token.kind == "string":
                s.next()
                elements.append(
                    ast.SyntaxLiteralAst(token.value, token.location)
                )
            elif token.kind == "ident":
                s.next()
                elements.append(ast.SyntaxRefAst(token.text, token.location))
            elif token.is_punct(","):
                # Commas between syntax elements are decorative separators;
                # a literal comma in the mnemonic is written as ",".
                s.next()
            else:
                raise LisaSyntaxError(
                    "expected syntax element, found %s" % (token,),
                    token.location,
                )
        s.expect_punct("}")
        if not elements:
            raise LisaSyntaxError("empty SYNTAX section", keyword.location)
        return ast.SyntaxSectionAst(elements, keyword.location)

    def _parse_activation_section(self, keyword):
        s = self._stream
        s.expect_punct("{")
        names = []
        if not s.at_punct("}"):
            names.append(s.expect_ident().text)
            while s.accept_punct(",") or s.accept_punct(";"):
                if s.at_punct("}"):
                    break
                names.append(s.expect_ident().text)
        s.expect_punct("}")
        return ast.ActivationSectionAst(names, keyword.location)


def parse_source(source, filename="<string>"):
    """Parse a LISA source text into a :class:`ModelAst`."""
    return Parser(source, filename).parse_model()
