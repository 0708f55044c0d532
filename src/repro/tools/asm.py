"""Retargetable two-pass assembler, generated from the model data base.

The assembler is driven entirely by the SYNTAX and CODING sections of
the machine description: matching an instruction line walks the
operation tree (groups select alternatives by syntax), and encoding uses
the shared :class:`repro.coding.InstructionEncoder`.

Source format::

    ; comment (also // ...)
            .entry start        ; entry point (symbol or number)
            .org 0x10           ; set location counter (word address)
            .section dmem       ; switch to a data memory
            .word 1, 2, -3      ; literal words
            .space 8            ; zero-filled words
            .equ N, 16          ; assembly-time constant
    start:  ldi r1, N
            add r3, r1, r2
         || add r4, r1, r2      ; VLIW: parallel with previous instruction
            br start            ; symbols resolve in pass 2

Operand expressions are ``value`` or ``value + value`` / ``value -
value`` where value is an integer, a label or an ``.equ`` constant.
Coding fields that never appear in an operation's SYNTAX assemble as 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.coding.encoder import InstructionEncoder, OperandSpec
from repro.coding.layout import layout_of
from repro.lisa import model as m
from repro.lisa.lexer import tokenize
from repro.support.bitutils import mask
from repro.support.errors import AssemblerError, LisaSyntaxError
from repro.tools.objfile import Program


@dataclass
class _SymbolicValue:
    """An operand value awaiting pass-2 symbol resolution."""

    positive: List[object]  # term: int or symbol name
    negative: List[object]

    def resolve(self, symbols, line_no):
        total = 0
        for term in self.positive:
            total += _term_value(term, symbols, line_no)
        for term in self.negative:
            total -= _term_value(term, symbols, line_no)
        return total


def _term_value(term, symbols, line_no):
    if isinstance(term, int):
        return term
    if term in symbols:
        return symbols[term]
    raise AssemblerError("line %d: undefined symbol %r" % (line_no, term))


@dataclass
class _PendingInstruction:
    line_no: int
    memory: str
    address: int
    spec: OperandSpec
    parallel: bool  # "||" line: chain to the previous instruction


@dataclass
class _PendingData:
    """The words of one ``.word`` or ``.space`` line, from ``address``."""

    line_no: int
    memory: str
    address: int
    values: List[object]  # int or _SymbolicValue


_PLAIN_INT = r"-?(?:0[xX][0-9a-fA-F]+|0[bB][01]+|[0-9]+)"

#: A ``.word`` line of plain ASCII integer literals, the shape of every
#: generated data table.  Such a line skips the tokenizer; any other
#: spelling (symbols, ``+``/``-`` expressions, other spacing, non-ASCII
#: digits, a label) takes the general path and its diagnostics.
_PLAIN_WORDS = re.compile(
    r"\.word[ \t]+(%s(?:[ \t]*,[ \t]*%s)*)" % (_PLAIN_INT, _PLAIN_INT)
)

def _plain_int(text):
    """The value of one ``_PLAIN_INT`` literal, read as the lexer does
    (``int`` ignores the surrounding blanks)."""
    try:
        return int(text)
    except ValueError:  # a 0x or 0b literal
        return int(text, 0)


class _LineScanner:
    """Token cursor over one assembly line."""

    def __init__(self, tokens):
        self.tokens = tokens  # excludes the eof token
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self):
        token = self.peek()
        if token is not None:
            self.pos += 1
        return token

    def at_end(self):
        return self.pos >= len(self.tokens)


class Assembler:
    """Two-pass assembler for one machine model."""

    def __init__(self, model):
        self._model = model
        self._encoder = InstructionEncoder(model)
        self._root = model.root_operation
        self._pmem = model.config.program_memory
        self._syntax_cache = {}

    # -- public API -----------------------------------------------------------

    def assemble_text(self, text, name="program", lint=True):
        """Assemble source text into a :class:`Program`.

        On VLIW models the result is linted for same-packet write
        collisions (see :mod:`repro.tools.lint`); warnings are attached
        as ``program.lint_warnings``.
        """
        symbols = {}
        instructions = []
        data = []
        entry = [None]
        self._first_pass(text, symbols, instructions, data, entry)
        program = self._second_pass(
            name, symbols, instructions, data, entry[0]
        )
        if lint and self._model.is_vliw:
            from repro.tools.lint import lint_vliw_packets

            program.lint_warnings = lint_vliw_packets(self._model, program)
        return program

    def assemble_file(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return self.assemble_text(text, name=str(path))

    # -- pass 1 -----------------------------------------------------------------

    def _first_pass(self, text, symbols, instructions, data, entry):
        memory = self._pmem
        counters = {memory: 0}
        # Label-free instruction text -> its matched spec.  A program
        # repeats most of its lines, and a line's match depends on its
        # text alone; the placement checks below still run per line.
        matched = {}
        for line_no, raw_line in enumerate(text.splitlines(), start=1):
            line = _strip_comment(raw_line).strip()
            if not line:
                continue
            parallel = False
            if line.startswith("||"):
                parallel = True
                line = line[2:].strip()
                if not line:
                    raise AssemblerError(
                        "line %d: '||' without an instruction" % line_no
                    )
            spec = matched.get(line)
            if spec is None:
                words = _PLAIN_WORDS.fullmatch(line)
                if words is not None:
                    if parallel:
                        raise _misplaced_bar(line_no)
                    values = [_plain_int(v) for v in words[1].split(",")]
                    address = counters.setdefault(memory, 0)
                    data.append(_PendingData(line_no, memory, address, values))
                    counters[memory] = address + len(values)
                    continue
                tokens = self._tokenize_line(line, line_no)
                scanner = _LineScanner(tokens)
                # label definitions: ident ':' (possibly several)
                while (
                    len(scanner.tokens) >= scanner.pos + 2
                    and scanner.tokens[scanner.pos].kind == "ident"
                    and scanner.tokens[scanner.pos + 1].is_punct(":")
                ):
                    label = scanner.next().text
                    scanner.next()
                    if label in symbols:
                        raise AssemblerError(
                            "line %d: duplicate label %r" % (line_no, label)
                        )
                    symbols[label] = counters.setdefault(memory, 0)
                if scanner.at_end() or scanner.peek().is_punct("."):
                    if parallel:
                        raise _misplaced_bar(line_no)
                    if not scanner.at_end():
                        memory = self._directive(
                            scanner, line_no, symbols, counters, memory,
                            data, entry,
                        )
                    continue
            if parallel and not self._model.is_vliw:
                raise AssemblerError(
                    "line %d: '||' is only valid for VLIW models" % line_no
                )
            if memory != self._pmem:
                raise AssemblerError(
                    "line %d: instructions must go to program memory %r "
                    "(currently in section %r)" % (line_no, self._pmem, memory)
                )
            if spec is None:
                label_free = scanner.pos == 0
                spec = self._match_instruction(scanner, line_no, line)
                if label_free:
                    matched[line] = spec
            address = counters.setdefault(memory, 0)
            instructions.append(
                _PendingInstruction(line_no, memory, address, spec, parallel)
            )
            counters[memory] = address + 1

    def _tokenize_line(self, line, line_no):
        try:
            tokens = tokenize(line, "<asm:%d>" % line_no)
        except LisaSyntaxError as exc:
            raise AssemblerError(
                "line %d: %s" % (line_no, exc.message)
            ) from exc
        return [t for t in tokens if t.kind != "eof"]

    # -- directives -----------------------------------------------------------

    def _directive(self, scanner, line_no, symbols, counters, memory, data,
                   entry):
        scanner.next()  # '.'
        name_token = scanner.next()
        if name_token is None or name_token.kind != "ident":
            raise AssemblerError("line %d: malformed directive" % line_no)
        name = name_token.text.lower()
        if name == "org":
            value = self._expect_const_expr(scanner, line_no, symbols)
            counters[memory] = value
        elif name == "entry":
            token = scanner.next()
            if token is None:
                raise AssemblerError("line %d: .entry needs a value" % line_no)
            if token.kind == "int":
                entry[0] = token.value
            elif token.kind == "ident":
                entry[0] = _SymbolicValue([token.text], [])
            else:
                raise AssemblerError(
                    "line %d: .entry needs a symbol or number" % line_no
                )
        elif name == "section":
            token = scanner.next()
            if token is None or token.kind != "ident":
                raise AssemblerError(
                    "line %d: .section needs a memory name" % line_no
                )
            if token.text not in self._model.memories:
                raise AssemblerError(
                    "line %d: unknown memory %r" % (line_no, token.text)
                )
            memory = token.text
            counters.setdefault(memory, 0)
        elif name == "word":
            values = [self._parse_operand_expr(scanner, line_no)]
            while not scanner.at_end():
                token = scanner.next()
                if not token.is_punct(","):
                    raise AssemblerError(
                        "line %d: expected ',' between .word values" % line_no
                    )
                values.append(self._parse_operand_expr(scanner, line_no))
            address = counters.setdefault(memory, 0)
            data.append(_PendingData(line_no, memory, address, values))
            counters[memory] = address + len(values)
        elif name == "space":
            count = self._expect_const_expr(scanner, line_no, symbols)
            if count < 0:
                raise AssemblerError(
                    "line %d: .space count %d is negative" % (line_no, count)
                )
            address = counters.setdefault(memory, 0)
            data.append(_PendingData(line_no, memory, address, [0] * count))
            counters[memory] = address + count
        elif name == "equ":
            token = scanner.next()
            if token is None or token.kind != "ident":
                raise AssemblerError("line %d: .equ needs a name" % line_no)
            comma = scanner.next()
            if comma is None or not comma.is_punct(","):
                raise AssemblerError(
                    "line %d: .equ needs 'name, value'" % line_no
                )
            value = self._expect_const_expr(scanner, line_no, symbols)
            if token.text in symbols:
                raise AssemblerError(
                    "line %d: duplicate symbol %r" % (line_no, token.text)
                )
            symbols[token.text] = value
        else:
            raise AssemblerError(
                "line %d: unknown directive .%s" % (line_no, name)
            )
        if not scanner.at_end() and name != "word":
            raise AssemblerError(
                "line %d: trailing tokens after directive" % line_no
            )
        return memory

    def _expect_const_expr(self, scanner, line_no, symbols):
        value = self._parse_operand_expr(scanner, line_no)
        if isinstance(value, _SymbolicValue):
            value = value.resolve(symbols, line_no)
        return value

    def _parse_operand_expr(self, scanner, line_no):
        """Parse ``[-] term (('+'|'-') term)*`` into int or symbolic."""
        positive, negative = [], []
        sign_negative = False
        token = scanner.peek()
        if token is not None and token.is_punct("-"):
            scanner.next()
            sign_negative = True
        term = self._parse_term(scanner, line_no)
        (negative if sign_negative else positive).append(term)
        while True:
            token = scanner.peek()
            if token is None or not (
                token.is_punct("+") or token.is_punct("-")
            ):
                break
            scanner.next()
            term = self._parse_term(scanner, line_no)
            (negative if token.text == "-" else positive).append(term)
        if all(isinstance(t, int) for t in positive + negative):
            return sum(positive) - sum(negative)
        return _SymbolicValue(positive, negative)

    def _parse_term(self, scanner, line_no):
        token = scanner.next()
        if token is None:
            raise AssemblerError("line %d: missing operand" % line_no)
        if token.kind == "int":
            return token.value
        if token.kind == "ident":
            return token.text
        raise AssemblerError(
            "line %d: unexpected %s in operand" % (line_no, token)
        )

    # -- instruction matching -----------------------------------------------------

    def _syntaxes_of(self, operation):
        """Assemblable SYNTAX variants with their guard bindings, cached.

        Each entry is ``(syntax, bindings)``; variants whose guards could
        not be solved to positive bindings are skipped -- they can be
        decoded and simulated but not assembled.
        """
        cached = self._syntax_cache.get(operation.name)
        if cached is not None:
            return cached
        variants = []
        seen = set()
        for syntax, bindings, usable in operation.syntax_variants(
            self._model
        ):
            if not usable:
                continue
            key = (syntax.elements, tuple(sorted(bindings.items())))
            if key in seen:
                continue
            seen.add(key)
            variants.append((syntax, bindings))
        self._syntax_cache[operation.name] = variants
        return variants

    def _match_instruction(self, scanner, line_no, line):
        tokens = scanner.tokens
        for spec, constraints, end in self._gen_match(
            self._root, tokens, scanner.pos, line_no
        ):
            if end != len(tokens):
                continue  # trailing tokens: try another parse
            if constraints:
                raise AssemblerError(
                    "line %d: guard constraints %r could not be attached to "
                    "any enclosing coding field" % (line_no, constraints)
                )
            scanner.pos = end
            return spec
        raise AssemblerError(
            "line %d: cannot assemble %r for model %r"
            % (line_no, line, self._model.name)
        )

    def _gen_match(self, operation, tokens, pos, line_no):
        """Backtracking matcher: yields (spec, constraints, end_pos).

        Tries every SYNTAX variant and, within group slots, every
        alternative operation -- so a prefix-ambiguous grammar (e.g.
        ``*ar1`` vs ``*ar1+``) still finds the parse that consumes the
        whole line.  ``constraints`` carries guard bindings owed to an
        ancestor's coding fields (non-orthogonal codings).
        """
        for syntax, bindings in self._syntaxes_of(operation):
            fields = {}
            constraints = {}
            for name, value in bindings.items():
                if name in operation.labels:
                    fields[name] = value
                else:
                    constraints[name] = value
            yield from self._gen_elements(
                operation, syntax.elements, 0, tokens, pos, fields, {},
                constraints, line_no,
            )

    def _gen_elements(self, operation, elements, index, tokens, pos, fields,
                      children, constraints, line_no):
        if index == len(elements):
            spec = OperandSpec(
                operation.name, fields=dict(fields), children=dict(children)
            )
            if self._fill_defaults(operation, spec) is not None:
                yield spec, dict(constraints), pos
            return
        element = elements[index]
        if isinstance(element, m.SyntaxLiteral):
            token = tokens[pos] if pos < len(tokens) else None
            if token is None:
                return
            if token.text == element.text:
                yield from self._gen_elements(
                    operation, elements, index + 1, tokens, pos + 1, fields,
                    children, constraints, line_no,
                )
                return
            # Prefix fusion: literal "ar" + label arn matches token "ar3".
            next_ref = None
            if index + 1 < len(elements) and isinstance(
                elements[index + 1], m.SyntaxRef
            ):
                next_ref = elements[index + 1]
            if (
                next_ref is not None
                and token.kind == "ident"
                and token.text.startswith(element.text)
                and token.text[len(element.text):].isdigit()
                and next_ref.name in operation.labels
            ):
                value = int(token.text[len(element.text):])
                if fields.get(next_ref.name, value) != value:
                    return
                new_fields = dict(fields)
                new_fields[next_ref.name] = value
                yield from self._gen_elements(
                    operation, elements, index + 2, tokens, pos + 1,
                    new_fields, children, constraints, line_no,
                )
            return
        # SyntaxRef
        name = element.name
        if name in operation.labels:
            parsed = self._parse_expr_at(tokens, pos, line_no)
            if parsed is None:
                return
            value, end = parsed
            if name in fields and fields[name] != value:
                return
            new_fields = dict(fields)
            new_fields[name] = value
            yield from self._gen_elements(
                operation, elements, index + 1, tokens, end, new_fields,
                children, constraints, line_no,
            )
            return
        slots = operation.child_slots()
        if name in slots:
            for alt_name in slots[name]:
                alt = self._model.operations[alt_name]
                for child, child_constraints, end in self._gen_match(
                    alt, tokens, pos, line_no
                ):
                    merged = self._merge_constraints(
                        operation, fields, constraints, child_constraints
                    )
                    if merged is None:
                        continue
                    new_fields, new_constraints = merged
                    new_children = dict(children)
                    new_children[name] = child
                    yield from self._gen_elements(
                        operation, elements, index + 1, tokens, end,
                        new_fields, new_children, new_constraints, line_no,
                    )
            return
        if name in operation.references:
            parsed = self._parse_expr_at(tokens, pos, line_no)
            if parsed is None:
                return
            value, end = parsed
            if isinstance(value, _SymbolicValue):
                return
            merged = self._merge_constraints(
                operation, fields, constraints, {name: value}
            )
            if merged is None:
                return
            new_fields, new_constraints = merged
            yield from self._gen_elements(
                operation, elements, index + 1, tokens, end, new_fields,
                children, new_constraints, line_no,
            )

    def _merge_constraints(self, operation, fields, constraints, incoming):
        """Absorb child/reference bindings into this operation's fields or
        pass them further up; None on conflict."""
        new_fields = dict(fields)
        new_constraints = dict(constraints)
        for name, value in incoming.items():
            if name in operation.labels:
                if new_fields.get(name, value) != value:
                    return None
                new_fields[name] = value
            else:
                if new_constraints.get(name, value) != value:
                    return None
                new_constraints[name] = value
        return new_fields, new_constraints

    def _parse_expr_at(self, tokens, pos, line_no):
        scanner = _LineScanner(tokens)
        scanner.pos = pos
        try:
            value = self._parse_operand_expr(scanner, line_no)
        except AssemblerError:
            return None
        return value, scanner.pos

    def _fill_defaults(self, operation, spec):
        """Default unmentioned coding fields to 0 and single-alternative
        slots to their only operation; fail on unresolvable slots."""
        if not operation.has_coding:
            return spec
        for element in operation.coding:
            if isinstance(element, m.CodingLabel):
                spec.fields.setdefault(element.name, 0)
            elif isinstance(element, m.CodingGroup):
                if element.name in spec.children:
                    continue
                alternatives = operation.child_slots()[element.name]
                if len(alternatives) != 1:
                    return None
                child = OperandSpec(alternatives[0])
                if self._fill_defaults(
                    self._model.operations[alternatives[0]], child
                ) is None:
                    return None
                spec.children[element.name] = child
        return spec

    # -- pass 2 ----------------------------------------------------------------

    def _second_pass(self, name, symbols, instructions, data, entry):
        images = {}  # memory -> {address: word}
        parallel_fixups = []
        # Occurrences of one matched line share their spec, and its word
        # depends only on the spec and the (final) symbols: encode once.
        encoded = {}  # id(spec) -> word
        for pending in instructions:
            word = encoded.get(id(pending.spec))
            if word is None:
                spec = self._resolve_spec(
                    pending.spec,
                    self._model.operations[pending.spec.operation],
                    symbols, pending.line_no,
                )
                try:
                    word = self._encoder.encode(spec)
                except Exception as exc:
                    raise AssemblerError(
                        "line %d: %s" % (pending.line_no, exc)
                    ) from exc
                encoded[id(pending.spec)] = word
            image = images.setdefault(pending.memory, {})
            if pending.address in image:
                raise AssemblerError(
                    "line %d: address 0x%x assembled twice"
                    % (pending.line_no, pending.address)
                )
            image[pending.address] = word
            if pending.parallel:
                parallel_fixups.append(pending)
        self._apply_parallel_bits(images, parallel_fixups)

        for pending in data:
            # A word takes a signed or an unsigned value of its width.
            width = self._model.memories[pending.memory].dtype.width
            lowest, highest = -(1 << (width - 1)), mask(width)
            image = images.setdefault(pending.memory, {})
            address = pending.address
            for value in pending.values:
                if isinstance(value, _SymbolicValue):
                    value = value.resolve(symbols, pending.line_no)
                if not lowest <= value <= highest:
                    raise AssemblerError(
                        "line %d: value %d does not fit in %d-bit memory %r"
                        % (pending.line_no, value, width, pending.memory)
                    )
                if address in image:
                    raise AssemblerError(
                        "line %d: address 0x%x assembled twice"
                        % (pending.line_no, address)
                    )
                image[address] = value & highest
                address += 1

        program = Program(name=name, symbols=dict(symbols))
        for memory, image in images.items():
            for base, words in _contiguous_runs(image):
                program.add_segment(memory, base, words)
        if entry is None:
            entry = 0
        elif isinstance(entry, _SymbolicValue):
            entry = entry.resolve(symbols, 0)
        program.entry = entry
        return program

    def _apply_parallel_bits(self, images, fixups):
        config = self._model.config
        if not fixups:
            return
        pbit = 1 << config.parallel_bit
        image = images.get(self._pmem, {})
        for pending in fixups:
            prev_address = pending.address - 1
            if prev_address not in image:
                raise AssemblerError(
                    "line %d: '||' has no preceding instruction"
                    % pending.line_no
                )
            image[prev_address] |= pbit

    def _resolve_spec(self, spec, operation, symbols, line_no):
        layout = layout_of(operation)
        resolved = OperandSpec(spec.operation)
        for field_name, value in spec.fields.items():
            if isinstance(value, _SymbolicValue):
                value = value.resolve(symbols, line_no)
            width = layout.find(field_name).width
            if value < 0:
                if value < -(1 << (width - 1)):
                    raise AssemblerError(
                        "line %d: value %d does not fit in %d-bit field %r"
                        % (line_no, value, width, field_name)
                    )
                value &= mask(width)
            elif value > mask(width):
                raise AssemblerError(
                    "line %d: value %d does not fit in %d-bit field %r"
                    % (line_no, value, width, field_name)
                )
            resolved.fields[field_name] = value
        for slot, child in spec.children.items():
            resolved.children[slot] = self._resolve_spec(
                child, self._model.operations[child.operation], symbols,
                line_no,
            )
        return resolved


def _misplaced_bar(line_no):
    return AssemblerError(
        "line %d: '||' must be followed by an instruction" % line_no
    )


def _strip_comment(line):
    """Remove ``;`` and ``//`` comments (outside of strings -- assembly
    lines contain no strings, so a plain scan suffices)."""
    for marker in (";", "//", "#"):
        index = line.find(marker)
        if index >= 0:
            line = line[:index]
    return line


def _contiguous_runs(image):
    """Group an address->word dict into (base, [words]) runs."""
    runs = []
    for address in sorted(image):
        if runs and address == runs[-1][0] + len(runs[-1][1]):
            runs[-1][1].append(image[address])
        else:
            runs.append((address, [image[address]]))
    return runs
