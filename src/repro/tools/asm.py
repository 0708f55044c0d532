"""Retargetable two-pass assembler, generated from the model data base.

The assembler is driven entirely by the SYNTAX and CODING sections of
the machine description.  When the first assembler of a model is built,
the root operation's SYNTAX tree is expanded into *forms*: one per
choice of SYNTAX variant and group alternative, in the order a
depth-first search over the operation tree would try them.  A form is a
flat sequence of steps -- a literal, a literal with a fused label
(``a3``), an operand expression, a constant REFERENCE -- plus an
encoding template: the constant bits the shared
:class:`repro.coding.InstructionEncoder` lays down with every operand 0,
and each operand's shift and width.  A line takes the first of its
candidate forms (indexed by the model's first-token literals) that
consumes it whole; pass 2 range-checks the operands and ORs them into
the template.  The forms are stored on the model, so later assemblers
of the same model reuse them.

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
Every instruction and data word must land inside its memory.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from repro.coding.encoder import InstructionEncoder, OperandSpec
from repro.coding.layout import layout_of
from repro.lisa import model as m
from repro.lisa.lexer import tokenize
from repro.support.bitutils import mask
from repro.support.errors import AssemblerError, CodingError, LisaSyntaxError
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
    match: tuple  # (form, operand values)
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
    """Two-pass assembler for one machine model.

    Building the first assembler of a model generates the model's forms
    (see the module docstring) and stores them on the model; every later
    assembler of the same model object reuses them.
    """

    def __init__(self, model):
        self._model = model
        self._forms = _forms_of(model)
        self._pmem = model.config.program_memory

    # -- public API -----------------------------------------------------------

    @property
    def form_count(self):
        """How many flat SYNTAX forms the model's assembler matches."""
        return len(self._forms[0])

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
        pmem_size = self._model.memories[memory].size
        counters = {memory: 0}
        # Label-free instruction text -> its match.  A program repeats
        # most of its lines, and a line's match depends on its text
        # alone; the placement checks below still run per line.
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
            match = matched.get(line)
            if match is None:
                words = _PLAIN_WORDS.fullmatch(line)
                if words is not None:
                    if parallel:
                        raise _misplaced_bar(line_no)
                    values = [_plain_int(v) for v in words[1].split(",")]
                    self._add_data(data, counters, memory, values, line_no)
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
            if match is None:
                match = self._match_instruction(
                    tokens, scanner.pos, line_no, line
                )
                if scanner.pos == 0:  # label-free
                    matched[line] = match
            address = counters.setdefault(memory, 0)
            if address >= pmem_size:
                raise _outside(line_no, address, memory, pmem_size)
            instructions.append(
                _PendingInstruction(line_no, memory, address, match, parallel)
            )
            counters[memory] = address + 1

    def _add_data(self, data, counters, memory, values, line_no):
        """Place a data line's words at the location counter; each must
        land inside the memory."""
        address = counters.setdefault(memory, 0)
        size = self._model.memories[memory].size
        if values and address + len(values) > size:
            raise _outside(line_no, max(address, size), memory, size)
        data.append(_PendingData(line_no, memory, address, values))
        counters[memory] = address + len(values)

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
            if value < 0:
                raise AssemblerError(
                    "line %d: .org address %d is negative" % (line_no, value)
                )
            counters[memory] = value
        elif name == "entry":
            token = scanner.next()
            if token is None:
                raise AssemblerError("line %d: .entry needs a value" % line_no)
            if token.kind == "int":
                entry[0] = (token.value, line_no)
            elif token.kind == "ident":
                entry[0] = (_SymbolicValue([token.text], []), line_no)
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
            self._add_data(data, counters, memory, values, line_no)
        elif name == "space":
            count = self._expect_const_expr(scanner, line_no, symbols)
            if count < 0:
                raise AssemblerError(
                    "line %d: .space count %d is negative" % (line_no, count)
                )
            self._add_data(data, counters, memory, [0] * count, line_no)
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

    def _match_instruction(self, tokens, start, line_no, line):
        """``(form, values)`` of the first candidate form that consumes
        ``tokens[start:]`` whole.

        Each step either consumes its tokens or rejects the form; an
        operand expression is read greedily, as far as ``+``/``-`` terms
        go, and a slot written twice must get the same value.
        """
        count = len(tokens)
        _forms, index, other = self._forms
        for form in index.get(tokens[start].text, other):
            values = list(form.initial)
            pos = start
            for kind, text, slot in form.steps:
                if kind == _LIT:
                    if pos < count and tokens[pos].text == text:
                        pos += 1
                        continue
                    break
                value = None
                if kind == _FUSED:
                    if pos == count:
                        break
                    token = tokens[pos]
                    pos += 1
                    if token.text != text:
                        digits = token.text[len(text):]
                        if not (token.kind == "ident" and digits.isdigit()
                                and token.text.startswith(text)):
                            break
                        value = int(digits)
                if value is None:
                    parsed = self._parse_expr_at(tokens, pos, line_no)
                    if parsed is None:
                        break
                    value, pos = parsed
                    if kind == _CONST and isinstance(value, _SymbolicValue):
                        break
                held = values[slot]
                if held is None:
                    values[slot] = value
                elif held != value:
                    break
            else:
                if pos != count:
                    continue  # trailing tokens: try the next form
                if form.leftover:
                    raise AssemblerError(
                        "line %d: guard constraints %r could not be attached "
                        "to any enclosing coding field" % (line_no, {
                            name: values[slot]
                            for name, slot in form.leftover
                        })
                    )
                return form, values
        raise AssemblerError(
            "line %d: cannot assemble %r for model %r"
            % (line_no, line, self._model.name)
        )

    def _parse_expr_at(self, tokens, pos, line_no):
        scanner = _LineScanner(tokens)
        scanner.pos = pos
        try:
            value = self._parse_operand_expr(scanner, line_no)
        except AssemblerError:
            return None
        return value, scanner.pos

    # -- pass 2 ----------------------------------------------------------------

    def _second_pass(self, name, symbols, instructions, data, entry):
        images = {}  # memory -> {address: word}
        parallel_fixups = []
        # Occurrences of one matched line share their match, and its word
        # depends only on the match and the (final) symbols: encode once.
        encoded = {}  # id(match) -> word
        for pending in instructions:
            word = encoded.get(id(pending.match))
            if word is None:
                word = encoded[id(pending.match)] = _encode(
                    pending.match, symbols, pending.line_no
                )
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
        program.entry = 0
        if entry is not None:
            value, line_no = entry
            if isinstance(value, _SymbolicValue):
                value = value.resolve(symbols, line_no)
            program.entry = value
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


def _encode(match, symbols, line_no):
    """The word of a matched line: its form's template with the operands
    resolved, range-checked and placed in the form's check order."""
    form, values = match
    word = form.bits
    for slot, shift, width, name in form.checks:
        value = values[slot]
        if isinstance(value, _SymbolicValue):
            value = value.resolve(symbols, line_no)
        if not _fits(value, width):
            raise AssemblerError(
                "line %d: value %d does not fit in %d-bit field %r"
                % (line_no, value, width, name)
            )
        word |= (value & mask(width)) << shift
    if form.error is not None:
        message, wrap = form.error
        if wrap:
            raise AssemblerError("line %d: %s" % (line_no, message))
        raise CodingError(message)
    return word


def _outside(line_no, address, memory, size):
    return AssemblerError(
        "line %d: address 0x%x is outside memory %r (%d words)"
        % (line_no, address, memory, size)
    )


# -- generation: SYNTAX and CODING -> forms -----------------------------------

#: Step kinds.  ``_LIT`` consumes one token spelled ``text``.  ``_FUSED``
#: consumes a token spelled ``text`` and then an operand expression, or
#: one identifier spelled ``text`` plus decimal digits (``a3``).
#: ``_EXPR`` reads an operand expression into a label; ``_CONST`` reads
#: one without symbols into a REFERENCE.
_LIT, _FUSED, _EXPR, _CONST = range(4)


class _Form(NamedTuple):
    """One flat parse of the root SYNTAX tree with its encoding template.

    ``steps`` are ``(kind, text, slot)`` triples.  Matching writes the
    operand values into a copy of ``initial``, where guard-bound slots
    hold their bound value; a slot written twice must get the same
    value.  ``checks`` are ``(slot, shift, width, field)`` in the order
    the operand tree lists its fields (an operation's own, then its
    sub-operations'), and ``bits`` holds every other bit of the word.
    ``leftover`` pairs the guard bindings no enclosing coding field
    absorbs with their slots.  ``error`` is ``(message, wrap)`` for a
    form the encoder rejects, raised after the checks as an
    :class:`AssemblerError` of the line when ``wrap``, else as a
    :class:`CodingError`.
    """

    steps: tuple
    initial: tuple
    leftover: tuple
    checks: tuple
    bits: int
    error: Optional[tuple]


def _forms_of(model):
    """``(forms, index, other)`` of the model, generated on first use
    and kept on the model, as :func:`layout_of` keeps a layout on an
    operation.  ``index`` maps a first literal to its candidate forms,
    ``other`` holds the candidates for any other first token, each in
    form order."""
    table = getattr(model, "_assembler_forms", None)
    if table is None:
        forms = _FormBuilder(model).forms()
        index = {form.steps[0][1]: [] for form in forms
                 if form.steps and form.steps[0][0] == _LIT}
        other = []
        for form in forms:
            if not form.steps:
                continue  # an empty SYNTAX matches no instruction line
            kind, literal, _slot = form.steps[0]
            if kind == _LIT:
                index[literal].append(form)
                continue
            # ``a3`` may be a fused spelling; an operand takes any token
            other.append(form)
            for key, candidates in index.items():
                if kind != _FUSED or key.startswith(literal):
                    candidates.append(form)
        table = model._assembler_forms = (
            tuple(forms),
            {key: tuple(candidates) for key, candidates in index.items()},
            tuple(other),
        )
    return table


class _FormBuilder:
    """Expands the root SYNTAX tree into forms.

    The expansion walks SYNTAX variants and group alternatives depth
    first, so the forms come out in the order the parses of a line are
    preferred.  Each field of an operation instance is one *cell* (an
    int); a guard binding or a REFERENCE names the cell of the nearest
    enclosing operation that declares the label, and ``pins`` maps the
    guard-bound cells to their values.  ``owed`` lists, in binding
    order, the cells an operation binds for its ancestors.
    """

    def __init__(self, model):
        self._model = model
        self._cells = itertools.count()
        self._loose = {}  # name -> cell of bindings no label absorbs
        self._variants = {}

    def forms(self):
        encoder = InstructionEncoder(self._model)
        return [self._finish(encoder, *parse)
                for parse in self._parses(self._model.root_operation, {}, {})]

    def _syntaxes(self, operation):
        """Assemblable SYNTAX variants with their guard bindings.

        Variants whose guards could not be solved to positive bindings
        are skipped: they decode and simulate but cannot be assembled.
        """
        variants = self._variants.get(operation.name)
        if variants is None:
            variants, seen = [], set()
            for syntax, bindings, usable in operation.syntax_variants(
                self._model
            ):
                key = (syntax.elements, tuple(sorted(bindings.items())))
                if usable and key not in seen:
                    seen.add(key)
                    variants.append((syntax, bindings))
            self._variants[operation.name] = variants
        return variants

    def _target(self, above, name):
        cell = above.get(name)
        if cell is None:
            cell = self._loose.setdefault(name, next(self._cells))
        return cell

    def _parses(self, operation, above, pins):
        """``(steps, node, owed, pins)`` per parse of ``operation``; a
        node is ``(operation, fields, children)``, a field ``None`` when
        it defaults to 0."""
        for syntax, bindings in self._syntaxes(operation):
            own = {label: next(self._cells) for label in operation.labels}
            fields, owed, bound = {}, {}, dict(pins)
            for name, value in bindings.items():
                cell = own.get(name)
                if cell is None:
                    cell = owed[name] = self._target(above, name)
                else:
                    fields[name] = cell
                if bound.setdefault(cell, value) != value:
                    break  # contradicts an enclosing guard
            else:
                context = (operation, syntax.elements, own, {**above, **own})
                yield from self._elements(
                    context, 0, (), fields, {}, owed, bound
                )

    def _elements(self, context, index, steps, fields, children, owed,
                  pins):
        operation, elements, own, above = context
        if index == len(elements):
            node = self._filled(operation, fields, children)
            if node is not None:
                yield steps, node, owed, pins
            return
        element = elements[index]
        step = None
        if isinstance(element, m.SyntaxLiteral):
            following = elements[index + 1:index + 2]
            if following and isinstance(following[0], m.SyntaxRef) \
                    and following[0].name in own:
                index += 1
                name = following[0].name
                step = (_FUSED, element.text, own[name])
                fields = _with(fields, name, own[name])
            else:
                step = (_LIT, element.text, None)
        elif element.name in own:
            step = (_EXPR, None, own[element.name])
            fields = _with(fields, element.name, own[element.name])
        elif element.name in operation.references:
            step = (_CONST, None, self._target(above, element.name))
            owed = _with(owed, element.name, step[2])
        if step is not None:
            yield from self._elements(
                context, index + 1, steps + (step,), fields, children, owed,
                pins,
            )
            return
        for alternative in operation.child_slots().get(element.name, ()):
            for child_steps, child, child_owed, child_pins in self._parses(
                self._model.operations[alternative], above, pins
            ):
                merged_fields, merged_owed = dict(fields), dict(owed)
                for name, cell in child_owed.items():
                    owner = merged_fields if name in own else merged_owed
                    owner.setdefault(name, cell)
                yield from self._elements(
                    context, index + 1, steps + child_steps, merged_fields,
                    {**children, element.name: child}, merged_owed,
                    child_pins,
                )

    def _filled(self, operation, fields, children):
        """The node with unmentioned coding fields at 0 and
        single-alternative slots at their only operation; None when a
        slot has no such default."""
        if not operation.has_coding:
            return operation, fields, children
        fields, children = dict(fields), dict(children)
        for element in operation.coding:
            if isinstance(element, m.CodingLabel):
                fields.setdefault(element.name, None)
            elif isinstance(element, m.CodingGroup) \
                    and element.name not in children:
                alternatives = operation.child_slots()[element.name]
                child = len(alternatives) == 1 and self._filled(
                    self._model.operations[alternatives[0]], {}, {}
                )
                if not child:
                    return None
                children[element.name] = child
        return operation, fields, children

    def _finish(self, encoder, steps, node, owed, pins):
        """The :class:`_Form` of one parse."""
        slots, initial = {}, []

        def slot_of(cell):
            if cell not in slots:
                slots[cell] = len(initial)
                initial.append(pins.get(cell))
            return slots[cell]

        steps = tuple((kind, text, None if cell is None else slot_of(cell))
                      for kind, text, cell in steps)
        written = set(slots)
        leftover = tuple((name, slot_of(cell)) for name, cell in owed.items())
        checks = []
        word_size = self._model.word_size

        def spec_of(node, offset):
            # Mirrors pass 2: an operation's own fields in binding order,
            # then its sub-operations in binding order.
            operation, fields, children = node
            layout = layout_of(operation)
            spec = OperandSpec(operation.name)
            for name, cell in fields.items():
                placed = layout.find(name)
                value = 0 if cell is None else pins.get(cell)
                if cell not in written and _fits(value, placed.width):
                    spec.fields[name] = value & mask(placed.width)
                    continue
                spec.fields[name] = 0
                shift = word_size - offset - placed.offset - placed.width
                checks.append(
                    (slot_of(cell), max(shift, 0), placed.width, name)
                )
            for slot, child in children.items():
                try:
                    child_offset = offset + layout.find(slot).offset
                except CodingError:  # the encoder rejects the slot
                    child_offset = offset
                spec.children[slot] = spec_of(child, child_offset)
            return spec

        bits, error = 0, None
        try:
            spec = spec_of(node, 0)
        except CodingError as exc:
            error = (exc.message, False)
        else:
            try:
                bits = encoder.encode(spec)
            except Exception as exc:  # pass 2 reports it at the line
                error = (str(exc), True)
        return _Form(steps, tuple(initial), leftover, tuple(checks), bits,
                     error)


def _with(fields, name, cell):
    """``fields`` with ``name`` bound to ``cell`` unless already bound."""
    return fields if name in fields else {**fields, name: cell}


def _fits(value, width):
    """Whether ``value`` fits a ``width``-bit field, signed or unsigned
    (``None``, an unbound constant, does not)."""
    if value is None:
        return False
    if value < 0:
        return value >= -(1 << (width - 1))
    return not value >> width


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
