"""The assembler's behaviour, line by line, pinned on generated corpora.

For each shipped model and the test model (``tests/conftest.py``) a
fixed-seed corpus of about 2,000 lines is drawn from the model's own
SYNTAX paths: in-range, out-of-range, negative, hex, binary and
symbolic operands, fused (``a3``) and spaced (``a 3``) register
spellings, lines whose operands are all out of range, and single-token
insertions, deletions and swaps.  Each line is assembled on its own,
followed by a few symbol definitions, and its outcome -- the assembled
image, or the exact error type and message -- is hashed.  The digests
were recorded with the backtracking matcher that searched the operation
tree afresh for every line.  A line with two bad operands pins which
error wins: an operation's own fields are checked before its
sub-operations', in the order the matcher bound them.  Four small models
pin what the shipped ones never spell (REFERENCEs in a SYNTAX, guard
bindings wider than their field or owed to no coding field, SYNTAX
operands outside the CODING), recorded the same way.
"""

import hashlib
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import build_toolset
from repro.lisa import model as m
from repro.lisa.parser import parse_source
from repro.lisa.semantics import compile_ast, compile_source
from repro.models import load_model, model_source
from repro.tools.disasm import _join_parts
from tests.conftest import TESTMODEL_SOURCE

MODELS = ("c62x", "c54x", "tinydsp", "testmodel")

#: Defines the symbols the corpus lines use; ``here`` is the address
#: after the line under test.
SUFFIX = "\n.equ SMALL, 3\n.equ BIG, 0x12345\n.equ NEG, -5\nhere:"

CORPUS_LINES = 2000
CHUNK = 250


def _model(name):
    if name == "testmodel":
        return compile_source(TESTMODEL_SOURCE, "testmodel.lisa")
    return load_model(name)


def _label_width(operation, name):
    for element in operation.coding or ():
        if isinstance(element, m.CodingLabel) and element.name == name:
            return element.width
    return 8


def syntax_paths(model, operation=None):
    """Every line shape the root SYNTAX tree spells, in tree order.

    A path is a tuple of ``("lit", text)`` and ``("val", width)`` items;
    a REFERENCE in a SYNTAX becomes a 1-bit value.
    """
    operation = operation or model.root_operation
    paths = []
    for syntax, _bindings, usable in operation.syntax_variants(model):
        if not usable:
            continue
        partial = [()]
        for element in syntax.elements:
            if isinstance(element, m.SyntaxLiteral):
                items = [(("lit", element.text),)]
            elif element.name in operation.labels:
                items = [(("val", _label_width(operation, element.name)),)]
            elif element.name in operation.child_slots():
                items = [
                    sub
                    for alt in operation.child_slots()[element.name]
                    for sub in syntax_paths(model, model.operations[alt])
                ]
            else:
                items = [(("val", 1),)]
            partial = [p + item for p in partial for item in items]
        paths.extend(partial)
    return list(dict.fromkeys(paths))


_SYMBOLIC = ["SMALL", "BIG", "NEG", "here", "nowhere", "SMALL + 1",
             "here - 1", "BIG - BIG", "-SMALL", "SMALL+NEG"]


def _operand(rng, width, bad):
    """One operand spelling for a ``width``-bit field."""
    top = (1 << width) - 1
    if bad:
        kind = rng.choice(["over", "over", "under", "hexover", "symbolic"])
    else:
        kind = rng.choice(["dec", "dec", "dec", "edge", "neg", "hex", "bin",
                           "symbolic"])
    if kind == "dec":
        return str(rng.randint(0, top))
    if kind == "edge":
        return str(rng.choice([0, top]))
    if kind == "neg":
        return str(-rng.randint(1, max(1, 1 << (width - 1))))
    if kind == "hex":
        return rng.choice(["0x%x", "0X%X"]) % rng.randint(0, top)
    if kind == "bin":
        return "0b" + bin(rng.randint(0, top))[2:]
    if kind == "over":
        return str(top + 1 + rng.randint(0, 300))
    if kind == "under":
        return str(-(1 << (width - 1)) - 1 - rng.randint(0, 20))
    if kind == "hexover":
        return "0x%x" % (top + 1 + rng.randint(0, 300))
    return rng.choice(_SYMBOLIC)


def render(rng, path, all_bad=False):
    """One spelling of ``path``; operands are bad at random, or all."""
    out = []
    for index, (kind, payload) in enumerate(path):
        if kind == "lit":
            if index and payload in (",", "+", "-"):
                out.append(payload)
            elif index and out and out[-1] in ("*", "@", "#"):
                out.append(payload)
            else:
                out.append((" " if index else "") + payload)
            continue
        bad = all_bad or rng.random() < 0.1
        text = _operand(rng, payload, bad)
        previous = path[index - 1] if index else None
        fusable = (index >= 2 and previous[0] == "lit"
                   and previous[1][-1:].isalpha() and text.isdigit())
        if fusable and rng.random() < 0.75:
            out.append(text)
        elif index and out and out[-1] in ("*", "@", "#") \
                and rng.random() < 0.5:
            out.append(text)
        else:
            out.append(" " + text)
    return "".join(out)


_TOKEN = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|0[xX][0-9a-fA-F]+|0[bB][01]+|[0-9]+|\S")


def mutate(rng, line, vocabulary):
    """``line`` with one token inserted, deleted or swapped."""
    tokens = _TOKEN.findall(line)
    how = rng.choice(["insert", "delete", "swap"])
    if how == "insert" or len(tokens) < 2:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(vocabulary))
    elif how == "delete":
        del tokens[rng.randrange(len(tokens))]
    else:
        index = rng.randrange(len(tokens) - 1)
        tokens[index], tokens[index + 1] = tokens[index + 1], tokens[index]
    return " ".join(tokens)


def corpus(name):
    """The fixed-seed corpus of model ``name``."""
    model = _model(name)
    paths = syntax_paths(model)
    rng = random.Random("asm-golden/" + name)
    vocabulary = sorted({payload for path in paths
                         for kind, payload in path if kind == "lit"})
    vocabulary += ["1", "0x10", "-", "+", ",", ":", "*", "SMALL", "r1",
                   "a1", "ar1", "999"]
    lines = []
    while len(lines) < CORPUS_LINES:
        # every path once, then paths at random
        path = paths[len(lines)] if len(lines) < len(paths) \
            else rng.choice(paths)
        roll = rng.random()
        line = render(rng, path, all_bad=roll < 0.1)
        if roll > 0.6:
            line = mutate(rng, line, vocabulary)
        if rng.random() < 0.03:
            line = "lbl: " + line
        lines.append(line)
    return lines


def outcome(assembler, line):
    """What assembling ``line`` (plus the symbol suffix) decides."""
    try:
        program = assembler.assemble_text(line + SUFFIX, name="golden")
    except Exception as exc:  # the error type is part of the pin
        return "%s: %s" % (type(exc).__name__, exc)
    return "%s entry=%s symbols=%s" % (
        " ".join("%s@%d:%s" % (s.memory, s.base,
                               ",".join("%x" % w for w in s.words))
                 for s in program.segments),
        program.entry, sorted(program.symbols.items()),
    )


def chunk_digests(name):
    assembler = build_toolset(_model(name)).assembler
    lines = corpus(name)
    digests = []
    for start in range(0, len(lines), CHUNK):
        digest = hashlib.sha256()
        for line in lines[start:start + CHUNK]:
            digest.update(("%s\t%s\n" % (line, outcome(assembler, line)))
                          .encode("utf-8"))
        digests.append(digest.hexdigest()[:16])
    return digests


CORPUS_DIGESTS = {
    'c62x': [
        'e4683b2db3e1f337', 'c220f242d02e9562', 'a5c5882016ff9421', '0ade02a742d45f42',
        '1df419c587012e19', '8c787b23c6883367', '078364052d3d2a93', 'ee13c70fe4ee6253',
    ],
    'c54x': [
        '1153bf2d31fe34dd', '444cc12d58df3cf7', 'b8beb5abf06c298f', '7edb5fd13acfbcbb',
        'bbbc1592e4b193f9', 'e51507e8a03a1cda', '62e7810f3b3e1857', '5fae17ef1cf29798',
    ],
    'tinydsp': [
        '2637dedbbbb217b5', 'fed7901e558e8ebb', 'efd502e40f994969', '16b723d99b5ef22d',
        'de6a6d580b8e7c73', '4ae8fb2d87e9d8e5', 'b9c92c6c3cf2c1a8', '88ed7156ae461cd0',
    ],
    'testmodel': [
        '7807e34aa5dca19a', '341f97394bd708c7', 'e8dc71e68fe1c758', 'd16b9c78ec8d66cd',
        '64f1d2c63bc710a6', '48dd3ff79d2ddefc', 'dc3a05ccc6b511eb', 'e77d98b39a229fe4',
    ],
}


@pytest.mark.parametrize("name", MODELS)
def test_corpus_outcomes_are_pinned(name):
    assert chunk_digests(name) == CORPUS_DIGESTS[name]


#: Outcomes in the clear: ``(model, line, outcome)``.
CLEAR_PINS = [
    ('c62x', 'ldw a99, a4, 99999',
     "AssemblerError: line 1: value 99999 does not fit in 15-bit field 'ofs'"),
    ('c62x', 'add a1, a2',
     "AssemblerError: line 1: cannot assemble 'add a1, a2' for model 'c62x'"),
    ('c62x', 'b100',
     "pmem@0:5c0000c8 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('c62x', 'mvk a1, -32768',
     "pmem@0:40300000 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('c62x', 'mvk a1, 65536',
     "AssemblerError: line 1: value 65536 does not fit in 16-bit field 'imm'"),
    ('c62x', 'stw b5, b4, nowhere',
     "AssemblerError: line 1: undefined symbol 'nowhere'"),
    ('c62x', 'add a16, a2, b3',
     "AssemblerError: line 1: value 16 does not fit in 4-bit field 'idx'"),
    ('c62x', 'add a 1, a 2, b 3',
     "pmem@0:4229800 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('c62x', 'shl a1, a2, here + 30',
     "pmem@0:2422f800 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('c54x', 'lt *ar1+',
     "pmem@0:4940 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('c54x', 'ld * ar 1 +, a',
     "AssemblerError: line 1: cannot assemble 'ld * ar 1 +, a' for model 'c54x'"),
    ('c54x', 'stm 300, ar9',
     "AssemblerError: line 1: value 300 does not fit in 8-bit field 'imm'"),
    ('c54x', 'banz 999, ar9',
     "AssemblerError: line 1: value 999 does not fit in 8-bit field 'target'"),
    ('c54x', 'sftr b, 40',
     "AssemblerError: line 1: value 40 does not fit in 5-bit field 'amount'"),
    ('tinydsp', 'adds r1, r2, r3',
     "pmem@0:894c entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('tinydsp', 'ld r9, *300',
     "AssemblerError: line 1: value 300 does not fit in 8-bit field 'addr'"),
    ('tinydsp', 'st r1, * nowhere',
     "AssemblerError: line 1: undefined symbol 'nowhere'"),
    ('testmodel', 'ldi r9, 300',
     "AssemblerError: line 1: value 300 does not fit in 8-bit field 'imm'"),
    ('testmodel', 'addl r1, r2, r3',
     "pmem@0:894c entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('testmodel', 'brnz r1, here',
     "pmem@0:2101 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('testmodel', 'lbl: ldi r1, lbl - 129',
     "AssemblerError: line 1: value -129 does not fit in 8-bit field 'imm'"),
]


@pytest.mark.parametrize("name, line, expected", CLEAR_PINS)
def test_outcome_in_the_clear(name, line, expected):
    assembler = build_toolset(_model(name)).assembler
    assert outcome(assembler, line) == expected


@pytest.mark.parametrize("name", MODELS)
def test_one_form_per_syntax_path(name):
    model = _model(name)
    assert build_toolset(model).assembler.form_count == \
        len(syntax_paths(model))


# -- models the shipped ones do not exercise -----------------------------------

EDGE_HEAD = r"""
MODEL edge;
RESOURCE {
    PROGRAM_COUNTER uint32 PC;
    REGISTER int R[8];
    MEMORY uint16 pmem[256];
    PIPELINE pipe = { FE; DE; EX; WB };
}
CONFIG {
    WORDSIZE(16);
    PROGRAM_MEMORY(pmem);
    ROOT(insn);
    EXECUTE_STAGE(EX);
    DEFINE(SHORT, 0);
    DEFINE(BIG, 5);
}
OPERATION reg {
    DECLARE { LABEL idx; }
    CODING { idx[3] }
    SYNTAX { "r" idx }
    EXPRESSION { R[idx] }
}
OPERATION nop IN pipe.EX {
    CODING { 0b0000 0b00000000000 }
    SYNTAX { "nop" }
    BEHAVIOR { }
}
"""

#: Operation sets: a REFERENCE spelled in a SYNTAX, a label spelled
#: twice, a mnemonic fused with its operand; a guard binding wider than
#: its field; a guard binding no enclosing coding field declares; a
#: SYNTAX group missing from the CODING and a sub-operation without one.
EDGE_MODELS = {
    "references": r"""
OPERATION setm IN pipe.EX {
    DECLARE { REFERENCE mode; GROUP dst = { reg }; }
    CODING { 0b0001 dst 0bxxxxxxxx }
    SYNTAX { "setm" mode "," dst }
    BEHAVIOR { dst = 1; }
}
OPERATION dup IN pipe.EX {
    DECLARE { LABEL imm; }
    CODING { 0b0010 imm[8] 0bxxx }
    SYNTAX { "dup" imm "," imm }
    BEHAVIOR { R[0] = imm; }
}
OPERATION b IN pipe.EX {
    DECLARE { LABEL target; }
    CODING { 0b0011 target[11] }
    SYNTAX { "b" target }
    BEHAVIOR { PC = target; }
}
OPERATION gmode IN pipe.EX {
    DECLARE { REFERENCE mode; GROUP dst = { reg }; }
    CODING { 0b0100 dst 0bxxxxxxxx }
    IF (mode == SHORT) { SYNTAX { "gm" dst "," mode } BEHAVIOR { dst = 2; } }
    ELSE { SYNTAX { "gml" dst "," mode } BEHAVIOR { dst = 3; } }
}
OPERATION insn {
    DECLARE { GROUP op = { nop || setm || dup || b || gmode }; LABEL mode; }
    CODING { mode[1] op }
    SYNTAX { op }
    ACTIVATION { op }
}
""",
    "wide_guard": r"""
OPERATION add IN pipe.EX {
    DECLARE { GROUP dst = { reg }; GROUP src1 = { reg }; REFERENCE mode; }
    CODING { 0b0001 dst src1 0bxxxxx }
    IF (mode == BIG) { SYNTAX { "addb" dst "," src1 } BEHAVIOR { dst = src1; } }
    ELSE { SYNTAX { "add" dst "," src1 } BEHAVIOR { dst = src1; } }
}
OPERATION insn {
    DECLARE { GROUP op = { nop || add }; LABEL mode; }
    CODING { mode[1] op }
    SYNTAX { op }
    ACTIVATION { op }
}
""",
    "unabsorbed": r"""
OPERATION add IN pipe.EX {
    DECLARE { GROUP dst = { reg }; GROUP src1 = { reg }; REFERENCE op; }
    CODING { 0b0001 dst src1 0bxxxxx }
    IF (op == 1) { SYNTAX { "add" dst "," src1 } BEHAVIOR { dst = src1; } }
    ELSE { SYNTAX { "adds" dst "," src1 } BEHAVIOR { dst = src1; } }
}
OPERATION insn {
    DECLARE { GROUP op = { nop || add }; LABEL mode; }
    CODING { mode[1] op }
    SYNTAX { op }
    ACTIVATION { op }
}
""",
    "uncoded": r"""
OPERATION helper {
    DECLARE { LABEL k; }
    SYNTAX { "h" k }
}
OPERATION wrap IN pipe.EX {
    DECLARE { GROUP dst = { reg }; GROUP extra = { reg }; LABEL imm; }
    CODING { 0b0001 dst imm[8] }
    SYNTAX { "wrap" dst "," extra "," imm }
    BEHAVIOR { dst = imm; }
}
OPERATION hop IN pipe.EX {
    DECLARE { INSTANCE hh = { helper }; LABEL imm; }
    CODING { 0b0010 imm[11] }
    SYNTAX { "hop" imm "," hh }
    BEHAVIOR { R[0] = imm; }
}
OPERATION insn {
    DECLARE { GROUP op = { nop || wrap || hop }; LABEL mode; }
    CODING { mode[1] op }
    SYNTAX { op }
    ACTIVATION { op }
}
""",
}

EDGE_LINES = {
    "references": ["setm 1, r2", "setm 2, r2", "setm SMALL, r2", "dup 5, 5",
                   "dup 5, 6", "dup SMALL, 3", "dup 300, 300", "b100",
                   "gm r1, 0", "gm r1, 1", "gml r1, 1", "gm r9, 1"],
    "wide_guard": ["add r1, r2", "addb r1, r2", "addb r9, r2"],
    "unabsorbed": ["nop", "add r1, r2", "nop\nadds r1, r2"],
    "uncoded": ["wrap r1, r2, 5", "wrap r1, r9, 300", "hop 5, h3",
                "hop 3000, h 1"],
}

EDGE_PINS = [
    ('references', 'setm 1, r2',
     "pmem@0:8a00 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('references', 'setm 2, r2',
     "AssemblerError: line 1: value 2 does not fit in 1-bit field 'mode'"),
    ('references', 'setm SMALL, r2',
     "AssemblerError: line 1: cannot assemble 'setm SMALL, r2' for model 'edge'"),
    ('references', 'dup 5, 5',
     "pmem@0:1028 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('references', 'dup 5, 6',
     "AssemblerError: line 1: cannot assemble 'dup 5, 6' for model 'edge'"),
    ('references', 'dup SMALL, 3',
     "AssemblerError: line 1: cannot assemble 'dup SMALL, 3' for model 'edge'"),
    ('references', 'dup 300, 300',
     "AssemblerError: line 1: value 300 does not fit in 8-bit field 'imm'"),
    ('references', 'b100',
     "pmem@0:1864 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('references', 'gm r1, 0',
     "pmem@0:2100 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('references', 'gm r1, 1',
     "AssemblerError: line 1: cannot assemble 'gm r1, 1' for model 'edge'"),
    ('references', 'gml r1, 1',
     "pmem@0:a100 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('references', 'gm r9, 1',
     "AssemblerError: line 1: cannot assemble 'gm r9, 1' for model 'edge'"),
    ('wide_guard', 'add r1, r2',
     "AssemblerError: line 1: cannot assemble 'add r1, r2' for model 'edge'"),
    ('wide_guard', 'addb r1, r2',
     "AssemblerError: line 1: value 5 does not fit in 1-bit field 'mode'"),
    ('wide_guard', 'addb r9, r2',
     "AssemblerError: line 1: value 5 does not fit in 1-bit field 'mode'"),
    ('unabsorbed', 'nop',
     "pmem@0:0 entry=0 symbols=[('BIG', 74565), ('NEG', -5), ('SMALL', 3), ('here', 1)]"),
    ('unabsorbed', 'add r1, r2',
     "AssemblerError: line 1: guard constraints {'op': 1} could not be "
     "attached to any enclosing coding field"),
    ('unabsorbed', 'nop\nadds r1, r2',
     "AssemblerError: line 2: cannot assemble 'adds r1, r2' for model 'edge'"),
    ('uncoded', 'wrap r1, r2, 5',
     "AssemblerError: line 1: encoding 'wrap': slots extra are not part of the coding"),
    ('uncoded', 'wrap r1, r9, 300',
     "AssemblerError: line 1: value 300 does not fit in 8-bit field 'imm'"),
    ('uncoded', 'hop 5, h3',
     "CodingError: operation 'helper' has no CODING section"),
    ('uncoded', 'hop 3000, h 1',
     "AssemblerError: line 1: value 3000 does not fit in 11-bit field 'imm'"),
]


@pytest.mark.parametrize("name, line, expected", EDGE_PINS)
def test_unusual_models_are_pinned(name, line, expected):
    model = compile_source(EDGE_HEAD + EDGE_MODELS[name], name + ".lisa")
    assert outcome(build_toolset(model).assembler, line) == expected


# -- assemble, disassemble, assemble -----------------------------------------


def _canonical(path, spell):
    """``path`` spelled as the disassembler spells its output, with
    ``spell(width, fused)`` giving each operand's text."""
    parts = []
    for index, (kind, payload) in enumerate(path):
        if kind == "lit":
            parts.append(("lit", payload))
            continue
        previous = path[index - 1][1] if index else ""
        fused = index >= 2 and previous[-1:].isalpha()
        parts.append(("val", spell(payload, fused)))
    return _join_parts(parts)


def _roundtrip(tools, line):
    pmem = tools.model.config.program_memory
    (segment,) = tools.assembler.assemble_text(line).segments_in(pmem)
    text = tools.disassembler.disassemble_word(segment.words[0])
    (again,) = tools.assembler.assemble_text(text).segments_in(pmem)
    return segment.words[0], again.words[0], text


@pytest.mark.parametrize("name", MODELS)
def test_every_path_round_trips_at_its_edges(name):
    tools = build_toolset(_model(name))
    for path in syntax_paths(tools.model):
        for top in (False, True):
            line = _canonical(
                path, lambda width, _fused: str((1 << width) - 1 if top
                                                else 0))
            word, again, text = _roundtrip(tools, line)
            assert word == again, (line, text)


@pytest.mark.parametrize("name", MODELS)
@given(data=st.data())
def test_round_trip_property(name, data):
    tools = build_toolset(_model(name))
    path = data.draw(st.sampled_from(syntax_paths(tools.model)))

    def spell(width, fused):
        value = data.draw(st.integers(0, (1 << width) - 1))
        if fused:
            return str(value)
        return data.draw(st.sampled_from([str(value), hex(value),
                                          bin(value)]))

    line = _canonical(path, spell)
    word, again, text = _roundtrip(tools, line)
    assert word == again, (line, text)


# -- the assembler is generated once per model -------------------------------


def test_second_assembler_solves_no_syntax(monkeypatch):
    text = model_source("c62x")
    model = compile_ast(parse_source(text, "c62x.lisa"), "c62x.lisa")
    source = "add a1, a2, b3\nldw a5, a4, 16\nnop\nhalt\n"
    first = build_toolset(model).assembler.assemble_text(source)
    calls = []
    original = m.Operation.syntax_variants

    def counting(self, model):
        calls.append(self.name)
        return original(self, model)

    monkeypatch.setattr(m.Operation, "syntax_variants", counting)
    second = build_toolset(model).assembler.assemble_text(source)
    assert calls == []
    assert second.segments[0].words == first.segments[0].words
