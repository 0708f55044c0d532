"""Front-end fuzzing: randomly generated LISA models.

Generates small but structurally varied machine descriptions --
random field layouts, operand counts, immediate widths, optional
saturating variants guarded by a mode bit -- compiles them with the
LISA compiler, and checks the generated tool chain end to end:
encode/decode round trips, assembler/disassembler round trips, and
interpretive-vs-compiled simulation agreement on a generated program.

This is the test that retargetability claims hinge on: the flow must
work for models nobody hand-tuned it for.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_toolset
from repro.coding.decoder import InstructionDecoder
from repro.coding.encoder import InstructionEncoder, OperandSpec
from repro.lisa.semantics import compile_source
from repro.sim import create_simulator


@st.composite
def model_shapes(draw):
    """A random model shape: register/field widths and op inventory."""
    reg_bits = draw(st.integers(min_value=2, max_value=4))
    imm_bits = draw(st.integers(min_value=3, max_value=10))
    n_alu = draw(st.integers(min_value=1, max_value=4))
    guarded = draw(st.booleans())
    deep_ops = draw(st.booleans())  # a two-level operand group
    return {
        "reg_bits": reg_bits,
        "imm_bits": imm_bits,
        "n_alu": n_alu,
        "guarded": guarded,
        "deep_ops": deep_ops,
    }


_ALU_BEHAVIOURS = [
    ("fadd", "dst = src1 + src2;"),
    ("fsub", "dst = src1 - src2;"),
    ("fxor", "dst = src1 ^ src2;"),
    ("fand", "dst = src1 & src2;"),
]


def build_model_source(shape):
    reg_bits = shape["reg_bits"]
    imm_bits = shape["imm_bits"]
    reg_count = 1 << reg_bits
    opcode_bits = 4
    # Widths: opcode + 3 * reg + pad for ALU; opcode + reg + imm for ldi.
    alu_payload = 3 * reg_bits
    ldi_payload = reg_bits + imm_bits
    st_payload = reg_bits + 5
    payload = max(alu_payload, ldi_payload, st_payload)
    word = 1 + opcode_bits + payload  # 1 mode bit up front

    def pad(used):
        extra = payload - used
        return (" 0b" + "x" * extra) if extra else ""

    ops = []
    names = []
    for index in range(shape["n_alu"]):
        name, behaviour = _ALU_BEHAVIOURS[index]
        names.append(name)
        if shape["guarded"]:
            guard_body = (
                "    IF (mode == 0) {\n"
                "        SYNTAX { \"%(n)s\" dst \",\" src1 \",\" src2 }\n"
                "        BEHAVIOR { %(b)s }\n"
                "    } ELSE {\n"
                "        SYNTAX { \"%(n)ss\" dst \",\" src1 \",\" src2 }\n"
                "        BEHAVIOR { dst = sat(src1 + src2, 8); }\n"
                "    }\n" % {"n": name, "b": behaviour}
            )
        else:
            guard_body = (
                "    SYNTAX { \"%s\" dst \",\" src1 \",\" src2 }\n"
                "    BEHAVIOR { %s }\n" % (name, behaviour)
            )
        declare_mode = "REFERENCE mode;" if shape["guarded"] else ""
        ops.append(
            "OPERATION %s IN pipe.EX {\n"
            "    DECLARE { GROUP dst = { reg }; GROUP src1 = { reg };\n"
            "              GROUP src2 = { reg }; %s }\n"
            "    CODING { 0b%s dst src1 src2%s }\n"
            "%s}\n"
            % (
                name,
                declare_mode,
                format(index + 1, "04b"),
                pad(alu_payload),
                guard_body,
            )
        )

    if shape["deep_ops"]:
        # ldi via an indirection: an 'immop' group wrapping the payload.
        ops.append(
            "OPERATION immfield {\n"
            "    DECLARE { LABEL ival; }\n"
            "    CODING { ival[%d] }\n"
            "    SYNTAX { ival }\n"
            "    EXPRESSION { ival }\n"
            "}\n" % imm_bits
        )
        ops.append(
            "OPERATION ldi IN pipe.EX {\n"
            "    DECLARE { GROUP dst = { reg }; GROUP val = { immfield }; }\n"
            "    CODING { 0b1001 dst val%s }\n"
            "    SYNTAX { \"ldi\" dst \",\" val }\n"
            "    BEHAVIOR { dst = val; }\n"
            "}\n" % pad(ldi_payload)
        )
    else:
        ops.append(
            "OPERATION ldi IN pipe.EX {\n"
            "    DECLARE { GROUP dst = { reg }; LABEL imm; }\n"
            "    CODING { 0b1001 dst imm[%d]%s }\n"
            "    SYNTAX { \"ldi\" dst \",\" imm }\n"
            "    BEHAVIOR { dst = imm; }\n"
            "}\n" % (imm_bits, pad(ldi_payload))
        )
    names.append("ldi")

    source = """
MODEL fuzzed;
RESOURCE {
    PROGRAM_COUNTER uint32 PC;
    REGISTER int R[%(reg_count)d];
    MEMORY uint64 pmem[128];
    MEMORY int dmem[32];
    PIPELINE pipe = { FE; EX };
}
CONFIG {
    WORDSIZE(%(word)d);
    PROGRAM_MEMORY(pmem);
    ROOT(insn);
    EXECUTE_STAGE(EX);
}
OPERATION reg {
    DECLARE { LABEL idx; }
    CODING { idx[%(reg_bits)d] }
    SYNTAX { "r" idx }
    EXPRESSION { R[idx] }
}
OPERATION st IN pipe.EX {
    DECLARE { GROUP src = { reg }; LABEL addr; }
    CODING { 0b1010 src addr[5]%(st_pad)s }
    SYNTAX { "st" src "," addr }
    BEHAVIOR { dmem[addr] = src; }
}
OPERATION halt_op IN pipe.EX {
    CODING { 0b1111 0b%(halt_pad)s }
    SYNTAX { "halt" }
    BEHAVIOR { halt(); }
}
%(ops)s
OPERATION insn {
    DECLARE { GROUP op = { %(names)s || st || halt_op }; LABEL mode; }
    CODING { mode[1] op }
    SYNTAX { op }
    ACTIVATION { op }
}
""" % {
        "reg_count": reg_count,
        "word": word,
        "reg_bits": reg_bits,
        "ops": "\n".join(ops),
        "names": " || ".join(names),
        "st_pad": (" 0b" + "x" * (payload - reg_bits - 5))
        if payload - reg_bits - 5 else "",
        "halt_pad": "0" * payload,
    }
    return source, names, reg_count, imm_bits


@settings(max_examples=20, deadline=None)
@given(shape=model_shapes(), seed=st.integers(min_value=0, max_value=9999))
def test_fuzzed_models_end_to_end(shape, seed):
    source, alu_names, reg_count, imm_bits = build_model_source(shape)
    model = compile_source(source, "fuzzed.lisa")
    tools = build_toolset(model)
    encoder = InstructionEncoder(model)
    decoder = InstructionDecoder(model)

    # 1. Encode/decode round trip on a concrete ALU instruction.
    alu = alu_names[0]
    spec = OperandSpec("insn", fields={"mode": 0}, children={
        "op": OperandSpec(alu, children={
            "dst": OperandSpec("reg", fields={"idx": 1 % reg_count}),
            "src1": OperandSpec("reg", fields={"idx": 2 % reg_count}),
            "src2": OperandSpec("reg", fields={"idx": 3 % reg_count}),
        })
    })
    word = encoder.encode(spec)
    node = decoder.decode(word)
    assert encoder.encode(encoder.spec_from_decoded(node)) == word

    # 2. Assemble a program exercising every generated ALU op, run it on
    #    two simulation levels, compare results.
    imm_max = (1 << imm_bits) - 1
    lines = [
        "ldi r0, %d" % (seed % (imm_max + 1)),
        "ldi r1, %d" % ((seed * 7 + 3) % (imm_max + 1)),
    ]
    for index, name in enumerate(alu_names[:-1]):
        dst = (2 + index) % reg_count
        lines.append("%s r%d, r0, r1" % (name, dst))
        lines.append("st r%d, %d" % (dst, index))
    lines.append("halt")
    program = tools.assembler.assemble_text("\n".join(lines))

    # 3. Disassembler round trip over the whole program.
    for segment in program.segments_in("pmem"):
        for word in segment.words:
            text = tools.disassembler.disassemble_word(word)
            again = tools.assembler.assemble_text(text)
            assert again.segments[0].words[0] == word, text

    results = []
    for kind in ("interpretive", "compiled"):
        simulator = create_simulator(model, kind)
        simulator.load_program(program)
        stats = simulator.run(max_cycles=10_000)
        results.append((stats.cycles, simulator.state.snapshot()))
    assert results[0] == results[1]
