"""Tests for behaviour execution: evaluator, code generator, and their
bit-for-bit agreement (the foundation of the paper's accuracy claim)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.behavior.evaluator import EvalContext, execute_behavior
from repro.behavior.parser import parse_statements
from repro.behavior.runtime import idiv, imod
from repro.coding.decoder import InstructionDecoder
from repro.coding.encoder import InstructionEncoder, OperandSpec
from repro.lisa.lexer import tokenize
from repro.lisa.model import TYPES
from repro.machine.control import PipelineControl
from repro.machine.state import ProcessorState
from repro.simcc import ir
from repro.support.bitutils import canonical_source
from repro.support.errors import BehaviorError
from tests.conftest import stage_function_of


def stmts(source):
    return parse_statements([t for t in tokenize(source)
                             if t.kind != "eof"])


@pytest.fixture(scope="module")
def add_node(testmodel):
    """A decoded `add r1, r2, r3` (mode 0) instruction node."""
    spec = OperandSpec("insn", fields={"mode": 0}, children={
        "op": OperandSpec("add", children={
            "dst": OperandSpec("reg", fields={"idx": 1}),
            "src1": OperandSpec("reg", fields={"idx": 2}),
            "src2": OperandSpec("reg", fields={"idx": 3}),
        })
    })
    word = InstructionEncoder(testmodel).encode(spec)
    return InstructionDecoder(testmodel).decode(word).children["op"]


def run_evaluator(model, node, source, setup=None):
    state = ProcessorState(model)
    control = PipelineControl()
    if setup:
        setup(state)
    ctx = EvalContext(state, control, model)
    execute_behavior(stmts(source), node, ctx)
    return state, control


def run_codegen(model, node, source, setup=None):
    state = ProcessorState(model)
    control = PipelineControl()
    if setup:
        setup(state)
    func = stage_function_of(
        model, [(node, _FakeBehavior(stmts(source)))], "test_fn"
    )
    ir.compile_function(func, state, control)()
    return state, control


class _FakeBehavior:
    def __init__(self, statements):
        self.statements = statements


def _function_source(model, items):
    """Source of the ``(s, c)`` function the portable builder renders."""
    return ir.render_function_source(stage_function_of(model, items))


def run_both(model, node, source, setup=None):
    ev_state, ev_control = run_evaluator(model, node, source, setup)
    cg_state, cg_control = run_codegen(model, node, source, setup)
    assert ev_state.differences(cg_state) == [], (
        "evaluator and codegen disagree for %r" % source
    )
    assert ev_control.halted == cg_control.halted
    assert ev_control.stall_cycles == cg_control.stall_cycles
    return ev_state


BEHAVIOR_SNIPPETS = [
    "dst = src1 + src2;",
    "dst = src1 - src2;",
    "dst = src1 * src2;",
    "dst = src1 / src2;",
    "dst = src1 % src2;",
    "dst = src1 & src2;",
    "dst = src1 | src2;",
    "dst = src1 ^ src2;",
    "dst = src1 << 3;",
    "dst = src1 >> 2;",
    "dst = -src1;",
    "dst = ~src1;",
    "dst = !src1;",
    "dst = src1 < src2;",
    "dst = src1 >= src2;",
    "dst = src1 == src2;",
    "dst = src1 != src2;",
    "dst = src1 && src2;",
    "dst = src1 || src2;",
    "dst = src1 ? 10 : 20;",
    "dst = sat(src1 + src2, 8);",
    "dst = sext(src1 & 0xff, 8);",
    "dst = zext(src1, 4);",
    "dst = abs(src1);",
    "dst = min(src1, src2);",
    "dst = max(src1, src2);",
    "dst += src1;",
    "dst -= src2;",
    "dst <<= 1;",
    "int t = src1 * 2; dst = t + 1;",
    "IF (src1 > src2) { dst = 1; } ELSE { dst = 2; }",
    "int n = 3; WHILE (n) { dst = dst + src1; n = n - 1; }",
    "dmem[5] = src1; dst = dmem[5] * 2;",
    "ACC = src1 + 100000;",  # int16 canonicalisation on write
    "PC = 33;",
    "R[idx_helper()] = 9;" if False else "R[src2 & 0b111] = 9;",
]


class TestEvaluatorCodegenAgreement:
    @pytest.mark.parametrize("source", BEHAVIOR_SNIPPETS)
    def test_snippets_agree(self, testmodel, add_node, source):
        def setup(state):
            state.R[2] = 37
            state.R[3] = -11

        run_both(testmodel, add_node, source, setup)

    @given(a=st.integers(-2**31, 2**31 - 1), b=st.integers(-2**31, 2**31 - 1))
    def test_arith_agreement_property(self, testmodel, add_node, a, b):
        def setup(state):
            state.write_register("R", 2, a)
            state.write_register("R", 3, b)

        run_both(
            testmodel, add_node,
            "dst = src1 + src2; dmem[0] = src1 - src2;"
            " dmem[1] = (src1 ^ src2) >> 3; dmem[2] = sat(src1, 8);",
            setup,
        )

    @given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000))
    def test_division_agreement_property(self, testmodel, add_node, a, b):
        if b == 0:
            return

        def setup(state):
            state.write_register("R", 2, a)
            state.write_register("R", 3, b)

        state = run_both(
            testmodel, add_node, "dst = src1 / src2; dmem[0] = src1 % src2;",
            setup,
        )
        # C semantics: truncation toward zero; remainder sign = dividend.
        assert state.R[1] == idiv(a, b)
        assert state.dmem[0] == imod(a, b)


class TestEvaluatorSemantics:
    def test_group_lvalue_writes_through_expression(self, testmodel,
                                                    add_node):
        state, _ = run_evaluator(testmodel, add_node, "dst = 5;")
        assert state.R[1] == 5

    def test_reference_reads_ancestor_field(self, testmodel, add_node):
        state, _ = run_evaluator(testmodel, add_node, "dst = mode;")
        assert state.R[1] == 0

    def test_control_intrinsics(self, testmodel, add_node):
        _, control = run_evaluator(
            testmodel, add_node, "halt(); stall(2);"
        )
        assert control.halted
        assert control.stall_cycles == 2

    def test_assign_to_label_rejected(self, testmodel, add_node):
        with pytest.raises(BehaviorError):
            run_evaluator(testmodel, add_node, "mode = 1;")

    def test_unknown_name_rejected(self, testmodel, add_node):
        with pytest.raises(BehaviorError):
            run_evaluator(testmodel, add_node, "dst = mystery;")

    def test_register_file_without_index_rejected(self, testmodel, add_node):
        with pytest.raises(BehaviorError):
            run_evaluator(testmodel, add_node, "dst = R;")

    def test_index_of_non_resource_rejected(self, testmodel, add_node):
        with pytest.raises(BehaviorError):
            run_evaluator(testmodel, add_node, "dst = mode[0];")

    def test_memory_bounds_checked(self, testmodel, add_node):
        from repro.support.errors import SimulationError

        with pytest.raises(SimulationError):
            run_evaluator(testmodel, add_node, "dst = dmem[999];")

    def test_defines_usable_in_behavior(self, testmodel, add_node):
        state, _ = run_evaluator(testmodel, add_node, "dst = LONG + 1;")
        assert state.R[1] == 2

    def test_local_shadows_nothing_and_scopes(self, testmodel, add_node):
        state, _ = run_evaluator(
            testmodel, add_node, "int mode2 = 41; dst = mode2 + 1;"
        )
        assert state.R[1] == 42

    def test_while_loop_cap(self, testmodel, add_node, monkeypatch):
        from repro.behavior import evaluator
        from repro.support.errors import SimulationError

        monkeypatch.setattr(evaluator, "_MAX_LOOP_ITERATIONS", 1000)
        with pytest.raises(SimulationError):
            run_evaluator(testmodel, add_node, "WHILE (1) { dst = 1; }")


class TestCodegenDetails:
    def test_canonical_write_source_signed(self):
        dtype = TYPES["int8"]
        src = canonical_source("v", dtype.width, dtype.signed)
        namespace = {"v": 200}
        assert eval(src, namespace) == -56

    def test_canonical_write_source_unsigned(self):
        dtype = TYPES["uint8"]
        src = canonical_source("v", dtype.width, dtype.signed)
        assert eval(src, {"v": -1}) == 255

    def test_operand_constant_folding(self, testmodel, add_node):
        source = _function_source(
            testmodel, [(add_node, _FakeBehavior(stmts("dst = src1 + src2;")))]
        )
        # The selected register indices appear as literals.
        assert "s.R[2]" in source
        assert "s.R[3]" in source
        assert "s.R[1]" in source

    def test_control_intrinsic_emitted(self, testmodel, add_node):
        source = _function_source(
            testmodel, [(add_node, _FakeBehavior(stmts("flush(); stall(1);")))]
        )
        assert "c.request_flush()" in source
        assert "c.request_stall(1)" in source

    def test_empty_behavior_emits_pass(self, testmodel, add_node):
        source = _function_source(testmodel, [])
        assert "pass" in source

    def test_child_call_in_expression_rejected(self, testmodel, add_node):
        with pytest.raises(BehaviorError):
            _function_source(
                testmodel, [(add_node, _FakeBehavior(stmts("dst = src1();")))]
            )

    def test_pure_intrinsic_statement_dropped(self, testmodel, add_node):
        source = _function_source(
            testmodel, [(add_node, _FakeBehavior(stmts("sext(1, 2);")))]
        )
        assert "__sext" not in source


class TestChildInvocation:
    """`child();` runs the selected sub-operation's behaviours inline."""

    SOURCE = """
RESOURCE {
    PROGRAM_COUNTER uint32 PC;
    REGISTER int R[4];
    MEMORY uint8 pmem[8];
    PIPELINE pipe = { EX };
}
CONFIG { WORDSIZE(3); ROOT(insn); EXECUTE_STAGE(EX); }
OPERATION insn {
    DECLARE { GROUP kid = { bump || double }; }
    CODING { kid 0bxx }
    BEHAVIOR { R[0] = 10; kid(); R[2] = R[0]; }
}
OPERATION bump { CODING { 0b0 } BEHAVIOR { R[0] = R[0] + 1; } }
OPERATION double { CODING { 0b1 } BEHAVIOR { R[0] = R[0] * 2; } }
"""

    @pytest.mark.parametrize("word,expected", [(0b000, 11), (0b100, 20)])
    def test_both_backends(self, word, expected):
        from repro.lisa.semantics import compile_source

        model = compile_source(self.SOURCE)
        node = InstructionDecoder(model).decode(word)
        behavior = node.variant(model).behaviors[0]

        state = ProcessorState(model)
        execute_behavior(
            behavior.statements, node,
            EvalContext(state, PipelineControl(), model),
        )
        assert state.R[2] == expected

        state2 = ProcessorState(model)
        control2 = PipelineControl()
        ir.compile_function(
            stage_function_of(model, [(node, behavior)]), state2, control2
        )()
        assert state2.R[2] == expected
