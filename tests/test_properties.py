"""Whole-stack property tests.

These are the heavy invariants:

* any synthetic program agrees bit-for-bit across simulation levels and
  matches its generated checksum,
* decode is total-or-error and re-encode is a fixed point on random
  words, for every shipped model,
* randomly generated behaviour expressions evaluate identically through
  the AST interpreter and the Python code generator.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_synthetic
from repro.behavior import ast as bast
from repro.behavior.evaluator import EvalContext, execute_behavior
from repro.coding.decoder import InstructionDecoder
from repro.coding.encoder import InstructionEncoder
from repro.machine.control import PipelineControl
from repro.machine.state import ProcessorState
from repro.models import load_model
from repro.sim import create_simulator
from repro.simcc import ir
from repro.support.errors import DecodeError
from tests.conftest import stage_function_of


class TestCrossSimulatorFuzz:
    @settings(max_examples=15, deadline=None)
    @given(
        words=st.integers(min_value=24, max_value=80),
        density=st.sampled_from([0.0, 0.1, 0.3]),
        iterations=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=1, max_value=10_000),
    )
    def test_tinydsp_synthetic_agreement(self, words, density, iterations,
                                         seed):
        app = build_synthetic("tinydsp", target_words=words,
                              branch_density=density,
                              loop_iterations=iterations, seed=seed)
        model = load_model("tinydsp")
        from repro.api import build_toolset

        program = app.assemble(build_toolset(model))
        reference = None
        for kind in ("interpretive", "compiled", "static", "unfolded"):
            simulator = create_simulator(model, kind)
            simulator.load_program(program)
            stats = simulator.run(max_cycles=2_000_000)
            app.verify(simulator.state)
            signature = (stats.cycles, simulator.state.snapshot())
            if reference is None:
                reference = signature
            else:
                assert signature == reference, kind

    @settings(max_examples=10, deadline=None)
    @given(
        words=st.integers(min_value=24, max_value=64),
        density=st.sampled_from([0.0, 0.2]),
        seed=st.integers(min_value=1, max_value=10_000),
    )
    def test_c62x_synthetic_agreement(self, words, density, seed):
        app = build_synthetic("c62x", target_words=words,
                              branch_density=density, loop_iterations=2,
                              seed=seed)
        model = load_model("c62x")
        from repro.api import build_toolset

        program = app.assemble(build_toolset(model))
        reference = None
        for kind in ("interpretive", "compiled", "unfolded_static"):
            simulator = create_simulator(model, kind)
            simulator.load_program(program)
            stats = simulator.run(max_cycles=2_000_000)
            app.verify(simulator.state)
            signature = (stats.cycles, simulator.state.snapshot())
            if reference is None:
                reference = signature
            else:
                assert signature == reference, kind


class TestDecodeEncodeFixpoint:
    @pytest.mark.parametrize("model_name", ["tinydsp", "c54x", "c62x"])
    @settings(max_examples=60, deadline=None)
    @given(word=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_random_words(self, model_name, word):
        model = load_model(model_name)
        word &= (1 << model.word_size) - 1
        decoder = InstructionDecoder(model)
        encoder = InstructionEncoder(model)
        try:
            node = decoder.decode(word)
        except DecodeError:
            return
        rebuilt = encoder.encode(encoder.spec_from_decoded(node))
        # Don't-care pad bits may normalise to zero; the *decoded
        # meaning* must be identical and re-encoding must be stable.
        again = decoder.decode(rebuilt)
        assert again.describe() == node.describe()
        assert encoder.encode(encoder.spec_from_decoded(again)) == rebuilt


# -- random behaviour expressions --------------------------------------------


def _leaf():
    return st.one_of(
        st.integers(min_value=-128, max_value=127).map(bast.IntLit),
        st.sampled_from(["src1", "src2", "mode"]).map(bast.Name),
    )


def _exprs():
    safe_binops = ["+", "-", "*", "&", "|", "^", "==", "!=", "<", ">",
                   "<=", ">=", "&&", "||"]
    return st.recursive(
        _leaf(),
        lambda children: st.one_of(
            st.tuples(st.sampled_from(safe_binops), children, children).map(
                lambda t: bast.Binary(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(["-", "~", "!"]), children).map(
                lambda t: bast.Unary(t[0], t[1])
            ),
            st.tuples(children, st.integers(0, 7)).map(
                lambda t: bast.Binary("<<", t[0], bast.IntLit(t[1]))
            ),
            st.tuples(children, st.integers(0, 7)).map(
                lambda t: bast.Binary(">>", t[0], bast.IntLit(t[1]))
            ),
            st.tuples(children, children, children).map(
                lambda t: bast.Ternary(t[0], t[1], t[2])
            ),
        ),
        max_leaves=12,
    )


class TestBackendAgreementFuzz:
    @settings(max_examples=80, deadline=None)
    @given(
        expr=_exprs(),
        a=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        b=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    def test_random_expressions(self, testmodel, expr, a, b):
        from repro.coding.encoder import OperandSpec

        spec = OperandSpec("insn", fields={"mode": 0}, children={
            "op": OperandSpec("add", children={
                "dst": OperandSpec("reg", fields={"idx": 1}),
                "src1": OperandSpec("reg", fields={"idx": 2}),
                "src2": OperandSpec("reg", fields={"idx": 3}),
            })
        })
        word = InstructionEncoder(testmodel).encode(spec)
        node = InstructionDecoder(testmodel).decode(word).children["op"]
        statements = (bast.Assign(bast.Name("dst"), "=", expr),)

        ev_state = ProcessorState(testmodel)
        ev_state.write_register("R", 2, a)
        ev_state.write_register("R", 3, b)
        execute_behavior(
            statements, node,
            EvalContext(ev_state, PipelineControl(), testmodel),
        )

        cg_state = ProcessorState(testmodel)
        cg_state.write_register("R", 2, a)
        cg_state.write_register("R", 3, b)

        class _B:
            pass

        behavior = _B()
        behavior.statements = statements
        fn = ir.compile_function(
            stage_function_of(testmodel, [(node, behavior)], "fuzz"),
            cg_state, PipelineControl(),
        )
        fn()
        assert ev_state.R[1] == cg_state.R[1]
