"""Tests for the SimIR well-formedness verifier.

Two halves.  The *mutation* half hand-builds ill-formed IR -- wrong
canonicalisation width, use-before-def, misplaced control, hanging
loops -- and checks the verifier rejects each with a message naming the
problem; the seeded-pass tests go further and prove that a buggy
optimisation pass is caught by ``run_passes`` with the pass's *name* in
the error.  The *property* half generates random well-formed, trap-free
IR and checks every default pass preserves both verifier-cleanliness
and bit-exact execution semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine.control import PipelineControl
from repro.machine.state import ProcessorState
from repro.simcc import ir, verify
from repro.simcc.verify import IRVerificationError, verify_function


def _func(*ops):
    return ir.IRFunction(name="t", ops=tuple(ops))


def _verify(model, *ops, context=""):
    return verify_function(_func(*ops), model, context=context)


ACC = dict(width=16, signed=True)  # testmodel: REGISTER int16 ACC


class TestValueRules:
    def test_bool_const_rejected(self, testmodel):
        with pytest.raises(IRVerificationError, match="non-integer"):
            _verify(testmodel, ir.Eval(ir.Const(True)))

    def test_unknown_unary_op(self, testmodel):
        with pytest.raises(IRVerificationError, match="unknown unary"):
            _verify(testmodel, ir.Eval(ir.Unary("abs", ir.Const(1))))

    def test_unknown_alu_op(self, testmodel):
        with pytest.raises(IRVerificationError, match="unknown ALU"):
            _verify(testmodel,
                    ir.Eval(ir.Alu("**", ir.Const(2), ir.Const(3))))

    def test_unknown_intrinsic(self, testmodel):
        with pytest.raises(IRVerificationError, match="unknown intrinsic"):
            _verify(testmodel,
                    ir.Eval(ir.Intrinsic("popcount", (ir.Const(1),))))

    def test_intrinsic_arity(self, testmodel):
        with pytest.raises(IRVerificationError, match="takes 2 argument"):
            _verify(testmodel,
                    ir.Eval(ir.Intrinsic("sext", (ir.Const(1),))))

    def test_extension_width_must_be_constant(self, testmodel):
        with pytest.raises(IRVerificationError, match="constant width"):
            _verify(testmodel, ir.Eval(
                ir.Intrinsic("zext", (ir.Const(1), ir.ReadReg("ACC")))
            ))

    def test_extension_width_range(self, testmodel):
        with pytest.raises(IRVerificationError, match="constant width"):
            _verify(testmodel, ir.Eval(
                ir.Intrinsic("sat", (ir.Const(1), ir.Const(99)))
            ))


class TestResourceRules:
    def test_unknown_register(self, testmodel):
        with pytest.raises(IRVerificationError, match="unknown register"):
            _verify(testmodel, ir.Eval(ir.ReadReg("NOPE")))

    def test_scalar_read_of_register_file(self, testmodel):
        with pytest.raises(IRVerificationError, match="register file"):
            _verify(testmodel, ir.Eval(ir.ReadReg("R")))

    def test_element_read_of_scalar(self, testmodel):
        with pytest.raises(IRVerificationError, match="scalar register"):
            _verify(testmodel, ir.Eval(ir.ReadElem("ACC", ir.Const(0))))

    def test_element_write_of_unknown_resource(self, testmodel):
        with pytest.raises(IRVerificationError, match="unknown resource"):
            _verify(testmodel, ir.WriteElem(
                "ghost", ir.Const(0), ir.Const(1), width=16, signed=False,
            ))


class TestWidthRules:
    def test_wrong_width_rejected(self, testmodel):
        with pytest.raises(IRVerificationError, match="width 8"):
            _verify(testmodel, ir.WriteReg(
                "ACC", ir.Const(1), width=8, signed=True,
            ))

    def test_wrong_signedness_rejected(self, testmodel):
        with pytest.raises(IRVerificationError, match="unsigned"):
            _verify(testmodel, ir.WriteReg(
                "ACC", ir.Const(1), width=16, signed=False,
            ))

    def test_declared_and_raw_widths_accepted(self, testmodel):
        _verify(testmodel, ir.WriteReg("ACC", ir.Const(1), **ACC))
        _verify(testmodel, ir.WriteReg("ACC", ir.Const(1), width=None))


class TestDefiniteAssignment:
    def test_read_before_def(self, testmodel):
        with pytest.raises(IRVerificationError, match="before assignment"):
            _verify(testmodel,
                    ir.WriteReg("ACC", ir.ReadLocal("x"), **ACC))

    def test_def_then_read(self, testmodel):
        _verify(testmodel,
                ir.WriteLocal("x", ir.Const(2)),
                ir.WriteReg("ACC", ir.ReadLocal("x"), **ACC))

    def test_one_sided_guard_definition_is_not_definite(self, testmodel):
        with pytest.raises(IRVerificationError, match="before assignment"):
            _verify(
                testmodel,
                ir.Guard(ir.ReadReg("ACC"),
                         (ir.WriteLocal("x", ir.Const(1)),)),
                ir.WriteReg("ACC", ir.ReadLocal("x"), **ACC),
            )

    def test_both_sided_guard_definition_is_definite(self, testmodel):
        _verify(
            testmodel,
            ir.Guard(ir.ReadReg("ACC"),
                     (ir.WriteLocal("x", ir.Const(1)),),
                     (ir.WriteLocal("x", ir.Const(2)),)),
            ir.WriteReg("ACC", ir.ReadLocal("x"), **ACC),
        )

    def test_loop_body_definition_is_not_definite(self, testmodel):
        with pytest.raises(IRVerificationError, match="before assignment"):
            _verify(
                testmodel,
                ir.Loop(ir.ReadReg("ACC"),
                        (ir.WriteLocal("x", ir.Const(1)),
                         ir.WriteReg("ACC", ir.Const(0), width=None))),
                ir.WriteReg("ACC", ir.ReadLocal("x"), **ACC),
            )


class TestControlRules:
    def test_unknown_method(self, testmodel):
        with pytest.raises(IRVerificationError, match="unknown control"):
            _verify(testmodel, ir.Control("request_panic", ()))

    def test_wrong_arity(self, testmodel):
        with pytest.raises(IRVerificationError, match="1 argument"):
            _verify(testmodel, ir.Control("request_stall", ()))
        with pytest.raises(IRVerificationError, match="0 argument"):
            _verify(testmodel,
                    ir.Control("request_halt", (ir.Const(1),)))


class TestLoopRules:
    def test_constant_true_condition(self, testmodel):
        with pytest.raises(IRVerificationError, match="constant true"):
            _verify(testmodel, ir.Loop(ir.Const(1), ()))

    def test_constant_false_condition_is_fine(self, testmodel):
        _verify(testmodel, ir.Loop(
            ir.Const(0), (ir.WriteReg("ACC", ir.Const(1), **ACC),)
        ))

    def test_invariant_condition(self, testmodel):
        # The body only touches R; nothing can change ACC, and nothing
        # can trap out of the loop.
        with pytest.raises(IRVerificationError, match="invariant"):
            _verify(testmodel, ir.Loop(
                ir.ReadReg("ACC"),
                (ir.WriteElem("R", ir.Const(0), ir.Const(1),
                              width=32, signed=True),),
            ))

    def test_body_writing_the_condition_is_fine(self, testmodel):
        _verify(testmodel, ir.Loop(
            ir.ReadReg("ACC"),
            (ir.WriteReg(
                "ACC", ir.Alu("-", ir.ReadReg("ACC"), ir.Const(1)), **ACC
            ),),
        ))

    def test_trap_capable_body_is_fine(self, testmodel):
        # Division can fault, so the loop has a run-time exit.
        _verify(testmodel, ir.Loop(
            ir.ReadReg("ACC"),
            (ir.WriteElem(
                "R", ir.Const(0),
                ir.Alu("/", ir.Const(8), ir.ReadElem("R", ir.Const(1))),
                width=32, signed=True,
            ),),
        ))


class TestEnableState:
    def test_default_override_round_trips(self):
        previous = verify.set_verify_default(False)
        try:
            assert previous is True  # the suite-wide autouse fixture
            assert not verify.enabled()
            assert verify.set_verify_default(True) is False
            assert verify.enabled()
        finally:
            verify.set_verify_default(previous)

    def test_environment_variable(self, monkeypatch):
        previous = verify.set_verify_default(None)
        try:
            monkeypatch.delenv("REPRO_VERIFY_IR", raising=False)
            assert not verify.enabled()
            monkeypatch.setenv("REPRO_VERIFY_IR", "0")
            assert not verify.enabled()
            monkeypatch.setenv("REPRO_VERIFY_IR", "1")
            assert verify.enabled()
        finally:
            verify.set_verify_default(previous)

    def test_cli_flag_enables_verification(self, tmp_path, capsys):
        from repro.apps import build_fir
        from repro.cli import sim_main

        previous = verify.set_verify_default(None)
        try:
            app = build_fir("tinydsp", taps=4, samples=8)
            asm = tmp_path / "fir.asm"
            asm.write_text(app.source)
            rc = sim_main(["tinydsp", str(asm), "--verify-ir"])
            assert rc == 0
            assert verify.enabled()
        finally:
            verify.set_verify_default(previous)
        capsys.readouterr()


# -- seeded pass bugs ---------------------------------------------------------


def _bug_wrong_width(func, model, stats):
    """A 'canonicalisation' pass that rewrites widths to a wrong value."""
    func.ops = tuple(
        ir.WriteReg(op.name, op.value, width=8, signed=op.signed)
        if isinstance(op, ir.WriteReg) and op.width is not None
        else op
        for op in func.ops
    )
    return func


def _bug_drop_definition(func, model, stats):
    """An over-eager 'DCE' that deletes every local definition."""
    func.ops = tuple(
        op for op in func.ops if not isinstance(op, ir.WriteLocal)
    )
    return func


def _bug_misplace_control(func, model, stats):
    """A pass that mangles control requests into an unknown method."""
    func.ops = tuple(
        ir.Control("request_warp", op.args)
        if isinstance(op, ir.Control) else op
        for op in func.ops
    )
    return func


class TestSeededPassBugs:
    """run_passes must catch each seeded bug and name the pass."""

    def _input(self):
        return _func(
            ir.WriteLocal("x", ir.Alu("+", ir.ReadReg("ACC"), ir.Const(1))),
            ir.WriteReg("ACC", ir.ReadLocal("x"), **ACC),
            ir.Control("request_halt", ()),
        )

    @pytest.mark.parametrize("buggy_pass,detail", [
        (_bug_wrong_width, "width 8"),
        (_bug_drop_definition, "before assignment"),
        (_bug_misplace_control, "unknown control"),
    ])
    def test_bug_caught_and_attributed(self, testmodel, buggy_pass, detail):
        with pytest.raises(IRVerificationError) as excinfo:
            ir.run_passes(self._input(), testmodel,
                          passes=(ir.fold_constants, buggy_pass))
        message = str(excinfo.value)
        assert "after %s" % buggy_pass.__name__ in message
        assert detail in message

    def test_healthy_passes_stay_clean(self, testmodel):
        func = ir.run_passes(self._input(), testmodel)
        verify_function(func, testmodel)

    def test_malformed_input_blamed_on_pre_pass(self, testmodel):
        bad = _func(ir.WriteReg("ACC", ir.ReadLocal("ghost"), **ACC))
        with pytest.raises(IRVerificationError, match="pre-pass"):
            ir.run_passes(bad, testmodel)

    def test_disabled_verifier_lets_bugs_through(self, testmodel):
        """Without verification the same bug miscompiles silently --
        the reason the suite runs with it enabled."""
        previous = verify.set_verify_default(False)
        try:
            func = ir.run_passes(
                self._input(), testmodel,
                passes=(ir.fold_constants, _bug_wrong_width),
            )
        finally:
            verify.set_verify_default(previous)
        with pytest.raises(IRVerificationError):
            verify_function(func, testmodel)


# -- pass-pipeline property: cleanliness and semantics preserved --------------

# Trap-free value grammar over the testmodel: no division, modulo or
# shifts (those may fault or explode), element indices constant and in
# range.  ``a`` and ``b`` are locals defined by the prelude.
_GLOBAL_LEAVES = st.one_of(
    st.integers(min_value=-128, max_value=127).map(ir.Const),
    st.just(ir.ReadReg("ACC")),
    st.integers(min_value=0, max_value=7).map(
        lambda i: ir.ReadElem("R", ir.Const(i))
    ),
)

_LEAVES = st.one_of(
    _GLOBAL_LEAVES,
    st.sampled_from(["a", "b"]).map(ir.ReadLocal),
)


def _extend(children):
    return st.one_of(
        st.tuples(
            st.sampled_from(["+", "-", "*", "&", "|", "^", "==", "<", "&&"]),
            children, children,
        ).map(lambda t: ir.Alu(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["-", "~", "!"]), children).map(
            lambda t: ir.Unary(t[0], t[1])
        ),
        st.tuples(children, children, children).map(
            lambda t: ir.Select(t[0], t[1], t[2])
        ),
        st.tuples(children, st.integers(min_value=1, max_value=16)).map(
            lambda t: ir.Intrinsic("sext", (t[0], ir.Const(t[1])))
        ),
    )


_VALUES = st.recursive(_LEAVES, _extend, max_leaves=6)

# Prelude values must not read locals: they *define* the locals.
_PRELUDE_VALUES = st.recursive(_GLOBAL_LEAVES, _extend, max_leaves=6)

_WRITES = st.one_of(
    _VALUES.map(lambda v: ir.WriteReg("ACC", v, width=16, signed=True)),
    st.tuples(st.integers(min_value=0, max_value=7), _VALUES).map(
        lambda t: ir.WriteElem("R", ir.Const(t[0]), t[1],
                               width=32, signed=True)
    ),
    st.tuples(st.integers(min_value=0, max_value=63), _VALUES).map(
        lambda t: ir.WriteElem("dmem", ir.Const(t[0]), t[1],
                               width=32, signed=True)
    ),
    st.tuples(st.sampled_from(["a", "b"]), _VALUES).map(
        lambda t: ir.WriteLocal(t[0], t[1])
    ),
)

_OPS = st.one_of(
    _WRITES,
    st.tuples(_VALUES, st.lists(_WRITES, max_size=2),
              st.lists(_WRITES, max_size=2)).map(
        lambda t: ir.Guard(t[0], tuple(t[1]), tuple(t[2]))
    ),
)

_FUNCTIONS = st.tuples(_PRELUDE_VALUES, _PRELUDE_VALUES,
                       st.lists(_OPS, max_size=6)).map(
    lambda t: _func(ir.WriteLocal("a", t[0]), ir.WriteLocal("b", t[1]),
                    *t[2])
)


def _execute(func, model):
    """Run ``func`` on a fresh state; returns the state snapshot."""
    state = ProcessorState(model)
    control = PipelineControl()
    state.ACC = 5
    for i in range(8):
        state.R[i] = i * 3 - 7
    ir.compile_function(func, state, control)()
    return state.snapshot()


class TestPassProperties:
    @given(func=_FUNCTIONS)
    def test_each_pass_preserves_cleanliness_and_semantics(
        self, testmodel, func
    ):
        verify_function(func, testmodel, context="generated")
        reference = _execute(
            ir.IRFunction(name=func.name, ops=func.ops), testmodel
        )
        current_ops = func.ops
        for pipeline_pass in ir.DEFAULT_PASSES:
            staged = ir.IRFunction(name=func.name, ops=current_ops)
            staged = pipeline_pass(staged, testmodel, ir.PassStats())
            verify_function(
                staged, testmodel,
                context="after %s" % pipeline_pass.__name__,
            )
            assert _execute(
                ir.IRFunction(name=staged.name, ops=staged.ops,
                              helpers=staged.helpers),
                testmodel,
            ) == reference
            current_ops = staged.ops

    @given(func=_FUNCTIONS)
    def test_full_pipeline_preserves_semantics(self, testmodel, func):
        reference = _execute(
            ir.IRFunction(name=func.name, ops=func.ops), testmodel
        )
        optimized = ir.run_passes(func, testmodel)  # verifies at each step
        assert _execute(optimized, testmodel) == reference
