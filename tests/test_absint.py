"""Tests for the abstract-interpretation framework over SimIR.

Three layers of guarantees:

* *Domain correctness* -- unit tests over the interval and known-bits
  transfer functions, including the reduced-product refinement the
  interval domain alone cannot prove (``(a & 0xF0) | (b & 0x0F)`` is
  ``[0, 255]`` for unbounded ``a``/``b``).
* *Proof persistence* -- :class:`PacketProof` payload round-trips,
  proofs ride the portable table through serialisation and ``bind``.
* *Soundness against reality* -- for every application x model pair and
  every backend (exec, emitted module, native bursts), the observed
  final value of each proof-annotated resource stays within the proven
  interval; and the native-admission verdict matches the structural
  expectation (everything admitted except run-time loops and
  program-memory stores), so replacing the old cgen-private analysis
  lost no native coverage.
"""

from __future__ import annotations

import marshal

import pytest

from repro.analysis import absint
from repro.analysis.absint import (
    TOP,
    PacketProof,
    analyze_packet,
    const,
    join,
    make,
    of_width,
    transfer_alu,
    transfer_unary,
)
from repro.apps import build_adpcm, build_fir, build_gsm
from repro.bench import load_app_program
from repro.machine.control import PipelineControl
from repro.machine.driver import Pipeline
from repro.machine.state import ProcessorState
from repro.sim import create_simulator
from repro.simcc import ir
from repro.simcc.emit import emit_simulator_module
from repro.simcc.native import native_available
from repro.simcc.portable import PortableTable, build_portable_table

APP_MATRIX = [
    ("fir-c62x", lambda: build_fir("c62x", taps=4, samples=8)),
    ("fir-c54x", lambda: build_fir("c54x", taps=4, samples=8)),
    ("fir-tinydsp", lambda: build_fir("tinydsp", taps=4, samples=8)),
    ("adpcm-c62x", lambda: build_adpcm(samples=16)),
    ("gsm-c62x", lambda: build_gsm(target_words=1024)),
]

app_matrix = pytest.mark.parametrize(
    "builder", [entry[1] for entry in APP_MATRIX],
    ids=[entry[0] for entry in APP_MATRIX],
)


# -- the abstract domains -----------------------------------------------------


class TestAbsVal:
    def test_const(self):
        assert const(5).is_const(5)
        assert const(5).bits == 5
        assert const(-3).bits is None  # bits only for non-negative values
        assert const(-3).bounded

    def test_of_width(self):
        assert of_width(16, True) == make(-32768, 32767)
        fact = of_width(8, False)
        assert fact.within(0, 255)
        assert fact.bits == 0xFF

    def test_join(self):
        assert join(const(1), const(5)).within(1, 5)
        assert join(const(1), TOP) == TOP
        assert not join(make(0, 4), make(None, 9)).bounded

    def test_make_reduces_interval_onto_bits(self):
        # A non-negative bounded interval induces a bit mask ...
        assert make(0, 5).bits == 7
        # ... and a mask caps an unbounded upper end.
        assert make(0, None, 0xF0).hi == 0xF0

    def test_fits_int64(self):
        assert const(absint.SAFE_HI).fits_int64()
        assert not make(0, absint.SAFE_HI + 1).fits_int64()
        assert not TOP.fits_int64()


class TestTransferFunctions:
    def test_addition_endpoints(self):
        assert transfer_alu("+", make(1, 3), make(10, 20)).within(11, 23)
        assert transfer_alu("+", TOP, const(1)) == TOP

    def test_comparison_is_boolean(self):
        assert transfer_alu("==", TOP, TOP).within(0, 1)
        assert transfer_alu("&&", TOP, TOP).within(0, 1)

    def test_known_bits_beat_intervals(self):
        # Unbounded operands: the interval domain alone proves nothing,
        # the known-bits product proves [0, 255].
        high = transfer_alu("&", TOP, const(0xF0))
        low = transfer_alu("&", TOP, const(0x0F))
        packed = transfer_alu("|", high, low)
        assert packed.within(0, 255)
        assert packed.bits == 0xFF

    def test_shift_of_masked_value(self):
        masked = transfer_alu("&", TOP, const(0x0F))
        shifted = transfer_alu("<<", masked, const(4))
        assert shifted.within(0, 0xF0)
        assert shifted.bits == 0xF0

    def test_constant_shift(self):
        assert transfer_alu("<<", const(3), const(2)).is_const(12)
        assert transfer_alu(">>", const(-8), const(1)).is_const(-4)

    def test_oversized_shift_rejected(self):
        assert transfer_alu("<<", const(1), make(0, 65)) == TOP

    def test_division_bounded_by_dividend(self):
        assert transfer_alu("/", make(-10, 10), TOP).within(-10, 10)
        assert transfer_alu("%", TOP, const(7)) == TOP  # unbounded dividend

    def test_unary(self):
        assert transfer_unary("-", make(2, 5)).within(-5, -2)
        assert transfer_unary("~", make(0, 3)).within(-4, -1)
        assert transfer_unary("!", TOP).within(0, 1)


# -- packet analysis ----------------------------------------------------------


def _packet(testmodel, *ops):
    func = ir.IRFunction(name="t", ops=tuple(ops))
    return analyze_packet([[func]], testmodel, "pmem")


def _passed(testmodel, *ops):
    """``ops`` after the IR pass pipeline."""
    func = ir.IRFunction(name="t", ops=tuple(ops))
    return ir.run_passes(func, testmodel).ops


class TestAnalyzePacket:
    def test_clean_packet_is_native_with_cells(self, testmodel):
        proof = _packet(
            testmodel,
            ir.WriteReg("ACC", ir.Const(5), width=16, signed=True),
            ir.WriteElem("dmem", ir.Const(3), ir.ReadReg("ACC"),
                         width=32, signed=True),
        )
        assert proof.native
        assert proof.reason == ""
        assert proof.writes == {"ACC", "dmem"}
        assert proof.reads == {"ACC"}
        assert proof.cells["ACC"] == (5, 5)
        lo, hi = proof.cells["dmem"]
        assert lo >= -32768 and hi <= 32767  # ACC's declared range

    def test_program_memory_store_rejected(self, testmodel):
        proof = _packet(
            testmodel,
            ir.WriteElem("pmem", ir.Const(0), ir.Const(1),
                         width=16, signed=False),
        )
        assert not proof.native
        assert "program memory" in proof.reason
        assert "pmem" in proof.writes

    def test_loop_rejected_but_summarised(self, testmodel):
        proof = _packet(
            testmodel,
            ir.Loop(ir.ReadReg("ACC"),
                    (ir.WriteElem("dmem", ir.Const(0),
                                  ir.ReadElem("R", ir.Const(1)),
                                  width=32, signed=True),)),
        )
        assert not proof.native
        assert "loop" in proof.reason
        # The widened body still contributes read/write facts.
        assert "dmem" in proof.writes
        assert "R" in proof.reads

    def test_provable_traps_recorded(self, testmodel):
        proof = _packet(
            testmodel,
            ir.Eval(ir.Alu("/", ir.ReadReg("ACC"), ir.Const(0))),
            ir.WriteElem("dmem", ir.Const(99), ir.Const(1),
                         width=32, signed=True),
        )
        assert len(proof.traps) == 2
        assert any("zero" in trap for trap in proof.traps)
        assert any("outside" in trap for trap in proof.traps)

    def test_canonical_store_is_raw(self, testmodel):
        """The pass pipeline asks absint: ``ACC >> 8`` of a 16-bit
        signed ``ACC`` already fits, so the store loses its wrap in the
        IR itself, for every backend."""
        (write,) = _passed(
            testmodel,
            ir.WriteReg("ACC", ir.Alu(">>", ir.ReadReg("ACC"), ir.Const(8)),
                        width=16, signed=True),
        )
        assert write.width is None and not write.signed
        proof = _packet(testmodel, write)
        assert proof.cells["ACC"] == (-128, 127)

    def test_wrapping_store_keeps_its_mask(self, testmodel):
        (write,) = _passed(
            testmodel,
            ir.WriteReg("ACC", ir.Alu("*", ir.ReadReg("ACC"),
                                      ir.ReadReg("ACC")),
                        width=16, signed=True),
        )
        assert (write.width, write.signed) == (16, True)
        proof = _packet(testmodel, write)
        assert proof.cells["ACC"] == (-32768, 32767)


class TestProofPayload:
    def _proof(self, testmodel):
        return _packet(
            testmodel,
            ir.WriteReg("ACC", ir.Const(5), width=16, signed=True),
            ir.Eval(ir.Alu("/", ir.Const(1), ir.Const(0))),
        )

    def test_round_trip(self, testmodel):
        proof = self._proof(testmodel)
        clone = PacketProof.from_payload(proof.to_payload())
        assert clone == proof

    def test_marshal_compatible(self, testmodel):
        payload = self._proof(testmodel).to_payload()
        assert marshal.loads(marshal.dumps(payload)) == payload

    def test_proofs_payload_round_trip(self, testmodel):
        proofs = {0: self._proof(testmodel)}
        clone = absint.proofs_from_payload(absint.proofs_to_payload(proofs))
        assert clone == proofs
        assert absint.proofs_from_payload(None) is None


# -- proofs through the portable table ---------------------------------------


class TestTableProofs:
    @pytest.fixture(scope="class")
    def portable(self, testmodel, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text("""
        ldi r1, 21
        add r2, r1, r1
        st r2, 7
        halt
        """)
        return build_portable_table(testmodel, program,
                                    level="instantiated")

    def test_portable_table_carries_proofs(self, portable):
        assert portable.proofs
        assert set(portable.proofs) == set(portable.table_spec)
        assert all(isinstance(proof, PacketProof)
                   for proof in portable.proofs.values())

    def test_proofs_survive_payload(self, portable):
        clone = PortableTable.from_payload(portable.to_payload())
        assert clone.proofs == portable.proofs

    def test_bound_table_exposes_proofs(self, testmodel, portable):
        state = ProcessorState(testmodel)
        control = PipelineControl()
        table = portable.bind(state, control)
        assert table.proofs == portable.proofs


# -- soundness over the application matrix ------------------------------------


def _expect_native(funcs_by_stage, pmem_name):
    """Structural admission expectation: only run-time loops and
    program-memory stores keep a packet off the native path."""
    for stage_funcs in funcs_by_stage:
        for func in stage_funcs:
            for op in ir.walk_ops(func.ops):
                if isinstance(op, ir.Loop):
                    return False
                if isinstance(op, ir.WriteElem) \
                        and op.resource == pmem_name:
                    return False
    return True


def _joined_cells(proofs):
    """Program-level interval per resource: the join over all packets."""
    joined = {}
    for proof in proofs.values():
        for name, (lo, hi) in proof.cells.items():
            if name in joined:
                seen_lo, seen_hi = joined[name]
                lo = None if lo is None or seen_lo is None \
                    else min(lo, seen_lo)
                hi = None if hi is None or seen_hi is None \
                    else max(hi, seen_hi)
            joined[name] = (lo, hi)
    return joined


def _resource_values(state, model, name):
    reg = model.registers.get(name)
    value = getattr(state, name)
    if reg is not None and not reg.is_file:
        return [value]
    return list(value)


def _assert_within_proofs(model, joined, initial, state, backend):
    for name, (lo, hi) in joined.items():
        if name == model.pc_name:
            continue  # the fetch driver advances the PC outside the IR
        final = _resource_values(state, model, name)
        for index, (first, now) in enumerate(zip(initial[name], final)):
            if now == first:
                continue  # never actually stored to at run time
            assert lo is None or now >= lo, (
                "%s: %s[%d] = %d below proven lo %d"
                % (backend, name, index, now, lo)
            )
            assert hi is None or now <= hi, (
                "%s: %s[%d] = %d above proven hi %d"
                % (backend, name, index, now, hi)
            )


@app_matrix
def test_native_admission_matches_structure(builder):
    """No native-coverage regression vs the retired cgen analysis: every
    packet is admitted unless it structurally cannot be (loop or
    program-memory store)."""
    model, program = load_app_program(builder())
    portable = build_portable_table(model, program, level="instantiated")
    pmem_name = model.config.program_memory
    by_name = {func.name: func for func in portable.functions}
    for pc, (per_stage, _words, _insns) in portable.table_spec.items():
        funcs = [[by_name[name] for name in names] for names in per_stage]
        expected = _expect_native(funcs, pmem_name)
        proof = portable.proofs[pc]
        assert proof.native == expected, (
            "0x%x: native=%s expected=%s (%s)"
            % (pc, proof.native, expected, proof.reason)
        )


@app_matrix
def test_concrete_runs_stay_within_proven_intervals(builder):
    """For every backend, observed run-time values of proof-annotated
    resources stay inside the proven intervals."""
    app = builder()
    model, program = load_app_program(app)
    portable = build_portable_table(model, program, level="instantiated")
    joined = _joined_cells(portable.proofs)
    assert joined  # the apps all store results

    # Backend 1: the in-process exec backend (compiled simulator).
    sim = create_simulator(model, "compiled")
    sim.load_program(program)
    initial = {name: _resource_values(sim.state, model, name)
               for name in joined}
    sim.run()
    app.verify(sim.state)
    _assert_within_proofs(model, joined, initial, sim.state, "python")

    # Backend 2: the emitted standalone module.
    source = emit_simulator_module(model, program, level="instantiated")
    namespace = {"__name__": "simir_emitted"}
    exec(compile(source, "<simir-emitted>", "exec"), namespace)
    state = ProcessorState(model)
    control = PipelineControl()
    namespace["PROGRAM"].load_into(state)
    initial = {name: _resource_values(state, model, name)
               for name in joined}
    frontend = namespace["make_frontend"](state, control)
    Pipeline(model, state, control, frontend).run_chunk(10_000_000)
    _assert_within_proofs(model, joined, initial, state, "module")

    # Backend 3: native bursts (when the host has a toolchain).
    if native_available():
        native = create_simulator(model, "unfolded_static",
                                  backend="native")
        native.load_program(program)
        initial = {name: _resource_values(native.state, model, name)
                   for name in joined}
        native.run()
        _assert_within_proofs(model, joined, initial, native.state,
                              "native")
