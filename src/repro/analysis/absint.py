"""Abstract interpretation over SimIR: intervals and known bits.

The fast paths of this code base rest on facts about run-time values:
the native backend may only evaluate a packet in ``int64_t`` arithmetic
when every intermediate value provably fits, and a store's
canonicalisation wrap can be dropped when the stored value is provably
already canonical.  Before this module those facts were computed by
private, duplicated walkers (the old ``_fits``/``_bit_bound`` analysis
in :mod:`repro.simcc.native.cgen`).  This module is the one shared
analysis they all consume.

Two abstract domains, combined as a reduced product:

* **Intervals**: every value is tracked as ``[lo, hi]`` with ``None``
  standing for an unbounded end.  Transfer functions mirror the
  concrete semantics of :mod:`repro.simcc.ir` (C-style truncating
  division, arithmetic shifts, 0/1 comparison results).
* **Known bits**: for provably non-negative values, a superset mask of
  the bits that may be set.  ``&``/``|``/``^``/shifts/``zext`` refine
  it, and the mask sharpens the interval upper bound -- e.g.
  ``(a & 0xF0) | (b & 0x0F)`` proves ``[0, 255]`` even when ``a`` and
  ``b`` are unbounded locals, which the interval domain alone cannot.

:func:`analyze_packet` runs both domains over one packet's per-stage IR
and produces a :class:`PacketProof`: the nativisability verdict (the
exact admission rule the old cgen analysis implemented), resource
read/write sets, per-resource intervals of every stored value
(validated against concrete execution by the test suite), and any
provably-trapping operations (surfaced by ``repro-lint`` as ``IR002``).
Proofs serialise to marshal-compatible payloads and persist with the
cached table (:mod:`repro.simcc.cache`), so the native backend renders
from them without running the analysis again.

:func:`drop_canonical_wraps` runs the same walk over one lowered
function for the IR pass pipeline
(:func:`repro.simcc.ir.coalesce_canonicalisation`): every store whose
value is provably canonical for its declared width loses its wrap in
the IR itself, so all backends render the same raw stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.simcc import ir

#: Native values must stay within [-(2**63 - 1), 2**63 - 1]; INT64_MIN
#: is excluded so ``-x`` and ``|x|`` are always representable.
SAFE_HI = (1 << 63) - 1
SAFE_LO = -SAFE_HI

#: Pipeline-control methods the native backend can map to C helpers.
CONTROL_METHODS = ("request_flush", "request_stall", "request_halt")

_BIT_CAP = 70  # bit-width cap for bitwise-op fallback bounds


# ---------------------------------------------------------------------------
# The abstract value: interval x known bits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsVal:
    """One abstract value: ``[lo, hi]`` interval plus known bits.

    ``lo``/``hi`` are ``None`` for an unbounded end.  ``bits`` is a
    superset mask of the bits that may be set; it is only meaningful
    (non-None) when the value is provably non-negative.
    """

    lo: Optional[int]
    hi: Optional[int]
    bits: Optional[int] = None

    @property
    def bounded(self):
        return self.lo is not None and self.hi is not None

    def fits_int64(self):
        return (self.bounded
                and self.lo >= SAFE_LO and self.hi <= SAFE_HI)

    def within(self, lo, hi):
        return self.bounded and self.lo >= lo and self.hi <= hi

    def is_const(self, value):
        return self.lo == self.hi == value


def make(lo, hi, bits=None):
    """Construct a reduced :class:`AbsVal` (each domain refines the
    other: a bit mask caps the upper bound, a non-negative bounded
    interval induces a mask)."""
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo  # defensive: callers pass corner sets
    if lo is None or lo < 0:
        bits = None
    else:
        if hi is not None:
            derived = (1 << hi.bit_length()) - 1
            bits = derived if bits is None else (bits & derived)
        if bits is not None:
            if hi is None or hi > bits:
                hi = bits
    return AbsVal(lo, hi, bits)


TOP = AbsVal(None, None)


def const(value):
    return make(value, value, value if value >= 0 else None)


def _range_of(width, signed):
    if signed:
        return (-(1 << (width - 1)), (1 << (width - 1)) - 1)
    return (0, (1 << width) - 1)


def of_width(width, signed):
    lo, hi = _range_of(width, signed)
    return make(lo, hi)


def join(a, b):
    """Least upper bound of two abstract values."""
    lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
    bits = None
    if a.bits is not None and b.bits is not None:
        bits = a.bits | b.bits
    return make(lo, hi, bits)


def _corners(a, b, fn):
    if not (a.bounded and b.bounded):
        return TOP
    values = [fn(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return make(min(values), max(values))


def _bit_fallback(*vals):
    """The bitwise-operator fallback bound: a two's-complement width
    covering every operand corner (``a & b`` etc. never need more bits
    than the wider operand).  Mirrors the former cgen ``_bit_bound``."""
    bits = 1
    for val in vals:
        if not val.bounded:
            return TOP
        for value in (val.lo, val.hi):
            bits = max(bits, value.bit_length() + 1)
    lo, hi = _range_of(min(bits, _BIT_CAP), True)
    return make(lo, hi)


def transfer_unary(op, operand):
    if op == "-":
        if not operand.bounded:
            return TOP
        return make(-operand.hi, -operand.lo)
    if op == "~":
        if not operand.bounded:
            return TOP
        return make(-operand.hi - 1, -operand.lo - 1)
    return make(0, 1)  # "!"


def transfer_alu(op, a, b):
    """Abstract evaluation of one binary ALU node."""
    if op in ir._CMP_OPS or op in ir._BOOL_OPS:
        return make(0, 1)
    if op == "+":
        if not (a.bounded and b.bounded):
            return TOP
        return make(a.lo + b.lo, a.hi + b.hi)
    if op == "-":
        if not (a.bounded and b.bounded):
            return TOP
        return make(a.lo - b.hi, a.hi - b.lo)
    if op == "*":
        return _corners(a, b, lambda x, y: x * y)
    if op == "&":
        out = _bit_fallback(a, b)
        if a.bits is not None and b.bits is not None:
            return make(0, None, a.bits & b.bits)
        if a.bits is not None:
            return make(0, None, a.bits)
        if b.bits is not None:
            return make(0, None, b.bits)
        return out
    if op in ("|", "^"):
        if a.bits is not None and b.bits is not None:
            return make(0, None, a.bits | b.bits)
        return _bit_fallback(a, b)
    if op == "<<":
        if not (a.bounded and b.bounded):
            return TOP
        if b.hi > 64 and not a.is_const(0):
            return TOP  # rejected: the count may exceed what C handles
        b_min, b_max = max(b.lo, 0), max(min(b.hi, 64), 0)
        values = [x << y for x in (a.lo, a.hi) for y in (b_min, b_max)]
        bits = None
        if a.bits is not None and b.lo == b.hi and b.lo >= 0:
            bits = a.bits << b.lo
        return make(min(values), max(values), bits)
    if op == ">>":
        if not (a.bounded and b.bounded):
            return TOP
        b_min = max(b.lo, 0)
        b_max = min(max(b.hi, 0), _BIT_CAP)
        values = [x >> y for x in (a.lo, a.hi) for y in (b_min, b_max)]
        bits = None
        if a.bits is not None and b.lo == b.hi and b.lo >= 0:
            bits = a.bits >> min(b.lo, _BIT_CAP)
        return make(min(values), max(values), bits)
    if op == "/":
        if not a.bounded:
            return TOP
        magnitude = max(abs(a.lo), abs(a.hi))
        return make(-magnitude, magnitude)
    if op == "%":
        if not a.bounded:
            return TOP
        magnitude = max(abs(a.lo), abs(a.hi))
        if b.bounded:
            magnitude = min(magnitude, max(abs(b.lo), abs(b.hi)))
        return make(-magnitude, magnitude)
    return TOP


# ---------------------------------------------------------------------------
# Per-packet analysis
# ---------------------------------------------------------------------------


@dataclass
class PacketProof:
    """Per-packet facts proven by abstract interpretation.

    ``native`` is the int64-safety verdict the native backend gates on
    (``reason`` names the first failure, a run-time loop or a store
    into program memory among them).  ``reads``/``writes`` are the
    resource names touched.  ``cells`` maps each written resource to
    the joined ``(lo, hi)`` interval of every value stored into it
    (``None`` ends mean unbounded); concrete runs must stay inside it.
    ``traps`` lists provably-faulting operations.
    """

    native: bool
    reason: str = ""
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    cells: Dict[str, Tuple[Optional[int], Optional[int]]] = \
        field(default_factory=dict)
    traps: Tuple[str, ...] = ()

    def to_payload(self):
        """Marshal-compatible rendering (persisted with cached tables)."""
        return (
            1 if self.native else 0,
            self.reason,
            tuple(sorted(self.reads)),
            tuple(sorted(self.writes)),
            tuple(sorted(
                (name, lo, hi) for name, (lo, hi) in self.cells.items()
            )),
            tuple(self.traps),
        )

    @classmethod
    def from_payload(cls, payload):
        native, reason, reads, writes, cells, traps = payload
        return cls(
            native=bool(native),
            reason=str(reason),
            reads=frozenset(reads),
            writes=frozenset(writes),
            cells={str(name): (lo, hi) for name, lo, hi in cells},
            traps=tuple(traps),
        )


class _Analysis:
    """Mutable accumulator threaded through one packet walk."""

    def __init__(self, model, pmem_name):
        self.model = model
        self.pmem_name = pmem_name
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.cells: Dict[str, AbsVal] = {}
        self.traps: List[str] = []
        self.failure: Optional[str] = None

    def fail(self, reason):
        if self.failure is None:
            self.failure = reason

    def trap(self, reason):
        self.traps.append(reason)

    def record_store(self, resource, stored):
        seen = self.cells.get(resource)
        self.cells[resource] = stored if seen is None else join(seen, stored)


def _resource_dtype(model, name):
    reg = model.registers.get(name)
    if reg is not None:
        return reg.dtype
    mem = model.memories.get(name)
    if mem is not None:
        return mem.dtype
    return None


def _resource_length(model, name):
    reg = model.registers.get(name)
    if reg is not None:
        return reg.count
    mem = model.memories.get(name)
    if mem is not None:
        return mem.size
    return None


def _require_fits(fact, acc):
    """Every intermediate value of a native packet must stay inside
    signed 64-bit; reject otherwise (soundness of C evaluation)."""
    if not fact.fits_int64():
        if fact.bounded:
            acc.fail("range [%d, %d] exceeds int64" % (fact.lo, fact.hi))
        else:
            acc.fail("value range is unbounded")
    return fact


def _eval_value(value, env, acc):
    """Abstract evaluation of one value node; records reads, native
    failures and provable traps on ``acc``."""
    model = acc.model
    if isinstance(value, ir.Const):
        return _require_fits(const(value.value), acc)
    if isinstance(value, ir.ReadReg):
        dtype = _resource_dtype(model, value.name)
        if dtype is None:
            acc.fail("unknown resource %r" % value.name)
            return TOP
        acc.reads.add(value.name)
        return of_width(dtype.width, dtype.signed)
    if isinstance(value, ir.ReadElem):
        dtype = _resource_dtype(model, value.resource)
        if dtype is None:
            acc.fail("unknown resource %r" % value.resource)
            return TOP
        acc.reads.add(value.resource)
        index = _eval_value(value.index, env, acc)
        _check_index(value.resource, index, acc)
        return of_width(dtype.width, dtype.signed)
    if isinstance(value, ir.ReadLocal):
        fact = env.get(value.name)
        if fact is None:
            # Well-formed IR defines locals before use (the verifier
            # enforces it); an unknown local is simply unbounded here.
            acc.fail("local %r read before assignment" % value.name)
            return TOP
        return fact
    if isinstance(value, ir.Unary):
        operand = _eval_value(value.operand, env, acc)
        return _require_fits(transfer_unary(value.op, operand), acc)
    if isinstance(value, ir.Alu):
        return _eval_alu(value, env, acc)
    if isinstance(value, ir.Intrinsic):
        return _eval_intrinsic(value, env, acc)
    if isinstance(value, ir.Select):
        _eval_value(value.cond, env, acc)
        if_true = _eval_value(value.if_true, env, acc)
        if_false = _eval_value(value.if_false, env, acc)
        return join(if_true, if_false)
    acc.fail("unsupported value node %r" % type(value).__name__)
    return TOP


def _check_index(resource, index, acc):
    length = _resource_length(acc.model, resource)
    if length is None or not index.bounded:
        return
    # Python list indexing wraps once: valid indices are [-length, length).
    if index.hi < -length or index.lo >= length:
        acc.trap(
            "index [%d, %d] is always outside %s[%d]"
            % (index.lo, index.hi, resource, length)
        )


def _eval_alu(value, env, acc):
    a = _eval_value(value.left, env, acc)
    b = _eval_value(value.right, env, acc)
    op = value.op
    if op not in ir._ALU_OPS:
        acc.fail("unsupported ALU op %r" % op)
        return TOP
    if op in ("/", "%") and b.is_const(0):
        acc.trap("division by a divisor that is always zero")
    if op in ("<<", ">>") and b.hi is not None and b.hi < 0:
        acc.trap("shift count is always negative")
    if op == "<<" and b.bounded and b.hi > 64 and not a.is_const(0):
        acc.fail("shift count may exceed 64")
        return TOP
    fact = transfer_alu(op, a, b)
    return _require_fits(fact, acc)


def _eval_intrinsic(value, env, acc):
    args = [_eval_value(arg, env, acc) for arg in value.args]
    name = value.name
    if name in ("sext", "zext", "sat"):
        if len(value.args) != 2 or not isinstance(value.args[1], ir.Const):
            acc.fail("%s needs a constant width" % name)
            return TOP
        width = value.args[1].value
        if not 1 <= width <= 64:
            acc.fail("%s width %r out of range" % (name, width))
            return TOP
        if name == "zext":
            out = of_width(width, False)
        else:
            out = of_width(width, True)
        # A no-op extension passes its (possibly tighter) input through.
        if args[0].within(out.lo, out.hi):
            return args[0]
        return out
    if name == "abs" and len(value.args) == 1:
        operand = args[0]
        if not operand.bounded:
            return make(0, None)
        lo = (0 if operand.lo <= 0 <= operand.hi
              else min(abs(operand.lo), abs(operand.hi)))
        return make(lo, max(abs(operand.lo), abs(operand.hi)))
    if name in ("min", "max") and len(value.args) == 2:
        a, b = args
        if not (a.bounded and b.bounded):
            return TOP
        if name == "min":
            return make(min(a.lo, b.lo), min(a.hi, b.hi))
        return make(max(a.lo, b.lo), max(a.hi, b.hi))
    acc.fail("unsupported intrinsic %r" % name)
    return TOP


def _stored_fact(op, value_fact):
    """The abstract value a write actually stores: canonicalisation
    wraps out-of-range values onto the full declared range."""
    if op.width is None:
        return value_fact
    lo, hi = _range_of(op.width, op.signed)
    if value_fact.within(lo, hi):
        return value_fact
    return make(lo, hi)


def _exec_store(op, env, acc):
    """Abstract execution of one resource write.  Returns the write
    raw (``width=None``) when its value is provably canonical already,
    else the write itself."""
    if isinstance(op, ir.WriteElem):
        resource = op.resource
        if resource == acc.pmem_name:
            acc.fail("writes program memory (guard must observe the store)")
    else:
        resource = op.name
    if _resource_dtype(acc.model, resource) is None:
        acc.fail("unknown resource %r" % resource)
        return op
    if isinstance(op, ir.WriteElem):
        index = _eval_value(op.index, env, acc)
        _check_index(resource, index, acc)
    fact = _eval_value(op.value, env, acc)
    acc.writes.add(resource)
    stored = _stored_fact(op, fact)
    acc.record_store(resource, stored)
    if op.width is not None and stored is fact:
        return replace(op, width=None, signed=False)
    return op


def _exec_ops(ops, env, acc):
    """Abstract execution of one micro-op sequence, updating ``env``
    (local name -> :class:`AbsVal`) in place.

    Returns ``ops`` with every store whose value is provably canonical
    already turned raw (``width=None``).  Stores inside a run-time loop
    keep their wrap: the loop body is summarised, not executed.
    """
    out = []
    for op in ops:
        if isinstance(op, (ir.WriteReg, ir.WriteElem)):
            op = _exec_store(op, env, acc)
        elif isinstance(op, ir.WriteLocal):
            env[op.name] = _eval_value(op.value, env, acc)
        elif isinstance(op, ir.Control):
            if op.method not in CONTROL_METHODS:
                acc.fail("unsupported control %r" % op.method)
            for arg in op.args:
                _eval_value(arg, env, acc)
        elif isinstance(op, ir.Guard):
            _eval_value(op.cond, env, acc)
            then_env = dict(env)
            else_env = dict(env)
            then_ops = _exec_ops(op.then_ops, then_env, acc)
            else_ops = _exec_ops(op.else_ops, else_env, acc)
            merged = {}
            for name in then_env:
                if name in else_env:
                    merged[name] = join(then_env[name], else_env[name])
            env.clear()
            env.update(merged)
            if (then_ops, else_ops) != (op.then_ops, op.else_ops):
                op = ir.Guard(op.cond, then_ops, else_ops)
        elif isinstance(op, ir.Loop):
            acc.fail("contains a run-time loop")
            _eval_value(op.cond, env, acc)
            _widen_loop_body(op.body, env, acc)
        elif isinstance(op, ir.Eval):
            _eval_value(op.value, env, acc)
        else:
            acc.fail("unsupported op %r" % type(op).__name__)
        out.append(op)
    return tuple(out)


def _widen_loop_body(body, env, acc):
    """Sound summary of a loop body without iterating: everything the
    body may write goes to TOP, reads/stores are still recorded."""
    for op in ir.walk_ops(body):
        if isinstance(op, ir.WriteLocal):
            env[op.name] = TOP
        elif isinstance(op, ir.WriteReg):
            acc.writes.add(op.name)
            acc.record_store(op.name, TOP)
        elif isinstance(op, ir.WriteElem):
            if op.resource == acc.pmem_name:
                acc.fail(
                    "writes program memory (guard must observe the store)"
                )
            acc.writes.add(op.resource)
            acc.record_store(op.resource, TOP)
        for value in ir.op_values(op):
            for node in ir.walk_values(value):
                if isinstance(node, ir.ReadReg):
                    acc.reads.add(node.name)
                elif isinstance(node, ir.ReadElem):
                    acc.reads.add(node.resource)


def analyze_packet(funcs_by_stage, model, pmem_name):
    """Abstractly interpret one packet's per-stage IR functions.

    Returns a :class:`PacketProof`.  The nativisability verdict
    reproduces the admission rule of the retired cgen-private analysis
    (every intermediate value provably within signed 64-bit, no run-time
    loops, no program-memory stores, only mappable control requests) --
    with the known-bits refinement it can only admit *more* packets,
    never fewer.
    """
    acc = _Analysis(model, pmem_name)
    for stage_funcs in funcs_by_stage:
        for func in stage_funcs:
            _exec_ops(func.ops, {}, acc)
    return PacketProof(
        native=acc.failure is None,
        reason=acc.failure or "",
        reads=frozenset(acc.reads),
        writes=frozenset(acc.writes),
        cells={
            name: (fact.lo, fact.hi)
            for name, fact in sorted(acc.cells.items())
        },
        traps=tuple(acc.traps),
    )


def drop_canonical_wraps(ops, model):
    """``ops`` (one lowered function's micro-ops) with the wrap dropped
    from every store whose value is provably canonical for its declared
    width already: such a store becomes raw (``width=None``).

    Each function starts from an empty local environment and reads
    resources at their declared range, exactly as :func:`analyze_packet`
    walks it, so the packet proofs of the rewritten IR are unchanged.
    """
    return _exec_ops(ops, {}, _Analysis(model, None))


# ---------------------------------------------------------------------------
# IR-level lint diagnostics (repro-lint)
# ---------------------------------------------------------------------------


def _insn_pc(name):
    # Lowered function names are "insn_%x_stage_%d" (portable tables).
    try:
        return int(name.split("_")[1], 16)
    except (IndexError, ValueError):
        return None


def check_ir(model, program, report, observer=None):
    """IR-level diagnostics over one program's lowered IR.

    Adds ``ir.trap`` warnings (IR002) for operations the abstract
    interpreter proves always fault, and ``ir.dead-write`` notes
    (IR003) for dead writes that survived elimination only for trap
    parity.  Lowers the program through the normal portable-table
    pipeline, so what is linted is exactly what executes.
    """
    from repro.simcc.portable import build_portable_table
    from repro.support.errors import ReproError

    try:
        table = build_portable_table(
            model, program, level="instantiated", observer=observer
        )
    except ReproError:
        # The program cannot be fully lowered (behaviour outside the
        # lowering subset, ...).  Undecodable words do not get here:
        # they become trap packets with no IR, which the hazard pass
        # marks ``unknown``.
        return report
    pmem_name = model.config.program_memory
    by_pc = {}
    for func in table.functions:
        pc = _insn_pc(func.name)
        if pc is not None:
            by_pc.setdefault(pc, []).append(func)
    for pc in sorted(by_pc):
        funcs = by_pc[pc]
        proof = analyze_packet([funcs], model, pmem_name)
        for trap in proof.traps:
            report.add("warning", pc, "ir.trap",
                       "operation provably traps: %s" % trap)
        for func in funcs:
            for i, trap_free in ir.dead_writes(func.ops):
                if trap_free:
                    continue  # dead only since a removal: not kept for parity
                op = func.ops[i]
                target = (op.resource if isinstance(op, ir.WriteElem)
                          else op.name)
                report.add(
                    "note", pc, "ir.dead-write",
                    "dead write to %s survives elimination (its value may "
                    "fault, so removing it would change trap behaviour)"
                    % target,
                )
    return report


def proofs_to_payload(proofs):
    return {pc: proof.to_payload() for pc, proof in proofs.items()}


def proofs_from_payload(payload):
    if payload is None:
        return None
    return {
        int(pc): PacketProof.from_payload(proof)
        for pc, proof in payload.items()
    }


__all__ = [
    "SAFE_HI",
    "SAFE_LO",
    "CONTROL_METHODS",
    "AbsVal",
    "TOP",
    "make",
    "const",
    "of_width",
    "join",
    "transfer_unary",
    "transfer_alu",
    "PacketProof",
    "analyze_packet",
    "check_ir",
    "drop_canonical_wraps",
    "proofs_to_payload",
    "proofs_from_payload",
]
