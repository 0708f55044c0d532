"""SimIR -> C99 rendering and the native burst driver.

Two jobs live here:

1. **Native admission.**  SimIR arithmetic is defined over unbounded
   Python integers; C works in ``int64_t``.  A packet may run natively
   only when its proof from the abstract interpreter
   (:mod:`repro.analysis.absint`), computed when the table was built
   and persisted with it (``table.proofs``), shows every intermediate
   value of every micro-op inside the signed 64-bit range
   (``INT64_MIN`` itself is excluded so magnitude negation can never
   overflow).  Packets that fail the proof -- or that write program
   memory, where the self-modifying-code guard must observe every
   store -- simply stay on the Python path; the burst driver hands
   control back whenever the next fetch would enter one.  Rendering
   runs no analysis: a store is raw in C exactly when it is raw in the
   IR (``width is None``), which the IR passes decided for every
   backend alike.

2. **Code generation.**  Each native packet's per-stage IR lowers to a
   ``static void f_<pc>_<stage>(int64_t *S)`` over the flat
   :class:`repro.simcc.native.layout.StateLayout` buffer, and one
   exported ``repro_burst`` drives whole stretches of cycles with
   exactly the semantics of
   :meth:`repro.machine.driver.Pipeline._run_plain`: retire, fetch (or
   stall/halt bubble), window shift, deepest-first stage execution with
   flush squashing.  Python is re-entered once per burst, not once per
   micro-op.

   The driver is specialised to the table when it is rendered.  It
   visits only the *active* stages (``NativePlan.active_stages``):
   those where some native packet has a function, plus the execute
   stage, where trap slots raise (the Python drivers do the same over
   ``SimulationTable.active_stages``).  They are emitted deepest first as
   straight-line code with each stage number a constant, and each
   dispatches through one flat ``stage_fn[(pc - PC_BASE) * DEPTH +
   stage]`` table of function pointers (0 where the packet has no code
   there).  No c62x table has code in PG..DP, so a c62x driver visits 6
   of the 11 stages, or 2 for straight-line code.  Inactive stages run
   nothing, so all they need is the flush squash, which a post-pass
   applies to every live slot below the cycle's final flush mark.  On
   the ``long_native`` ledger workload this raised the median
   ``sim_cps`` by 84 % (seed 11) and 61 % (seed 23); see
   EXPERIMENTS.md E14.

Trap parity: division by zero, negative shift counts, out-of-range
element indices and negative stall requests raise in Python; the C
helpers ``longjmp`` out of the burst with a trap code and the engine
re-raises the matching exception type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.simcc import ir
from repro.simcc.native import layout as L


class _NotNative(Exception):
    """Internal: asked to render a construct the proof never admits."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


@dataclass
class NativePlan:
    """Everything the engine needs to drive a compiled burst module.

    ``telemetry`` is the side-region geometry of an instrumented module
    (None for the plain one); ``metric_insns[pc - pc_base]`` is the
    instruction count one issue of that address contributes to the
    dispatch metrics (1 for table holes, matching the trap pseudo-slot
    the Python front-end issues there).  ``active_stages`` are the
    stages the burst driver visits, deepest first: every stage where a
    native packet has code, plus the execute stage.
    """

    pc_base: int
    pc_limit: int
    depth: int
    native_pcs: Set[int]
    reasons: Dict[int, str]
    push_names: Tuple[str, ...]
    pull_names: Tuple[str, ...]
    telemetry: Optional[L.TelemetryRegion] = None
    metric_insns: Tuple[int, ...] = field(default=())
    active_stages: Tuple[int, ...] = field(default=())

    @property
    def n_pc(self):
        return self.pc_limit - self.pc_base

    def to_json(self):
        """The plan as JSON data: the native artifact's metadata sidecar
        carries it, so a cache hit needs no rendering."""
        telemetry = self.telemetry
        return {
            "pc_base": self.pc_base,
            "pc_limit": self.pc_limit,
            "depth": self.depth,
            "native_pcs": sorted(self.native_pcs),
            "reasons": sorted(self.reasons.items()),
            "push_names": list(self.push_names),
            "pull_names": list(self.pull_names),
            "telemetry": (
                None if telemetry is None
                else [telemetry.base, telemetry.n_pc]
            ),
            "metric_insns": list(self.metric_insns),
            "active_stages": list(self.active_stages),
        }

    @classmethod
    def from_json(cls, data):
        """The plan :meth:`to_json` wrote."""
        telemetry = data["telemetry"]
        return cls(
            pc_base=data["pc_base"],
            pc_limit=data["pc_limit"],
            depth=data["depth"],
            native_pcs=set(data["native_pcs"]),
            reasons={pc: reason for pc, reason in data["reasons"]},
            push_names=tuple(data["push_names"]),
            pull_names=tuple(data["pull_names"]),
            telemetry=(
                None if telemetry is None
                else L.TelemetryRegion(*telemetry)
            ),
            metric_insns=tuple(data["metric_insns"]),
            active_stages=tuple(data["active_stages"]),
        )


# ---------------------------------------------------------------------------
# C rendering
# ---------------------------------------------------------------------------


def _c_int(value):
    return "INT64_C(%d)" % value


class _CRenderer:
    """Renders IR values and ops against one :class:`StateLayout`."""

    def __init__(self, model, state_layout):
        self._model = model
        self._layout = state_layout

    def value(self, value):
        if isinstance(value, ir.Const):
            return _c_int(value.value)
        if isinstance(value, ir.ReadReg):
            return "S[%d]" % self._layout.by_name[value.name].offset
        if isinstance(value, ir.ReadElem):
            return "S[%d + %s]" % (
                self._layout.by_name[value.resource].offset,
                self._index(value.resource, value.index),
            )
        if isinstance(value, ir.ReadLocal):
            return "L_%s" % value.name
        if isinstance(value, ir.Unary):
            inner = self.value(value.operand)
            if value.op == "-":
                return "(-%s)" % inner
            if value.op == "~":
                return "(~%s)" % inner
            return "(int64_t)(%s == 0)" % inner
        if isinstance(value, ir.Alu):
            return self._alu(value)
        if isinstance(value, ir.Intrinsic):
            return self._intrinsic(value)
        if isinstance(value, ir.Select):
            return "((%s) ? (%s) : (%s))" % (
                self.value(value.cond),
                self.value(value.if_true),
                self.value(value.if_false),
            )
        raise _NotNative("cannot render value %r" % (value,))

    def _index(self, resource, index):
        entry = self._layout.by_name[resource]
        if isinstance(index, ir.Const) and 0 <= index.value < entry.length:
            return _c_int(index.value)
        return "h_index(S, %s, %d)" % (self.value(index), entry.length)

    def _alu(self, value):
        left = self.value(value.left)
        right = self.value(value.right)
        op = value.op
        if op in ir._PLAIN_OPS and op not in ("<<", ">>"):
            return "(%s %s %s)" % (left, op, right)
        if op in ir._CMP_OPS:
            return "(int64_t)(%s %s %s)" % (left, op, right)
        if op == "<<":
            return "h_shl(S, %s, %s)" % (left, right)
        if op == ">>":
            return "h_shr(S, %s, %s)" % (left, right)
        if op == "/":
            return "h_idiv(S, %s, %s)" % (left, right)
        if op == "%":
            return "h_imod(S, %s, %s)" % (left, right)
        if op == "&&":
            return "(int64_t)((%s != 0) && (%s != 0))" % (left, right)
        return "(int64_t)((%s != 0) || (%s != 0))" % (left, right)

    def _intrinsic(self, value):
        name = value.name
        args = [self.value(arg) for arg in value.args]
        if name in ("sext", "zext", "sat"):
            return "h_%s(%s, %d)" % (name, args[0], value.args[1].value)
        if name == "abs":
            return "h_abs(%s)" % args[0]
        if name in ("min", "max"):
            return "h_%s(%s, %s)" % (name, args[0], args[1])
        raise _NotNative("cannot render intrinsic %r" % name)

    def _store_value(self, op):
        source = self.value(op.value)
        if op.width is None:
            # The pass pipeline proved the value canonical for the
            # declared dtype; the mask/sign-fold would be a no-op.
            return source
        if op.signed:
            return "h_cansig(%s, %d)" % (source, op.width)
        return "(%s & %s)" % (source, _c_int((1 << op.width) - 1))

    def ops(self, ops, indent):
        pad = "    " * indent
        lines = []
        for op in ops:
            if isinstance(op, ir.WriteReg):
                entry = self._layout.by_name[op.name]
                lines.append("%sS[%d] = %s;" % (
                    pad, entry.offset, self._store_value(op)
                ))
            elif isinstance(op, ir.WriteElem):
                entry = self._layout.by_name[op.resource]
                lines.append("%s{ int64_t _i = %s;" % (
                    pad, self._index(op.resource, op.index)
                ))
                lines.append("%s  S[%d + _i] = %s;" % (
                    pad, entry.offset, self._store_value(op)
                ))
                lines.append(
                    "%s  if (_i < S[%d]) S[%d] = _i;"
                    % (pad, entry.wm_offset, entry.wm_offset)
                )
                lines.append(
                    "%s  if (_i > S[%d]) S[%d] = _i; }"
                    % (pad, entry.wm_offset + 1, entry.wm_offset + 1)
                )
            elif isinstance(op, ir.WriteLocal):
                lines.append("%sL_%s = %s;" % (
                    pad, op.name, self.value(op.value)
                ))
            elif isinstance(op, ir.Control):
                lines.append(pad + self._control(op))
            elif isinstance(op, ir.Guard):
                lines.append("%sif (%s) {" % (pad, self.value(op.cond)))
                lines.extend(self.ops(op.then_ops, indent + 1))
                if op.else_ops:
                    lines.append(pad + "} else {")
                    lines.extend(self.ops(op.else_ops, indent + 1))
                lines.append(pad + "}")
            elif isinstance(op, ir.Eval):
                lines.append("%s{ int64_t _ev = %s; (void)_ev; }" % (
                    pad, self.value(op.value)
                ))
            else:
                raise _NotNative("cannot render op %r" % type(op).__name__)
        return lines

    def _control(self, op):
        if op.method == "request_stall":
            return "h_stall(S, %s);" % self.value(op.args[0])
        if op.method == "request_halt":
            return "h_halt(S);"
        return "h_flush(S);"

    def function_body(self, func, indent):
        """One IR function as a C block with its locals scoped inside."""
        pad = "    " * indent
        locals_ = sorted(_collect_locals(func.ops))
        lines = [pad + "{"]
        for name in locals_:
            lines.append("%s    int64_t L_%s = 0; (void)L_%s;"
                         % (pad, name, name))
        lines.extend(self.ops(func.ops, indent + 1))
        lines.append(pad + "}")
        return lines


def _collect_locals(ops):
    names = set()
    for op in ops:
        if isinstance(op, ir.WriteLocal):
            names.add(op.name)
        elif isinstance(op, ir.Guard):
            names |= _collect_locals(op.then_ops)
            names |= _collect_locals(op.else_ops)
        elif isinstance(op, ir.Loop):
            names |= _collect_locals(op.body)
        for value in ir.op_values(op):
            for walked in ir.walk_values(value):
                if isinstance(walked, ir.ReadLocal):
                    names.add(walked.name)
    return names


_HELPERS = r"""
#include <stdint.h>
#include <setjmp.h>

static jmp_buf trap_jmp;

#define HDR_CYCLES 0
#define HDR_INSNS 1
#define HDR_HALTED 2
#define HDR_STALL 3
#define HDR_FLUSH_BELOW 4
#define HDR_CUR_STAGE 5
#define HDR_TRAP_CODE 6
#define HDR_TRAP_PC 7
#define HDR_TRAP_STAGE 8

static void trap(int64_t *S, int64_t code) {
    S[HDR_TRAP_CODE] = code;
    longjmp(trap_jmp, 1);
}

static int64_t h_idiv(int64_t *S, int64_t a, int64_t b) {
    int64_t q;
    if (b == 0) trap(S, 1);
    q = (a < 0 ? -a : a) / (b < 0 ? -b : b);
    return ((a < 0) != (b < 0)) ? -q : q;
}

static int64_t h_imod(int64_t *S, int64_t a, int64_t b) {
    return a - h_idiv(S, a, b) * b;
}

static int64_t h_shl(int64_t *S, int64_t a, int64_t b) {
    if (b < 0) trap(S, 2);
    if (b > 63) return 0;  /* proof: a == 0 whenever b > 63 */
    return (int64_t)((uint64_t)a << b);
}

static int64_t h_shr(int64_t *S, int64_t a, int64_t b) {
    if (b < 0) trap(S, 2);
    if (b > 63) b = 63;
    return a < 0 ? ~((~a) >> b) : a >> b;  /* arithmetic, like Python */
}

static int64_t h_index(int64_t *S, int64_t i, int64_t n) {
    if (i < 0) i += n;  /* Python list indexing wraps once */
    if (i < 0 || i >= n) trap(S, 3);
    return i;
}

static int64_t h_cansig(int64_t v, int w) {
    uint64_t m = (w >= 64) ? ~(uint64_t)0 : (((uint64_t)1 << w) - 1);
    uint64_t half = (uint64_t)1 << (w - 1);
    return (int64_t)((((uint64_t)v + half) & m) - half);
}

static int64_t h_sext(int64_t v, int w) {
    uint64_t m = (w >= 64) ? ~(uint64_t)0 : (((uint64_t)1 << w) - 1);
    uint64_t sign = (uint64_t)1 << (w - 1);
    uint64_t u = (uint64_t)v & m;
    return (int64_t)((u ^ sign) - sign);
}

static int64_t h_zext(int64_t v, int w) {
    uint64_t m = (w >= 64) ? ~(uint64_t)0 : (((uint64_t)1 << w) - 1);
    return (int64_t)((uint64_t)v & m);
}

static int64_t h_sat(int64_t v, int w) {
    int64_t hi = (int64_t)((((uint64_t)1 << (w - 1))) - 1);
    int64_t lo = -hi - 1;
    return v < lo ? lo : (v > hi ? hi : v);
}

static int64_t h_abs(int64_t v) { return v < 0 ? -v : v; }
static int64_t h_min(int64_t a, int64_t b) { return a < b ? a : b; }
static int64_t h_max(int64_t a, int64_t b) { return a > b ? a : b; }

static void h_stall(int64_t *S, int64_t n) {
    if (n < 0) trap(S, 4);
    S[HDR_STALL] += n;
}

static void h_flush(int64_t *S) {
    if (S[HDR_CUR_STAGE] > S[HDR_FLUSH_BELOW])
        S[HDR_FLUSH_BELOW] = S[HDR_CUR_STAGE];
}

static void h_halt(int64_t *S) {
    S[HDR_HALTED] = 1;
    h_flush(S);
}
"""


_BURST = r"""
int64_t repro_burst(int64_t *S, const int64_t *native_ok,
                    int64_t max_cycles) {
    int64_t cycles_run = 0;
    if (setjmp(trap_jmp)) return 3;  /* trap: code in S[HDR_TRAP_CODE] */
    for (;;) {
        int64_t incoming = -1;
        int stage;
        if (S[HDR_HALTED]) {
            int drained = 1;
            for (stage = 0; stage < DEPTH; stage++)
                if (S[WIN_BASE + stage] >= 0) { drained = 0; break; }
            if (drained) return 0;  /* completed */
        }
        if (cycles_run >= max_cycles) return 1;  /* budget exhausted */
        if (!S[HDR_HALTED] && S[HDR_STALL] == 0) {
            int64_t pc = S[PC_OFF];
            if (pc >= PC_BASE && pc < PC_LIMIT &&
                !native_ok[pc - PC_BASE])
                return 2;  /* table packet needing the Python path */
        }
        /* retire the oldest slot */
        {
            int64_t retiring = S[WIN_BASE + DEPTH - 1];
            if (retiring >= 0) {
                if (retiring >= PC_BASE && retiring < PC_LIMIT &&
                    !pkt_trap[retiring - PC_BASE])
                    S[HDR_INSNS] += pkt_insns[retiring - PC_BASE];
                else
                    S[HDR_INSNS] += 1;  /* trap slots count one insn */
            }
        }
        /* fetch (or bubble on halt/stall); addresses outside the table
         * fetch trap pseudo-slots (one word, raising only if they reach
         * the execute stage un-squashed), exactly like the Python
         * front-end */
        if (S[HDR_HALTED]) {
            incoming = -1;
        } else if (S[HDR_STALL] > 0) {
            S[HDR_STALL] -= 1;
            incoming = -1;
        } else {
            int64_t pc = S[PC_OFF];
            incoming = pc;
            if (pc >= PC_BASE && pc < PC_LIMIT && !pkt_trap[pc - PC_BASE])
                S[PC_OFF] = pc + pkt_words[pc - PC_BASE];
            else
                S[PC_OFF] = pc + 1;
        }
        /* shift the window */
        for (stage = DEPTH - 1; stage > 0; stage--)
            S[WIN_BASE + stage] = S[WIN_BASE + stage - 1];
        S[WIN_BASE] = incoming;
        /* execute the active stages, deepest first */
@ACTIVE_STAGES@
        /* Squash below the flush.  The flush mark only rises within a
         * cycle, and only to the stage whose function requested it, so
         * a stage is below the final mark exactly when it was below the
         * mark when its turn came, the moment the Python driver squashes
         * it: active stages down there are bubbles already, inactive
         * ones (which run nothing) become bubbles here.  A trap needs
         * none of this: a stage deeper than the trapping one can be
         * below the mark only if the trapping stage is too, and then it
         * is squashed, not run. */
        for (stage = S[HDR_FLUSH_BELOW] - 1; stage >= 0; stage--)
            if (S[WIN_BASE + stage] >= 0)
                S[WIN_BASE + stage] = -1;
        S[HDR_FLUSH_BELOW] = -1;
        S[HDR_CYCLES] += 1;
        cycles_run += 1;
    }
}
"""

#: One active stage of the burst's execute phase, rendered once per
#: active stage with ``%(stage)d`` a constant.
_ACTIVE_STAGE = r"""        {
            int64_t slot_pc = S[WIN_BASE + %(stage)d];
            if (slot_pc >= 0) {
                if (%(stage)d < S[HDR_FLUSH_BELOW]) {
                    S[WIN_BASE + %(stage)d] = -1;
                } else if (slot_pc < PC_BASE || slot_pc >= PC_LIMIT ||
                           pkt_trap[slot_pc - PC_BASE]) {
                    if (%(stage)d == EXEC_STAGE) {
                        S[HDR_TRAP_PC] = slot_pc;
                        S[HDR_TRAP_STAGE] = %(stage)d;
                        trap(S, 5);  /* undefined fetch reached execute */
                    }
                } else {
                    opfn fn =
                        stage_fn[(slot_pc - PC_BASE) * DEPTH + %(stage)d];
                    if (fn) {
                        S[HDR_CUR_STAGE] = %(stage)d;
                        S[HDR_TRAP_PC] = slot_pc;
                        S[HDR_TRAP_STAGE] = %(stage)d;
                        fn(S);
                    }
                }
            }
        }"""


def _render_burst(active_stages, telemetry):
    """The burst driver with its execute phase over ``active_stages``."""
    burst, step = _telemetry_burst() if telemetry else (_BURST, _ACTIVE_STAGE)
    return burst.replace("@ACTIVE_STAGES@", "\n".join(
        step % {"stage": stage} for stage in active_stages
    ))


def _splice(text, old, new):
    """``text.replace(old, new)`` asserting exactly one match.

    The telemetry variants of the helper/burst templates are derived
    from the plain ones by targeted splices; a template edit that
    breaks a splice point must fail loudly here, not silently produce
    an un-instrumented module.
    """
    count = text.count(old)
    if count != 1:
        raise AssertionError(
            "telemetry splice point matched %d times (expected 1): %r"
            % (count, old)
        )
    return text.replace(old, new)


def _telemetry_defines(region):
    """Absolute slot indices of the telemetry side-region as C macros."""
    return "\n".join([
        "#define TEL_LAST %d" % (region.base + L.TEL_LAST),
        "#define TEL_STRAY %d" % (region.base + L.TEL_STRAY_CYC),
        "#define TEL_DRAINB %d" % (region.base + L.TEL_DRAIN),
        "#define TEL_STALLB %d" % (region.base + L.TEL_STALL),
        "#define TEL_SQUASH %d" % (region.base + L.TEL_SQUASH),
        "#define TEL_CSTALL %d" % (region.base + L.TEL_CTRL_STALL),
        "#define TEL_CFLUSH %d" % (region.base + L.TEL_CTRL_FLUSH),
        "#define TEL_CHALT %d" % (region.base + L.TEL_CTRL_HALT),
        "#define TEL_DISP %d" % region.disp_base,
        "#define TEL_CYC %d" % region.cyc_base,
    ])


def _telemetry_helpers():
    """The helper prologue with control-request counting spliced in.

    Counting mirrors the Python hooks exactly: a stall request counts
    only after the negative-count trap check (Python validates before
    notifying), and a halt counts both the halt and the flush it raises
    (``request_halt`` calls ``request_flush``).
    """
    text = _splice(
        _HELPERS,
        "static void h_stall(int64_t *S, int64_t n) {\n"
        "    if (n < 0) trap(S, 4);\n",
        "static void h_stall(int64_t *S, int64_t n) {\n"
        "    if (n < 0) trap(S, 4);\n"
        "    S[TEL_CSTALL] += 1;\n",
    )
    text = _splice(
        text,
        "static void h_flush(int64_t *S) {\n",
        "static void h_flush(int64_t *S) {\n"
        "    S[TEL_CFLUSH] += 1;\n",
    )
    text = _splice(
        text,
        "static void h_halt(int64_t *S) {\n",
        "static void h_halt(int64_t *S) {\n"
        "    S[TEL_CHALT] += 1;\n",
    )
    return text


#: Bubble-cycle attribution: bill the cycle to the last issued packet
#: (stall latency and drain tail belong to the packet that caused
#: them); cycles owed to a pre-burst, off-table packet pool in one
#: stray bucket the engine re-attributes at flush time.
_TEL_BUBBLE = r"""
static void tel_bubble(int64_t *S) {
    int64_t lp = S[TEL_LAST];
    if (lp >= PC_BASE && lp < PC_LIMIT)
        S[TEL_CYC + lp - PC_BASE] += 1;
    else if (lp >= 0)
        S[TEL_STRAY] += 1;
}
"""


def _telemetry_burst():
    """The burst driver and its active-stage step with per-packet
    counting spliced in.

    Off-table fetches hand back to Python (exit 2) instead of issuing
    the native trap pseudo-slot, so the traced Python step counts them
    with the same hooks as a pure Python run -- that keeps per-packet
    counters bit-identical without teaching C about out-of-range
    addresses (which cannot be indexed into the fixed-size side-region).
    """
    text = _splice(
        _BURST,
        "            if (pc >= PC_BASE && pc < PC_LIMIT &&\n"
        "                !native_ok[pc - PC_BASE])\n"
        "                return 2;  /* table packet needing the Python"
        " path */\n",
        "            if (pc < PC_BASE || pc >= PC_LIMIT)\n"
        "                return 2;  /* off-table fetch: count it in"
        " Python */\n"
        "            if (!native_ok[pc - PC_BASE])\n"
        "                return 2;  /* table packet needing the Python"
        " path */\n",
    )
    text = _splice(
        text,
        "        if (S[HDR_HALTED]) {\n"
        "            incoming = -1;\n"
        "        } else if (S[HDR_STALL] > 0) {\n"
        "            S[HDR_STALL] -= 1;\n"
        "            incoming = -1;\n"
        "        } else {\n"
        "            int64_t pc = S[PC_OFF];\n"
        "            incoming = pc;\n",
        "        if (S[HDR_HALTED]) {\n"
        "            incoming = -1;\n"
        "            S[TEL_DRAINB] += 1;\n"
        "            tel_bubble(S);\n"
        "        } else if (S[HDR_STALL] > 0) {\n"
        "            S[HDR_STALL] -= 1;\n"
        "            incoming = -1;\n"
        "            S[TEL_STALLB] += 1;\n"
        "            tel_bubble(S);\n"
        "        } else {\n"
        "            int64_t pc = S[PC_OFF];\n"
        "            incoming = pc;\n"
        "            S[TEL_DISP + pc - PC_BASE] += 1;\n"
        "            S[TEL_CYC + pc - PC_BASE] += 1;\n"
        "            S[TEL_LAST] = pc;\n",
    )
    text = _splice(
        text,
        "            if (S[WIN_BASE + stage] >= 0)\n"
        "                S[WIN_BASE + stage] = -1;\n",
        "            if (S[WIN_BASE + stage] >= 0) {\n"
        "                S[WIN_BASE + stage] = -1;\n"
        "                S[TEL_SQUASH] += 1;\n"
        "            }\n",
    )
    step = _splice(
        _ACTIVE_STAGE,
        "                    S[WIN_BASE + %(stage)d] = -1;\n",
        "                    S[WIN_BASE + %(stage)d] = -1;\n"
        "                    S[TEL_SQUASH] += 1;\n",
    )
    return text, step


def render_stage_function(name, funcs, renderer):
    """One per-(pc, stage) C function concatenating the packet's IR
    functions for that stage, each in its own local scope."""
    lines = ["static void %s(int64_t *S) {" % name]
    for func in funcs:
        lines.extend(renderer.function_body(func, 1))
    lines.append("}")
    return "\n".join(lines)


def render_native_source(table, model, state_layout, telemetry=False):
    """Render the full burst module for ``table``.

    Returns ``(c_source, plan)``; ``plan.native_pcs`` names the packets
    whose proof (``table.proofs``) admits them, everything else falls
    back per-fetch.  A table without IR or without proofs is
    unsupported.

    ``telemetry=True`` renders the instrumented variant: the buffer
    grows a side-region of per-packet dispatch/attributed-cycle
    counters past the resources and the burst driver increments them
    inline.  With ``telemetry=False`` the output is byte-identical to
    the un-instrumented module -- profiling requested is the only thing
    that ever changes the generated C.
    """
    depth = model.pipeline.depth
    ir_by_stage = table.ir_by_stage or {}
    pcs = sorted(table.slots)
    if not pcs or not ir_by_stage:
        raise L.NativeUnsupported("table has no lowered IR to render")
    if table.proofs is None:
        raise L.NativeUnsupported("table has no packet proofs")
    pc_base, pc_limit = pcs[0], pcs[-1] + 1
    exec_stage = model.execute_stage_index

    region = None
    if telemetry:
        region = L.TelemetryRegion(
            base=state_layout.total_slots, n_pc=pc_limit - pc_base
        )

    renderer = _CRenderer(model, state_layout)
    native_pcs = set()
    reasons = {}
    reads, writes = set(), set()
    chunks = [
        "/* Auto-generated native burst module (repro.simcc.native).\n"
        " * model=%s layout=%s  -- do not edit. */"
        % (model.name, state_layout.digest()[:16]),
    ]
    if region is not None:
        chunks.append("/* telemetry: %s */" % region.describe())
        chunks.append(_telemetry_defines(region))
        chunks.append(_telemetry_helpers())
    else:
        chunks.append(_HELPERS)
    chunks.extend([
        "#define DEPTH %d" % depth,
        "#define WIN_BASE %d" % L.WIN_BASE,
        "#define PC_OFF %d" % state_layout.pc_offset,
        "#define PC_BASE %s" % _c_int(pc_base),
        "#define PC_LIMIT %s" % _c_int(pc_limit),
        "#define EXEC_STAGE %d" % exec_stage,
    ])
    if region is not None:
        chunks.append(_TEL_BUBBLE)
    chunks.append("typedef void (*opfn)(int64_t *);")

    no_code = ["0"] * depth
    stage_names = {}
    active = {exec_stage}  # trap slots raise there
    for pc in pcs:
        funcs_by_stage = ir_by_stage.get(pc)
        if funcs_by_stage is None:
            reasons[pc] = "no lowered IR"
            continue
        proof = table.proofs[pc]
        if not proof.native:
            reasons[pc] = proof.reason
            continue
        native_pcs.add(pc)
        reads |= proof.reads
        writes |= proof.writes
        names = stage_names[pc] = list(no_code)
        for stage, funcs in enumerate(funcs_by_stage):
            if not funcs:
                continue
            names[stage] = "f_%x_%d" % (pc, stage)
            chunks.append(render_stage_function(names[stage], funcs,
                                                renderer))
            active.add(stage)
    active_stages = tuple(sorted(active, reverse=True))

    # The flat dispatch table: one function (or 0) per (pc, stage).
    rows = [", ".join(stage_names.get(pc, no_code))
            for pc in range(pc_base, pc_limit)]
    chunks.append("static const opfn stage_fn[] = {\n    %s\n};"
                  % ",\n    ".join(rows))

    words = []
    insns = []
    traps = []
    for pc in range(pc_base, pc_limit):
        slot = table.slots.get(pc)
        words.append(str(slot.words if slot is not None else 1))
        insns.append(str(slot.insn_count if slot is not None else 0))
        traps.append("0" if slot is not None else "1")
    chunks.append("static const int32_t pkt_words[] = { %s };"
                  % ", ".join(words))
    chunks.append("static const int32_t pkt_insns[] = { %s };"
                  % ", ".join(insns))
    chunks.append("static const int32_t pkt_trap[] = { %s };"
                  % ", ".join(traps))
    chunks.append(_render_burst(active_stages, region is not None))

    metric_insns = tuple(
        table.slots[pc].insn_count if pc in table.slots else 1
        for pc in range(pc_base, pc_limit)
    )

    # The program counter is read and written by the burst driver, and
    # the pull of scalars is unconditional, so keep the pc in both sets.
    push = reads | writes | {state_layout.pc_name}
    pull = writes | {state_layout.pc_name}
    plan = NativePlan(
        pc_base=pc_base, pc_limit=pc_limit, depth=depth,
        native_pcs=native_pcs, reasons=reasons,
        push_names=tuple(sorted(push)), pull_names=tuple(sorted(pull)),
        telemetry=region, metric_insns=metric_insns,
        active_stages=active_stages,
    )
    return "\n\n".join(chunks) + "\n", plan


# ---------------------------------------------------------------------------
# CLI rendering (--dump-c)
# ---------------------------------------------------------------------------


def dump_program_c(model, program, stream=None):
    """Print the rendered C for every packet of ``program``.

    Packets whose proof rejects them print their fallback reason instead
    of code, and trap packets (an undecodable member) print the
    decoder's message.  Pure rendering: no toolchain is required.
    """
    import sys

    from repro.simcc.generator import generate_simulation_compiler

    out = stream or sys.stdout
    state_layout = L.StateLayout.build(model)
    compiler = generate_simulation_compiler(model)
    portable = compiler.compile_portable(program, level="instantiated")
    renderer = _CRenderer(model, state_layout)
    out.write("/* native rendering: model=%s program=%s layout=%s */\n"
              % (model.name, program.name, state_layout.digest()[:16]))
    for pc in sorted(set(portable.table_spec) | set(portable.traps)):
        message = portable.traps.get(pc)
        if message is not None:
            out.write("\n/* pc=0x%x: trap (%s) */\n" % (pc, message))
            continue
        proof = portable.proofs[pc]
        if not proof.native:
            out.write("\n/* pc=0x%x: python fallback (%s) */\n"
                      % (pc, proof.reason))
            continue
        out.write("\n/* pc=0x%x: native */\n" % pc)
        per_stage, _words, _insns = portable.table_spec[pc]
        for stage, names in enumerate(per_stage):
            if not names:
                continue
            out.write(render_stage_function(
                "f_%x_%d" % (pc, stage),
                [portable.function(name) for name in names], renderer,
            ))
            out.write("\n")
