"""Shared fixtures: compiled models, toolsets, and a tiny test model."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.api import build_toolset
from repro.lisa.semantics import compile_source
from repro.models import load_model

# Property tests exercise compiled behaviours and whole simulators; on
# the small CI boxes this repo targets, a bounded example budget keeps
# the suite fast while still covering the invariants.
settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session", autouse=True)
def _verify_ir_everywhere():
    """Run the whole suite with the IR verifier armed.

    Every ``run_passes`` call in every test then checks well-formedness
    before and after each optimisation pass, so a pass-pipeline bug
    fails loudly in whichever test first lowers IR -- not as a
    miscompile three layers later.
    """
    from repro.simcc import verify

    previous = verify.set_verify_default(True)
    yield
    verify.set_verify_default(previous)


def stage_function_of(model, items, name="f"):
    """The optimised IR function the portable builder makes of
    ``(node, behaviour)`` items run back to back in one stage."""
    from repro.simcc import ir
    from repro.simcc.frontend import lower_stages

    lowered = lower_stages(model, ir.Lowerer(model), (tuple(items),))
    if lowered.error is not None:
        raise lowered.error
    return ir.run_passes(ir.IRFunction(name=name, ops=lowered.ops[0]), model)


# A small but feature-complete model used by unit tests that need full
# control over the description (distinct from the shipped tinydsp).
#: The run-config key that checkpoint bodies and service job specs
#: carried while the tiered-execution layer existed.  Checkpoints still
#: load with it; job specs reject it as an unknown field.
REMOVED_TIER_KEY = "tier" + "ing"

TESTMODEL_SOURCE = r"""
MODEL testmodel;
RESOURCE {
    PROGRAM_COUNTER uint32 PC;
    REGISTER int R[8];
    REGISTER int16 ACC;
    MEMORY uint16 pmem[256];
    MEMORY int dmem[64];
    PIPELINE pipe = { FE; DE; EX; WB };
}
CONFIG {
    WORDSIZE(16);
    PROGRAM_MEMORY(pmem);
    ROOT(insn);
    EXECUTE_STAGE(EX);
    BRANCH_POLICY(flush);
    DEFINE(SHORT, 0);
    DEFINE(LONG, 1);
}

OPERATION reg {
    DECLARE { LABEL idx; }
    CODING { idx[3] }
    SYNTAX { "r" idx }
    EXPRESSION { R[idx] }
}

OPERATION add IN pipe.EX {
    DECLARE { GROUP dst = { reg }; GROUP src1 = { reg };
              GROUP src2 = { reg }; REFERENCE mode; }
    CODING { 0b0001 dst src1 src2 0bxx }
    IF (mode == SHORT) {
        SYNTAX { "add" dst "," src1 "," src2 }
        BEHAVIOR { dst = src1 + src2; }
    } ELSE {
        SYNTAX { "addl" dst "," src1 "," src2 }
        BEHAVIOR { dst = sat(src1 + src2, 8); }
    }
}

OPERATION ldi IN pipe.EX {
    DECLARE { GROUP dst = { reg }; LABEL imm; }
    CODING { 0b0010 dst imm[8] }
    SYNTAX { "ldi" dst "," imm }
    BEHAVIOR { dst = sext(imm, 8); }
}

OPERATION st IN pipe.EX {
    DECLARE { GROUP src = { reg }; LABEL addr; }
    CODING { 0b0011 src addr[6] 0bxx }
    SYNTAX { "st" src "," addr }
    BEHAVIOR { dmem[addr] = src; }
    ACTIVATION { note_store }
}

OPERATION note_store IN pipe.WB {
    /* A helper activated into a later stage, reading the parent's
     * operands through REFERENCE -- exercises cross-stage activation. */
    DECLARE { REFERENCE addr; }
    BEHAVIOR { ACC = ACC + addr; }
}

OPERATION brnz IN pipe.EX {
    DECLARE { GROUP src = { reg }; LABEL target; }
    CODING { 0b0100 src target[8] }
    SYNTAX { "brnz" src "," target }
    BEHAVIOR {
        IF (src != 0) {
            PC = target;
            flush();
        }
    }
}

OPERATION halt_op IN pipe.EX {
    CODING { 0b0101 0b00000000000 }
    SYNTAX { "halt" }
    BEHAVIOR { halt(); }
}

OPERATION nop IN pipe.EX {
    CODING { 0b0000 0b00000000000 }
    SYNTAX { "nop" }
    BEHAVIOR { }
}

OPERATION insn {
    DECLARE {
        GROUP op = { nop || add || ldi || st || brnz || halt_op };
        LABEL mode;
    }
    CODING { mode[1] op }
    SYNTAX { op }
    ACTIVATION { op }
}
"""


@pytest.fixture(scope="session")
def testmodel():
    return compile_source(TESTMODEL_SOURCE, "testmodel.lisa")


@pytest.fixture(scope="session")
def testmodel_tools(testmodel):
    return build_toolset(testmodel)


@pytest.fixture(scope="session")
def tinydsp():
    return load_model("tinydsp")


@pytest.fixture(scope="session")
def c54x():
    return load_model("c54x")


@pytest.fixture(scope="session")
def c62x():
    return load_model("c62x")


@pytest.fixture(scope="session")
def tinydsp_tools(tinydsp):
    return build_toolset(tinydsp)


@pytest.fixture(scope="session")
def c54x_tools(c54x):
    return build_toolset(c54x)


@pytest.fixture(scope="session")
def c62x_tools(c62x):
    return build_toolset(c62x)
