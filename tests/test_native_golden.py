"""Golden native rendering: the C source a table renders to.

Every application of the cross-backend matrix renders, plain and with
telemetry, to C whose SHA-256 is compared with recorded digests.  The
native artifact key hashes this source, so pinning it pins which
artifacts a warm cache serves, and any change to what the IR passes
decide (a dropped wrap, a folded constant) or to how cgen spells it
shows here.

The per-packet stage functions have digests of their own, so a change
to the burst driver or its dispatch table shows as a full-source change
with the stage functions untouched; the stages the driver visits are
pinned too.

Rendering reads only the table's IR and its persisted packet proofs:
it runs no analysis of its own.
"""

import hashlib
import re

import pytest

from repro.analysis import absint
from repro.apps import build_synthetic
from repro.bench import load_app_program
from repro.machine.control import PipelineControl
from repro.machine.state import ProcessorState
from repro.simcc.generator import generate_simulation_compiler
from repro.simcc.native import cgen
from repro.simcc.native.layout import StateLayout
from tests.test_ir_backends import APP_MATRIX

#: ``(plain, telemetry)`` SHA-256 of the rendered C, and the number of
#: packets the proofs admit.
GOLDEN = {
    "fir-c62x": (
        "53191deaf1b729f0dffbde5ceefb6632bfdf8192a7d2b3b8d8a3cf3a19a39cc4",
        "62260ec8ed0ea5f8e3e332727e1c6346a3534737bf946f486ad150c3af232f5a",
        34,
    ),
    "fir-c54x": (
        "5709cc68031e5685c73729c205a974e0db7d5dc3e0e9d8b3d1f9b00ed132dd31",
        "2a83e8e4011b8d475ed6ef96e3e476713c1f40f27bd7b665ad1620c9265234f2",
        14,
    ),
    "fir-tinydsp": (
        "28d44c873195c3b18aad97b430d59ba1cb9a2da6d0cc52a13401634684b98495",
        "93e9a797e55a5fa6e8a4142b54887fee9b80fbcd3ee6d5152e71acd2e772c34a",
        23,
    ),
    "adpcm-c62x": (
        "7c181801e1062b4b318306f3b5cca3cd9a43e379ee319369ba33d2093c800399",
        "1eab99af9832b7546280c1df6fc567a350b227b4868ce8487a016ee7fd36c2a0",
        143,
    ),
    "gsm-c62x": (
        "1d01e1589441af32746c41cdf596c135181fa2513086bfddfaf76a116f54cdf8",
        "638bbf5d6a48406194e320555ec7a5e3ff4a60313dc699e639faeadf7a6722ab",
        1020,
    ),
}


#: SHA-256 over the ``static void f_<pc>_<stage>`` functions of the
#: rendered C, in source order, and how many there are.  Recorded
#: before the burst driver was rendered over the active stages only:
#: the driver and its dispatch table may change, the per-packet code
#: may not, and plain and telemetry builds render it alike.
STAGE_FUNCTIONS = {
    "fir-c62x": (
        "f186fe6b8e64c0cf22847b55f1168ad892ec4cf8a0c8a0afc961dc37468d2afc",
        42,
    ),
    "fir-c54x": (
        "e112913f05d3886e1275a8fc7893a0acf023912dc47fb2cb3402773e7e6d78ab",
        14,
    ),
    "fir-tinydsp": (
        "e8bcb80e5fb5d0b839e6395c391a0fddead9d58402febf8d4c21250fcce4eb31",
        23,
    ),
    "adpcm-c62x": (
        "51130176d82b673674c5c12359361b2659f5c51da19fe19881f6b3a0664bfb02",
        167,
    ),
    "gsm-c62x": (
        "aaacd331a696f70983e9d0c88c3b5fc704fa00fa3777008b98c23908c4567877",
        1044,
    ),
}

_STAGE_FUNCTION = re.compile(
    r"^static void f_[0-9a-f]+_\d+\(int64_t \*S\) \{$.*?^\}$",
    re.MULTILINE | re.DOTALL,
)


#: The stages the burst driver visits, deepest first: those where a
#: native packet has code, plus the execute stage (c62x E1 = 6), where
#: trap slots raise.  No c62x table has code in PG..DP (stages 0-4).
#: ``syn256b0-c62x`` is the ledger's ``short_warm`` syn256b0 at seed 11:
#: straight-line code runs in DC and E1 only.
ACTIVE_STAGES = {
    "fir-c62x": (10, 9, 8, 7, 6, 5),
    "fir-c54x": (5,),
    "fir-tinydsp": (2,),
    "adpcm-c62x": (10, 9, 8, 7, 6, 5),
    "gsm-c62x": (10, 9, 8, 7, 6, 5),
    "syn256b0-c62x": (6, 5),
}
ACTIVE_PROGRAMS = APP_MATRIX + [
    ("syn256b0-c62x",
     lambda: build_synthetic("c62x", 256, 0.0, 8, seed=13)),
]


def _bound_table(model, program):
    portable = generate_simulation_compiler(model).compile_portable(
        program, level="instantiated"
    )
    return portable.bind(ProcessorState(model), PipelineControl())


@pytest.mark.parametrize(
    "name,builder", APP_MATRIX, ids=[entry[0] for entry in APP_MATRIX],
)
def test_rendered_source_is_golden(name, builder):
    model, program = load_app_program(builder())
    table = _bound_table(model, program)
    layout = StateLayout.build(model)
    plain_digest, telemetry_digest, native_packets = GOLDEN[name]
    for telemetry, expected in ((False, plain_digest),
                                (True, telemetry_digest)):
        source, plan = cgen.render_native_source(
            table, model, layout, telemetry=telemetry
        )
        assert hashlib.sha256(source.encode()).hexdigest() == expected
        assert len(plan.native_pcs) == native_packets


@pytest.mark.parametrize(
    "name,builder", APP_MATRIX, ids=[entry[0] for entry in APP_MATRIX],
)
def test_stage_functions_are_golden(name, builder):
    model, program = load_app_program(builder())
    table = _bound_table(model, program)
    layout = StateLayout.build(model)
    expected, count = STAGE_FUNCTIONS[name]
    for telemetry in (False, True):
        source, _ = cgen.render_native_source(
            table, model, layout, telemetry=telemetry
        )
        functions = _STAGE_FUNCTION.findall(source)
        assert len(functions) == count
        digest = hashlib.sha256("\n\n".join(functions).encode())
        assert digest.hexdigest() == expected


@pytest.mark.parametrize(
    "name,builder", ACTIVE_PROGRAMS,
    ids=[entry[0] for entry in ACTIVE_PROGRAMS],
)
def test_active_stages(name, builder):
    model, program = load_app_program(builder())
    _, plan = cgen.render_native_source(
        _bound_table(model, program), model, StateLayout.build(model)
    )
    assert plan.active_stages == ACTIVE_STAGES[name]


def test_render_runs_no_analysis(monkeypatch):
    """A FIR 16x48 table renders from its persisted proofs: not one
    ``absint.analyze_packet`` call for its 34 packets."""
    from repro.apps import build_fir

    model, program = load_app_program(
        build_fir("c62x", taps=16, samples=48, seed=11)
    )
    table = _bound_table(model, program)
    calls = []
    real = absint.analyze_packet

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(absint, "analyze_packet", counting)
    _, plan = cgen.render_native_source(
        table, model, StateLayout.build(model)
    )
    assert len(plan.native_pcs) == 34
    assert calls == []


def test_table_without_proofs_is_unsupported(testmodel, testmodel_tools):
    from repro.simcc.native.layout import NativeUnsupported

    program = testmodel_tools.assembler.assemble_text("ldi r1, 1\nhalt\n")
    table = _bound_table(testmodel, program)
    table.proofs = None
    with pytest.raises(NativeUnsupported, match="no packet proofs"):
        cgen.render_native_source(
            table, testmodel, StateLayout.build(testmodel)
        )
