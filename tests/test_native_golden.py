"""Golden native rendering: the C source a table renders to.

Every application of the cross-backend matrix renders, plain and with
telemetry, to C whose SHA-256 is compared with recorded digests.  The
native artifact key hashes this source, so pinning it pins which
artifacts a warm cache serves, and any change to what the IR passes
decide (a dropped wrap, a folded constant) or to how cgen spells it
shows here.

Rendering reads only the table's IR and its persisted packet proofs:
it runs no analysis of its own.
"""

import hashlib

import pytest

from repro.analysis import absint
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
        "45990b567e5a370c0ec0774bd2e1afd6bd13b9635d6691e200f47ba141975475",
        "f227e964a72748e4d7422b81838d7d372b6a85962ac544c8cc0acba718ff45fc",
        34,
    ),
    "fir-c54x": (
        "1c939c35ca6fa76a1f568b9cda3c5a52426597ce7e37565bcc4ea61bd9ddba33",
        "c6fdbb91c148583b3d02bf0c4d3c400d4806404c247cad9bded7d84f5d0248a6",
        14,
    ),
    "fir-tinydsp": (
        "e6383914cf41531337e63afecca008337018657ea6aef5bd0830507dc5122c7a",
        "f9940b2d3af294e951ea280cc28fecaaaa0e8cab91fc2bc177afbd9b8625638d",
        23,
    ),
    "adpcm-c62x": (
        "91c8657bddf4a7e3c8191d4c10b614fc734399e9b533e9feea4c5b053a80c2d7",
        "c41f9a0232e28818dacd30a84aa6d7d08cb5a97c60a5e4b294401957bd3410a9",
        143,
    ),
    "gsm-c62x": (
        "3f82cc3755b15ac4f2ad71b9ebd88c2026f89b5c8686a79d1d8cc587f2be7101",
        "607c696eb7c42c93e72ecddd2d606444060ce8f28811ad1c32d2671fb8f77930",
        1020,
    ),
}


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
