"""Golden simulation tables: what every table build decides.

A simulation table is program locations by per-stage operations (the
paper's Figure 1).  Three builds make one: the simulation compiler's
direct level-2 table, the portable table at either level (which the
cache stores and every level-3 and native table binds from) and the
standalone module the emitter renders from a portable table.  For the
five applications of the cross-backend matrix and a test-model program
with an undecodable word, this pins

* the portable payload (``to_payload(with_code=False)``) at both
  levels,
* the direct table's shape per pc: words, instructions, label,
  control flag, op count per stage and the message a trap slot raises,
  plus its active stages,
* the emitted module's data (``TABLE_SPEC``, ``HAS_CONTROL``,
  ``TRAPS``, ``DEPTH``, ``TRAP_STAGE``) and the portable table's
  function source,

so a change to how tables are scanned, sequenced or bound shows here
unless it leaves every table exactly as it was.
"""

import hashlib
import json

import pytest

from repro.api import build_toolset
from repro.bench import load_app_program
from repro.lisa.semantics import compile_source
from repro.machine.control import PipelineControl
from repro.machine.state import ProcessorState
from repro.simcc.emit import emit_simulator_module
from repro.simcc.generator import generate_simulation_compiler
from repro.simcc.portable import build_portable_table
from repro.support.errors import SimulationError
from tests.conftest import TESTMODEL_SOURCE
from tests.test_ir_backends import APP_MATRIX

#: A test-model program whose third word does not decode: the packet
#: at 2 traps, the others run.
UNDECODABLE = """
start:  ldi r1, 5
        nop
        .word 0xFFFF
        st r1, 3
        halt
"""


def _undecodable():
    model = compile_source(TESTMODEL_SOURCE, "testmodel.lisa")
    program = build_toolset(model).assembler.assemble_text(
        UNDECODABLE, name="undecodable"
    )
    return model, program


LOADERS = [
    (name, lambda builder=builder: load_app_program(builder()))
    for name, builder in APP_MATRIX
] + [("undecodable-testmodel", _undecodable)]


def _sha(record):
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _trap_message(slot):
    for ops in slot.ops_by_stage:
        for op in ops:
            try:
                op()
            except SimulationError as exc:
                return str(exc)
    return None


def direct_shape(model, program):
    """The direct level-2 table: per pc its words, instructions, label,
    control flag, op count per stage and trap message; and the active
    stages."""
    state = ProcessorState(model)
    program.load_into(state)
    table = generate_simulation_compiler(model).compile(
        program, state, PipelineControl()
    )
    rows = [
        [pc, slot.words, slot.insn_count, slot.label,
         table.has_control[pc],
         [len(ops) for ops in slot.ops_by_stage],
         _trap_message(slot) if slot.label == "<trap>" else None]
        for pc, slot in sorted(table.slots.items())
    ]
    return rows, list(table.active_stages)


def emitted_data(model, program):
    """The emitted module's table data and the function source."""
    namespace = {"__name__": "golden_emitted"}
    exec(compile(emit_simulator_module(model, program), "<golden>",
                 "exec"), namespace)
    record = {
        key: namespace[key]
        for key in ("TABLE_SPEC", "HAS_CONTROL", "TRAPS", "DEPTH",
                    "TRAP_STAGE")
    }
    record["functions"] = build_portable_table(
        model, program
    ).functions_source()
    return record


def digests(model, program):
    """Every pinned digest of one program, plus its active stages."""
    rows, active = direct_shape(model, program)
    return tuple(
        _sha(build_portable_table(model, program, level).to_payload(
            with_code=False
        ))
        for level in ("sequenced", "instantiated")
    ) + (
        _sha(rows),
        _sha(emitted_data(model, program)),
        tuple(active),
    )


#: Per program: the SHA-256 of the portable payload at level
#: ``sequenced`` and ``instantiated``, of the direct table's shape and
#: of the emitted module's data, then the direct table's active stages.
GOLDEN = {
    "fir-c62x": (
        "72b1ddc84237bb837ef3f96e8c83d3f25be9896c1790d981e84380f8589819c4",
        "3e0d0dc1bc96c6a0149c96cbb928dcbc57cc375d3d18d2f18fb55dc7476119db",
        "e54a027b92eecfe8c519556f5a58965e608bca20b6cc1b78d6255129d95aa097",
        "169123ec68c308ce9ac00e41e18a1d188638b02a241ec26eafca07d605784995",
        (10, 9, 8, 7, 6, 5),
    ),
    "fir-c54x": (
        "c5e44077b4590c22cbb814c7fc9e85837e456cfa1d885db0ba33d03a66aa15c4",
        "c7c0dcb0f5610847fea65248bb0922ccf4bd70572fcc79f9f8f7667858dd6c9e",
        "1264a1cd987f057128b51622b95d5f140d5b82dc1f9bf1b7abe72123c9d7ab08",
        "d16adfe3ee0137ed4206bc85d0423a3a9de9660c5d5a5cd5b15b4d72ead40163",
        (5,),
    ),
    "fir-tinydsp": (
        "ca17b3aa6445fc0cdca3ec074487896a5ca0acbda703b46124427feb36696381",
        "625a40e4eca4916134435f505603d680bd8d5170aebabbb290e89c68c6ba2e29",
        "b166df43293ee103316572ab32c5e86ba770c2261a4d2fab4361093718fe6864",
        "863bf2d3cfb408ce68d58ba0a906d7973a544dd19b92c1a5063f49dd69c8dbf3",
        (2,),
    ),
    "adpcm-c62x": (
        "d54d1b37a8b73003777d911f730925ec38d4176986f89ae6d43addb1d43d5971",
        "26f0e1211aa33941563932a0e7b4c8cd5f54b6f43bcdc00f29f3aceeea8a1796",
        "6eacdc7ad3546085cc9b9b38af2bfd7ceaa9427faa447d5bbcdd62eb2f43a0bd",
        "981494ab98b6df69e70ec9c877731dedd55b4245710d93d88976a81d237262dd",
        (10, 9, 8, 7, 6, 5),
    ),
    "gsm-c62x": (
        "4143971506e3ddedcc12531f920fd0efb7ba45fdaffa1dace0a27dc171b940ce",
        "055572676c595501af21b93954e13af0aa76e8bd04f336224d1b02bfc9543ed8",
        "34bedc3e766e7619f6be79564663c8124ac29daba7387cb83dc98e807b51df3b",
        "82d39b088566fe18c5f0e753f5cee7873ba268cc2a1ba73a1f0c9dbbc9217b73",
        (10, 9, 8, 7, 6, 5),
    ),
    "undecodable-testmodel": (
        "4c7780638072e8538d4a697aaa23bcdb16368a055d5eeca4c84afcbc52931327",
        "f6d42e5c880b8d622f78d6a44c54e70b6e93d8330f11fb524f0071a0e22f6182",
        "252580af054250ebeca419d7322b96e63f4db74edccff08b7ef3eda9c82765eb",
        "79118fd2d6e66819451e17b5322ba2b8c363e0acf94b1083c2ddd43c7478d3ac",
        (3, 2),
    ),
}


@pytest.mark.parametrize("name,loader", LOADERS,
                         ids=[entry[0] for entry in LOADERS])
def test_tables_are_golden(name, loader):
    model, program = loader()
    assert digests(model, program) == GOLDEN[name]

