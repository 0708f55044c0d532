"""Assembled images are pinned: a faster assembler must emit the same
bytes.

Every program the three gated ledger workloads assemble (at seeds 11
and 23) and every application of the cross-backend ``APP_MATRIX`` is
assembled and hashed as its segments, symbols, entry point and the
packet collisions ``repro-lint`` finds in it.  The digests were
recorded with the backtracking assembler that matched and encoded
every line afresh, before the per-line match memo, the per-spec
encoding memo and the plain ``.word`` fast path.
"""

import hashlib
import json

import pytest

from repro.analysis import analyze_program
from repro.api import build_toolset
from repro.apps import build_adpcm, build_fir, build_gsm, build_synthetic
from repro.models import load_model


def _ledger_programs(seed):
    """The programs of ``short_warm``, ``long_native`` and
    ``python_engines`` at ``seed``, as the ledger builds them."""
    return {
        "short_warm/fir16x48": lambda: build_fir(
            "c62x", taps=16, samples=48, seed=seed),
        "short_warm/adpcm256": lambda: build_adpcm(
            "c62x", samples=256, seed=seed + 1),
        "short_warm/syn256b0": lambda: build_synthetic(
            "c62x", 256, 0.0, 8, seed=seed + 2),
        "short_warm/syn256b20": lambda: build_synthetic(
            "c62x", 256, 0.2, 8, seed=seed + 3),
        "long_native/fir128x3840": lambda: build_fir(
            "c62x", taps=128, samples=3840, seed=seed),
        "long_native/syn256b0": lambda: build_synthetic(
            "c62x", 256, 0.0, 32000, seed=seed + 1),
        "long_native/syn256b20": lambda: build_synthetic(
            "c62x", 256, 0.2, 32000, seed=seed + 2),
        "python_engines/adpcm256": lambda: build_adpcm(
            "c62x", samples=256, seed=seed),
        "python_engines/fir16x128": lambda: build_fir(
            "c62x", taps=16, samples=128, seed=seed + 1),
        "python_engines/syn256b20": lambda: build_synthetic(
            "c62x", 256, 0.2, 32, seed=seed + 2),
    }


PROGRAMS = {
    "app_matrix/fir-c62x": lambda: build_fir("c62x", taps=4, samples=8),
    "app_matrix/fir-c54x": lambda: build_fir("c54x", taps=4, samples=8),
    "app_matrix/fir-tinydsp": lambda: build_fir("tinydsp", taps=4,
                                                samples=8),
    "app_matrix/adpcm-c62x": lambda: build_adpcm(samples=16),
    "app_matrix/gsm-c62x": lambda: build_gsm(target_words=1024),
}
for _seed in (11, 23):
    for _name, _builder in _ledger_programs(_seed).items():
        PROGRAMS["s%d/%s" % (_seed, _name)] = _builder


def image_digest(model, program):
    """SHA-256 of everything the assembler decides about a program,
    plus the packet collisions ``repro-lint`` finds in it (the
    assembler reported those itself when the digests were recorded)."""
    report = analyze_program(model, program, ir_lint=False).report
    record = {
        "segments": [[s.memory, s.base, list(s.words)]
                     for s in program.segments],
        "symbols": sorted(program.symbols.items()),
        "entry": program.entry,
        "lint_warnings": [finding.message for finding in report
                          if finding.check == "packet.collision"],
    }
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode("utf-8")
    ).hexdigest()


def assemble(name):
    """The program ``name`` assembled, with its model."""
    app = PROGRAMS[name]()
    model = load_model(app.model_name)
    return model, build_toolset(model).assembler.assemble_text(
        app.source, name=app.name
    )


IMAGE_DIGESTS = {
    "app_matrix/adpcm-c62x":
        "a9ea77791f105b82efaa31f9e82b08d50cf280ca0d4bfaceaaa923f16554f093",
    "app_matrix/fir-c54x":
        "9e718efa248d66ca487eb856b9907d472c6e29a88d043611428bcf7c7d271d6b",
    "app_matrix/fir-c62x":
        "ce6fa9707d8d197b262525586872cb7e13e51e3199203637174768f2a69d03f6",
    "app_matrix/fir-tinydsp":
        "8e1cc1f906db915935ee2bee4b75142954e00dadf9f4f6d5ed449065419ce524",
    "app_matrix/gsm-c62x":
        "2a654832bf5ccfe7b2c3ff6c79614faa1a08454a91aabd0cd05484398900e882",
    "s11/long_native/fir128x3840":
        "9e0bcbfdb052a4665469ec6a07ebf64907300e4f2665d2c3947869371c1cf67c",
    "s11/long_native/syn256b0":
        "7ef73af5ee8840b84c7647d92ada4e72a25c7658bccec18d029ae7dccc9a859e",
    "s11/long_native/syn256b20":
        "e68a93b72fd4a69c693671da47a1241f29ec002a2105683ab240ecdf9928cfda",
    "s11/python_engines/adpcm256":
        "ebc2d97bab84475ac8ae20840b3b2b8aef5a3de3ccb9256300ab77e997e23496",
    "s11/python_engines/fir16x128":
        "946dab12f21222234a44408207cdad93da019f3d47f6bf0542e7f938ef9fcefe",
    "s11/python_engines/syn256b20":
        "f3da7777b5ef19c2cfc40b65d1949d5039cf1efc336d710c63a1ad89aebb7905",
    "s11/short_warm/adpcm256":
        "b1c5045c1e4b853fc1d3b13b04ee37464f97cb5efb8ba2a702937cbb1bdf3faa",
    "s11/short_warm/fir16x48":
        "c2800d0199d682676bb4b6e659b61d2ca0a6c1209f6c915e4fe9e62f8721ce33",
    "s11/short_warm/syn256b0":
        "ecbda2a0b522f103ffc08e06b102865ebed0b2a0c5c69b6953663a3dd7bb8d33",
    "s11/short_warm/syn256b20":
        "f8087db54efc58c4fd025263f7bf35c753f2f7391f027b40ee81c396df932f7b",
    "s23/long_native/fir128x3840":
        "2f8d0c4742a60f4543360f2c146f76c65b249818ad3bfdde156412d8c8ac99e7",
    "s23/long_native/syn256b0":
        "673526a520495362c006f250d35ed0415f0ae5f8320db0bfd7687d39fb843773",
    "s23/long_native/syn256b20":
        "d327da70819c665cfa9b6dc2f28c837fa945c565f4746971743eda515b5c9793",
    "s23/python_engines/adpcm256":
        "f24114d161d9906513b55967d3b6400eba44407cf4fbcc4481528e0b48cc0111",
    "s23/python_engines/fir16x128":
        "c88284f6df2d905312afb4f84f0da3b663e5251453420a6c7cfb7ad6f0c479e2",
    "s23/python_engines/syn256b20":
        "7cd1db666f60936c1f46c7b489e95e7156ffaa1941581820acee9ecc8247b897",
    "s23/short_warm/adpcm256":
        "39b66e23c3550b217df118ab970e62adfd58c3db1d646b6ffb56bf8eb7aa715b",
    "s23/short_warm/fir16x48":
        "b03b6125f17e2f02c429cdde963dadde81ff1fae604c41ebd3011823b84a9a39",
    "s23/short_warm/syn256b0":
        "8fb5383cc5deb243db3844640f87ba546fd46b15d9672398a5a8e4b20e340a54",
    "s23/short_warm/syn256b20":
        "2d3226b8259785663cef479bf412d422891cdb35f071621e4543c27e67ce80e9",
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_assembled_image_is_pinned(name):
    assert image_digest(*assemble(name)) == IMAGE_DIGESTS[name]
