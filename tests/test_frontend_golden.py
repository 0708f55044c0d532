"""Golden front end: token streams, model digests and lexer errors.

Every token the lexer produces for the shipped models, the benchmark
applications and the example programs is hashed as
``(kind, text, value, line, column)`` and compared with recorded
digests, so any change to a kind, spelling, value or location of any
token shows here.  Model digests identify the model in checkpoints, so
pinning them keeps existing checkpoints resumable across front-end
changes; they sit next to the cache's ``FORMAT_VERSION`` because the
cache keys by the LISA text and only a format bump can invalidate it.
"""

import hashlib
import importlib.util
import os

import pytest

from repro.apps import build_adpcm, build_fir, build_gsm, build_synthetic
from repro.lisa.lexer import tokenize
from repro.lisa.semantics import compile_source
from repro.models import model_source
from repro.simcc.cache import FORMAT_VERSION, model_digest
from repro.support.errors import LisaSyntaxError
from repro.tools.asm import _strip_comment

_EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def _digest(tokens):
    digest = hashlib.sha256()
    for t in tokens:
        record = (t.kind, t.text, t.value, t.location.line,
                  t.location.column)
        digest.update(repr(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _assembly_tokens(source):
    """Tokens of every line the way the assembler scans them."""
    tokens = []
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if line:
            tokens.extend(tokenize(line, "<asm:%d>" % line_no))
    return tokens


def _example_constant(module_name, constant):
    path = os.path.join(_EXAMPLES, module_name + ".py")
    spec = importlib.util.spec_from_file_location(
        "example_" + module_name, path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, constant)


LISA_SOURCES = {
    "model:tinydsp": lambda: model_source("tinydsp"),
    "model:c54x": lambda: model_source("c54x"),
    "model:c62x": lambda: model_source("c62x"),
    "example:retarget_new_dsp.RISCLING":
        lambda: _example_constant("retarget_new_dsp", "RISCLING"),
    "example:kernel_compiler.KERNEL":
        lambda: _example_constant("kernel_compiler", "KERNEL"),
}

ASSEMBLY_SOURCES = {
    "fir:tinydsp": lambda: build_fir("tinydsp").source,
    "fir:c54x": lambda: build_fir("c54x", taps=8, samples=32).source,
    "fir:c62x": lambda: build_fir("c62x", taps=16, samples=48).source,
    "adpcm:c62x": lambda: build_adpcm("c62x", samples=256).source,
    "gsm:c62x": lambda: build_gsm("c62x").source,
    "synthetic:c62x-256-0.0": lambda: build_synthetic(
        "c62x", target_words=256, branch_density=0.0, seed=11).source,
    "synthetic:c62x-256-0.2": lambda: build_synthetic(
        "c62x", target_words=256, branch_density=0.2, seed=11).source,
    "synthetic:tinydsp-128-0.2": lambda: build_synthetic(
        "tinydsp", target_words=128, branch_density=0.2, seed=23).source,
    "example:quickstart.PROGRAM":
        lambda: _example_constant("quickstart", "PROGRAM"),
    "example:pipeline_trace.PROGRAM":
        lambda: _example_constant("pipeline_trace", "PROGRAM"),
    "example:cosim_stream.PROGRAM":
        lambda: _example_constant("cosim_stream", "PROGRAM"),
    "example:emit_standalone_simulator.PROGRAM":
        lambda: _example_constant("emit_standalone_simulator", "PROGRAM"),
    "example:retarget_new_dsp.DEMO":
        lambda: _example_constant("retarget_new_dsp", "DEMO"),
}

TOKEN_DIGESTS = {
    "example:kernel_compiler.KERNEL":
        "f309d2896197526d6a86dc2ad55b7cc997aea7690963ab0833660d534fd94408",
    "example:retarget_new_dsp.RISCLING":
        "dcea7f89299527c41f513457380c961cbc32d74928e82376751a0e26fce254fc",
    "model:c54x":
        "77b219de55c927ff938e36738119a5d7f3c9035fb9f0770856af5ea0cbfd2d34",
    "model:c62x":
        "3c8df42169a49161d1e1092779e8af7a509d5c33f3ef8f2357a211f68dde6c6f",
    "model:tinydsp":
        "3514cfff764097a5f099a9cf7443222aa42746b0d7616a101eba92fe4df39373",
    "adpcm:c62x":
        "c3ab5cbf91b5fd0c21d67bcf81fbb6cc94acfe51c0ec0767027b759589d7130b",
    "example:cosim_stream.PROGRAM":
        "5096bee89833ca41b0bd1892503cb314e8b677f901935f723cc566ae63c925cd",
    "example:emit_standalone_simulator.PROGRAM":
        "bd1510454fea61ee0eae00a9e74b1b3c790ffc3b8159f6920dfba40e0f3f5f10",
    "example:pipeline_trace.PROGRAM":
        "6fd1606a6cc23e6a9a53abb00d0a733386ddbc97f19c49e7c9c63ed9f815c28c",
    "example:quickstart.PROGRAM":
        "16dd1c4c12a8fbe5a45d138ff0a2e59c36bb71347eecff3ae593beee194b5965",
    "example:retarget_new_dsp.DEMO":
        "018b701d228342a31e1cc3174b0b1430c73de68a07477fd92e5430d2e9847caa",
    "fir:c54x":
        "a0745367beea2dddbf0d06be1ad78fae44059ff39eb1c1013ca9171cffe9e740",
    "fir:c62x":
        "cab1b09ff4266444b51addb422072975bfc527d121e4de91c6a6f75201ba99de",
    "fir:tinydsp":
        "899b3fee76fa2c09a50f4c5f8f52e5c510987626815a4cb02ac47ecc43f0ffc0",
    "gsm:c62x":
        "6f1cfd67eb3e2b8ada8a7b9e695818b9948b0d6a1c775dc248c18ca23688a68a",
    "synthetic:c62x-256-0.0":
        "cb68c0449891274d37779c664e74b521d3549dec2595af55550cfa383578260e",
    "synthetic:c62x-256-0.2":
        "6edcbf4f55b6cfad5ab39c562f24355b921164fe1ccab6b845cc8be20ede6c00",
    "synthetic:tinydsp-128-0.2":
        "b0d6739d107605b4d3864fa9a26f881acee065f5ceb3ef48bf7b11617c2e67f3",
}

MODEL_DIGESTS = {
    "c54x": "7fb0d3a41c81f87cad61b1b7a8db47f8bbb7844ca58bb48013dffe645c951510",
    "c62x": "0465caa2ef05586be60a24388632d80960999c686281974198f26d4ea9391ac5",
    "tinydsp": "b0dee527af8676fee1e827779a9adde68ac32269b0ebf0fcd57c193246167890",
}


@pytest.mark.parametrize("name", sorted(LISA_SOURCES))
def test_lisa_token_stream(name):
    tokens = tokenize(LISA_SOURCES[name](), "golden.lisa")
    assert _digest(tokens) == TOKEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ASSEMBLY_SOURCES))
def test_assembly_token_stream(name):
    tokens = _assembly_tokens(ASSEMBLY_SOURCES[name]())
    assert _digest(tokens) == TOKEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_model_digest(name):
    # The simulation cache keys tables by the LISA text, not by this
    # digest.  A change that moves a digest here changes the model the
    # same text compiles to: bump FORMAT_VERSION with the new pins, or
    # warm caches serve tables of the old model.
    assert FORMAT_VERSION == 11
    model = compile_source(model_source(name), name + ".lisa")
    assert model_digest(model) == MODEL_DIGESTS[name]


@pytest.mark.parametrize("source, expected", [
    ("a\n  /* never ends",
     "f.lisa:2:3: unterminated block comment"),
    ("a\n  0x;",
     "f.lisa:2:3: incomplete hex literal '0x'"),
    ("a\n  0B2",
     "f.lisa:2:3: incomplete binary literal '0B'"),
    ("a\n  12abc",
     "f.lisa:2:5: invalid character 'a' after number '12'"),
    ('a\n  "abc',
     "f.lisa:2:3: unterminated string literal"),
    ('a\n  "ab\\q"',
     "f.lisa:2:6: unknown escape sequence \\q"),
    ("a\n  $ b",
     "f.lisa:2:3: unexpected character '$'"),
])
def test_lexer_error_message_and_location(source, expected):
    with pytest.raises(LisaSyntaxError) as exc_info:
        tokenize(source, "f.lisa")
    assert str(exc_info.value) == expected
