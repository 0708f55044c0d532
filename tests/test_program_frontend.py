"""The program front end decodes each word once and lowers each
schedule item once per load, whichever consumer asks.

Counts ``InstructionDecoder.decode`` calls and top-level
``Lowerer.lower_statements`` calls (one per schedule item; the lowerer
recurses into nested blocks through the same method).
"""

from __future__ import annotations

import pytest

from repro.apps import build_adpcm, build_fir, build_synthetic
from repro.coding.decoder import InstructionDecoder
from repro.sim import create_simulator
from repro.simcc import ir

TABLE_KINDS = ("compiled", "static", "unfolded", "unfolded_static")

#: ADPCM-256 on c62x: 143 program words, 167 schedule items.
ADPCM_WORDS = 143
ADPCM_ITEMS = 167


@pytest.fixture
def counts(monkeypatch):
    """Live ``{"decode": n, "lower": n}`` call counters."""
    tally = {"decode": 0, "lower": 0}
    nesting = [0]
    decode = InstructionDecoder.decode
    lower = ir.Lowerer.lower_statements

    def counted_decode(self, word, address=None):
        tally["decode"] += 1
        return decode(self, word, address=address)

    def counted_lower(self, statements, node, depth=0):
        if not nesting[0]:
            tally["lower"] += 1
        nesting[0] += 1
        try:
            return lower(self, statements, node, depth)
        finally:
            nesting[0] -= 1

    monkeypatch.setattr(InstructionDecoder, "decode", counted_decode)
    monkeypatch.setattr(ir.Lowerer, "lower_statements", counted_lower)
    return tally


@pytest.fixture(scope="module")
def adpcm(c62x_tools):
    program = build_adpcm("c62x", samples=256).assemble(c62x_tools)
    assert len(program.segments_in("pmem")[0].words) == ADPCM_WORDS
    return program


def _load_counts(model, program, counts, kind, backend="auto"):
    simulator = create_simulator(model, kind, backend=backend)
    counts.update(decode=0, lower=0)
    simulator.load_program(program)
    return counts["decode"], counts["lower"]


# The ids name the path: ``auto`` runs the table in Python.
@pytest.mark.parametrize("backend", ["auto", "native"],
                         ids=["python", "native"])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_table_load_decodes_and_lowers_each_word_once(
        c62x, adpcm, counts, kind, backend):
    assert _load_counts(c62x, adpcm, counts, kind, backend) == (
        ADPCM_WORDS, ADPCM_ITEMS,
    )


def test_predecoded_load_decodes_once_and_lowers_nothing(
        c62x, adpcm, counts):
    assert _load_counts(c62x, adpcm, counts, "predecoded") == (
        ADPCM_WORDS, 0,
    )


def test_interpretive_load_decodes_nothing(c62x, adpcm, counts):
    assert _load_counts(c62x, adpcm, counts, "interpretive") == (0, 0)


@pytest.mark.parametrize("name,builder", [
    ("fir16x48", lambda: build_fir("c62x", taps=16, samples=48, seed=11)),
    ("adpcm256", lambda: build_adpcm("c62x", samples=256, seed=12)),
    ("syn256b0", lambda: build_synthetic("c62x", 256, 0.0, 8, seed=13)),
    ("syn256b20", lambda: build_synthetic("c62x", 256, 0.2, 8, seed=14)),
])
def test_assembly_decodes_and_lowers_nothing(c62x_tools, counts, name,
                                             builder):
    """Packet collisions are ``repro-lint``'s to find: assembly
    decodes and lowers no word, multi-word packets (FIR 16x48)
    included."""
    app = builder()
    counts.update(decode=0, lower=0)
    app.assemble(c62x_tools)
    assert (counts["decode"], counts["lower"]) == (0, 0)
