"""ADPCM codec in c62x assembly (the paper's second benchmark).

The paper uses the ITU G.721 codec; we implement an IMA/DVI-style ADPCM
encoder *and* decoder (same structure: adaptive quantiser + predictor +
table lookups; see DESIGN.md "Substitutions").  The quantiser is written
branch-free -- conditions become cmplt/cmpgt results combined with
multiplies and masks -- which is both how one writes fast C6x code and a
good workout for the VLIW model's exposed latencies.

Memory map (dmem):

====================  =========
step-size table       0
index-adjust table    96
input samples         128
encoder codes         2048
encoder reconstr.     4096
decoder output        6144
====================  =========

Each of the four sample regions holds one word per sample, so at most
``CODE_BASE - IN_BASE`` = 1920 samples fit before the inputs run into
the codes; :func:`build_adpcm` rejects more.
"""

from __future__ import annotations

from repro.apps.base import Application, lcg_samples
from repro.apps.golden import (
    INDEX_TABLE,
    STEP_TABLE,
    adpcm_decode_reference,
    adpcm_encode_reference,
)
from repro.support.errors import ReproError

STEP_BASE = 0
INDEX_BASE = 96
IN_BASE = 128
CODE_BASE = 2048
RECON_BASE = 4096
DEC_BASE = 6144


def _word_lines(values, per_line=10):
    lines = []
    for start in range(0, len(values), per_line):
        chunk = values[start : start + per_line]
        lines.append("        .word " + ", ".join(str(v) for v in chunk))
    return "\n".join(lines)


# The branch-free predictor update shared by encoder and decoder:
# vpdiff is in b7, the sign bit in a3; valpred (a13) and index (a14) are
# updated and clamped.  Expects the code in a8 and the step tables based
# at b14/b13; clobbers b1-b9.
_PREDICTOR_UPDATE = """
        sub b8, a0, a3         ; mask = -sign
        xor b9, b7, b8
        add b9, b9, a3         ; two's-complement negate when sign set
        add a13, a13, b9       ; valpred += signed vpdiff
        sshl b9, a13, 16
        shr a13, b9, 16        ; clamp valpred to 16 bits
        add b1, b13, a8        ; &indextab[code]
        ldw b3, b1, 0
        nop
        nop
        nop
        nop
        add a14, a14, b3       ; index += indextab[code]
        cmplt b2, a14, a0
        addk b2, -1
        and a14, a14, b2       ; clamp low: index < 0 -> 0
        cmpgt b2, a14, b15
        mv b4, b2
        addk b4, -1
        and a14, a14, b4       ; clamp high: index > 88 -> 0 ...
        sub b4, a0, b2
        and b5, b15, b4
        or a14, a14, b5        ; ... then or in 88
"""


def build_adpcm(model_name="c62x", samples=128, seed=23, amplitude=12000):
    """Build the ADPCM encode+decode application (c62x only)."""
    if model_name != "c62x":
        raise ReproError("the ADPCM codec is only generated for the c62x")
    if samples > CODE_BASE - IN_BASE:
        raise ReproError(
            "ADPCM layout overflow: %d samples, at most %d fit"
            % (samples, CODE_BASE - IN_BASE)
        )
    pcm = lcg_samples(seed, samples, amplitude)
    codes, recon = adpcm_encode_reference(pcm)
    decoded = adpcm_decode_reference(codes)
    assert decoded == recon  # decoder mirrors the encoder's predictor

    source = """
        .entry start
        .section dmem
%(step_words)s
        .org %(index_base)d
%(index_words)s
        .org %(in_base)d
%(in_words)s
        .section pmem

start:  mvk b14, %(step_base)d
        mvk b13, %(index_base)d
        mvk b12, %(in_base)d
        mvk b11, %(code_base)d
        mvk b10, %(recon_base)d
        mvk b15, 88
        mvk a12, %(samples)d
        mvk a13, 0             ; valpred
        mvk a14, 0             ; index

; ---------------- encoder ----------------
eloop:  ldw b2, b12, 0         ; sample
        addk b12, 1
        add b1, b14, a14       ; &steptab[index]
        ldw b3, b1, 0          ; step
        nop
        nop
        sub a2, b2, a13        ; diff = sample - valpred
        cmplt a3, a2, a0       ; sign
        abs a2, a2
        nop
        mv b4, b3
        addk b4, -1
        cmpgt a4, a2, b4       ; bit2 = diff >= step
        mpy a5, a4, b3
        shr b5, b3, 1          ; step1
        sub a2, a2, a5         ; diff -= bit2*step
        mv b4, b5
        addk b4, -1
        cmpgt a6, a2, b4       ; bit1 = diff >= step1
        mpy a5, a6, b5
        shr b6, b3, 2          ; step2
        sub a2, a2, a5         ; diff -= bit1*step1
        mv b4, b6
        addk b4, -1
        cmpgt a7, a2, b4       ; bit0 = diff >= step2
        shl a8, a3, 3          ; code = sign<<3 | bit2<<2 | bit1<<1 | bit0
        shl a9, a4, 2
        add a8, a8, a9
        shl a9, a6, 1
        add a8, a8, a9
        add a8, a8, a7
        shr b7, b3, 3          ; vpdiff = step>>3 + bits * step terms
        mpy a5, a4, b3
        mpy a9, a6, b5
        add b7, b7, a5
        mpy a5, a7, b6
        add b7, b7, a9
        nop
        add b7, b7, a5
%(update)s
        stw a8, b11, 0         ; emit code
        addk b11, 1
        stw a13, b10, 0        ; emit reconstructed sample
        addk b10, 1
        addk a12, -1
        bnz a12, eloop
        nop
        nop
        nop
        nop
        nop

; ---------------- decoder ----------------
        mvk a13, 0
        mvk a14, 0
        mvk b12, %(code_base)d
        mvk b10, %(dec_base)d
        mvk a12, %(samples)d
dloop:  ldw a8, b12, 0         ; code
        addk b12, 1
        add b1, b14, a14
        ldw b3, b1, 0          ; step
        nop
        nop
        shr a3, a8, 3          ; sign (codes are 4-bit)
        shr a4, a8, 2
        mvk b4, 1
        and a4, a4, b4         ; bit2
        shr a6, a8, 1
        and a6, a6, b4         ; bit1
        and a7, a8, b4         ; bit0
        shr b5, b3, 1
        shr b6, b3, 2
        shr b7, b3, 3
        mpy a5, a4, b3
        mpy a9, a6, b5
        add b7, b7, a5
        mpy a5, a7, b6
        add b7, b7, a9
        nop
        add b7, b7, a5         ; vpdiff
%(update)s
        stw a13, b10, 0
        addk b10, 1
        addk a12, -1
        bnz a12, dloop
        nop
        nop
        nop
        nop
        nop
        halt
""" % {
        "step_words": _word_lines(STEP_TABLE),
        "index_words": _word_lines(INDEX_TABLE),
        "in_words": _word_lines(pcm),
        "step_base": STEP_BASE,
        "index_base": INDEX_BASE,
        "in_base": IN_BASE,
        "code_base": CODE_BASE,
        "recon_base": RECON_BASE,
        "dec_base": DEC_BASE,
        "samples": samples,
        "update": _PREDICTOR_UPDATE,
    }

    app = Application(
        name="adpcm_c62x",
        model_name="c62x",
        source=source,
        description=(
            "IMA ADPCM encode + decode of %d samples (branch-free "
            "quantiser)" % samples
        ),
    )
    app.expected_memory = "dmem"
    app.output_base = CODE_BASE
    app.expect("dmem", CODE_BASE, codes)
    app.expect("dmem", RECON_BASE, recon)
    app.expect("dmem", DEC_BASE, decoded)
    return app
