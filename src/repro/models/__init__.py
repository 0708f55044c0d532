"""Shipped processor models, written in the LISA dialect.

===========  ===================================================================
``tinydsp``  16-bit, 4-stage (IF/ID/EX/WB) flushing pipeline; the paper's
             non-orthogonal mode-bit example (Section 5.1)
``c54x``     TMS320C54x-flavoured 16-bit accumulator DSP, 6-stage pipeline
             (the paper's hand-written-simulator comparison point)
``c62x``     TMS320C6201-flavoured 32-bit VLIW DSP: 11-stage pipeline,
             8-word fetch packets with a parallel bit, exposed delay
             slots (the paper's evaluation target)
===========  ===================================================================

:func:`load_model` compiles a model's shipped text through
:func:`repro.lisa.semantics.compile_source`, so a process compiles each
model once and every later load returns the same, shared model.  The
paper's "model translation time" (E3) is timed on the uncached
compiler, ``compile_ast(parse_source(text, path), path)``.
"""

from __future__ import annotations

import os

from repro.lisa.semantics import compile_source
from repro.support.errors import ReproError

_MODEL_DIR = os.path.dirname(os.path.abspath(__file__))

MODEL_REGISTRY = {
    "tinydsp": "tinydsp.lisa",
    "c54x": "c54x.lisa",
    "c62x": "c62x.lisa",
}


def model_source_path(name):
    """Filesystem path of a shipped model's LISA source."""
    try:
        filename = MODEL_REGISTRY[name]
    except KeyError:
        raise ReproError(
            "unknown model %r (available: %s)"
            % (name, ", ".join(sorted(MODEL_REGISTRY)))
        ) from None
    return os.path.join(_MODEL_DIR, filename)


def model_source(name):
    """LISA source text of a shipped model."""
    with open(model_source_path(name), "r", encoding="utf-8") as handle:
        return handle.read()


def load_model(name):
    """A shipped model by name, compiled once per process (see
    :func:`repro.lisa.semantics.compile_source`)."""
    return compile_source(model_source(name), model_source_path(name))
