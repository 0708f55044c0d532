"""E3 / paper Section 6 (text): model translation time.

"The complete translation of this model with the LISA compiler and the
simulation compiler generator takes less than 35 seconds on a Sparc
Ultra 10" -- for the full C6201 model with two pipelines and eleven
stages, against 12+ months for a hand-written compiled simulator of the
simpler C54x.

We time the same two steps for every shipped model: LISA compilation
(parse + semantic analysis into the model data base) and
simulation-compiler generation.  Shape assertion: seconds, not months.
"""

from __future__ import annotations

import time

from repro.bench import paper_reference
from repro.bench.reporting import ExperimentReport
from repro.lisa.parser import parse_source
from repro.lisa.semantics import compile_ast
from repro.models import MODEL_REGISTRY, model_source, model_source_path
from repro.simcc import generate_simulation_compiler


def _translate(name):
    text, path = model_source(name), model_source_path(name)
    start = time.perf_counter()
    # the uncached compiler: compile_source would return the process's
    # stored model after the first call
    model = compile_ast(parse_source(text, path), path)
    lisa_time = time.perf_counter() - start
    start = time.perf_counter()
    generate_simulation_compiler(model)
    generator_time = time.perf_counter() - start
    return model, lisa_time, generator_time


def test_model_translation_time(benchmark):
    report = ExperimentReport(
        "E3-translation",
        "LISA compiler + simulation-compiler generator wall-clock",
        "< %.0f s for the full C6201 model (Sparc Ultra 10)"
        % paper_reference("model_translation_s"),
    )
    for name in sorted(MODEL_REGISTRY):
        model, lisa_time, generator_time = _translate(name)
        total = lisa_time + generator_time
        report.add_row(
            model=name,
            operations=len(model.operations),
            pipeline_depth=model.pipeline.depth,
            lisa_s=lisa_time,
            simcc_gen_s=generator_time,
            total_s=total,
        )
        assert total < paper_reference("model_translation_s"), (
            "model translation of %r took %.1f s; the paper's bound is "
            "35 s on 1999 hardware" % (name, total)
        )
    report.emit()

    benchmark.pedantic(
        lambda: _translate("c62x"), rounds=3, iterations=1
    )
