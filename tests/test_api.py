"""Tests for the high-level package API."""

import pytest

from repro import (
    build_toolset,
    compile_lisa_source,
    list_models,
    load_model,
)
from repro.support.errors import ReproError
from tests.conftest import TESTMODEL_SOURCE


class TestModelRegistry:
    def test_list_models(self):
        assert list_models() == ["c54x", "c62x", "tinydsp"]

    def test_load_model_cached(self):
        assert load_model("tinydsp") is load_model("tinydsp")

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError):
            load_model("z80")

    def test_model_source_path_exists(self):
        import os

        from repro.models import model_source_path

        assert os.path.exists(model_source_path("c62x"))


@pytest.mark.parametrize("model_name", ["tinydsp", "c62x"])
def test_shared_model_is_unchanged_by_use(model_name):
    """A loaded model is shared read-only: FIR on every kind and backend
    leaves its data base as a fresh compile builds it."""
    from repro.apps import build_fir
    from repro.lisa.database import model_to_json
    from repro.lisa.parser import parse_source
    from repro.lisa.semantics import compile_ast
    from repro.models import model_source, model_source_path
    from repro.sim import create_simulator

    model = load_model(model_name)
    app = build_fir(model_name, taps=4, samples=8)
    program = app.assemble(build_toolset(model))
    configs = [("interpretive", "auto"), ("predecoded", "auto")] + [
        (kind, backend)
        for kind in ("compiled", "static", "unfolded", "unfolded_static")
        for backend in ("auto", "native")
    ]
    for kind, backend in configs:
        simulator = create_simulator(model, kind, backend=backend)
        simulator.load_program(program)
        simulator.run(app.max_cycles)
        app.verify(simulator.state)
    path = model_source_path(model_name)
    fresh = compile_ast(parse_source(model_source(model_name), path), path)
    assert model_to_json(model) == model_to_json(fresh)
    assert load_model(model_name) is model


class TestCompileHelpers:
    def test_compile_source(self):
        model = compile_lisa_source(TESTMODEL_SOURCE, "t.lisa")
        assert model.name == "testmodel"

    def test_compile_file(self, tmp_path):
        from repro import compile_lisa_file

        path = tmp_path / "m.lisa"
        path.write_text(TESTMODEL_SOURCE)
        model = compile_lisa_file(path)
        assert model.source_filename == str(path)


class TestToolset:
    def test_components_are_cached(self, testmodel):
        tools = build_toolset(testmodel)
        assert tools.assembler is tools.assembler
        assert tools.decoder is tools.decoder
        assert tools.encoder is tools.encoder
        assert tools.disassembler is tools.disassembler
        assert tools.simulation_compiler is tools.simulation_compiler

    def test_new_simulator_kinds(self, testmodel):
        tools = build_toolset(testmodel)
        assert tools.new_simulator("interpretive").kind == "interpretive"
        assert tools.new_simulator().kind == "compiled"

    def test_build_toolset_requires_model(self):
        with pytest.raises(ReproError):
            build_toolset(None)

    def test_quickstart_from_docstring(self):
        """The package docstring example must actually work."""
        model = load_model("tinydsp")
        tools = build_toolset(model)
        program = tools.assembler.assemble_text(
            """
            start:  ldi r1, 5
                    ldi r2, 7
                    add r3, r1, r2
                    halt
            """
        )
        sim = tools.new_simulator("compiled")
        sim.load_program(program)
        sim.run()
        assert sim.state.read_register("R", 3) == 12
