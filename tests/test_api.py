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

    def test_load_model_uncached(self):
        from repro.models import load_model as raw_load

        fresh = raw_load("tinydsp", use_cache=False)
        assert fresh is not load_model("tinydsp")
        assert fresh.name == "tinydsp"

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError):
            load_model("z80")

    def test_model_source_path_exists(self):
        import os

        from repro.models import model_source_path

        assert os.path.exists(model_source_path("c62x"))


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
