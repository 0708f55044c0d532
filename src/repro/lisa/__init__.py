"""LISA-style machine description language front-end.

The flow mirrors the paper's Figure 5:

* :mod:`repro.lisa.lexer` / :mod:`repro.lisa.parser` read a LISA
  description into an AST (:mod:`repro.lisa.ast`),
* :mod:`repro.lisa.semantics` (the *LISA compiler*) checks the AST and
  produces the *model data base* (:mod:`repro.lisa.model`), from which
  the simulation-compiler generator and the tool generators work.
"""

from repro.lisa.lexer import Token, tokenize
from repro.lisa.parser import parse_source
from repro.lisa.semantics import compile_ast, compile_source
from repro.lisa.model import (
    MachineModel,
    Operation,
    PipelineDef,
    RegisterDef,
    MemoryDef,
)

__all__ = [
    "Token",
    "tokenize",
    "parse_source",
    "compile_ast",
    "compile_source",
    "MachineModel",
    "Operation",
    "PipelineDef",
    "RegisterDef",
    "MemoryDef",
]
