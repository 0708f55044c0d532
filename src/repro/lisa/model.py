"""The machine-model data base produced by the LISA compiler.

This is the central artefact of the tool flow (the paper's "data base" in
its Figure 5): a checked, queryable representation of the processor from
which the decoder, the assembler/disassembler, the interpretive simulator
and the simulation compiler are all generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.behavior import ast as bast
from repro.support.bitutils import BitPattern, canonicalize
from repro.support.errors import LisaSemanticError

# -- data types --------------------------------------------------------------


@dataclass(frozen=True)
class DataType:
    """A storage element type: bit width and signedness."""

    name: str
    width: int
    signed: bool

    @property
    def mask(self):
        return (1 << self.width) - 1

    def canonical(self, value):
        """Encode ``value`` into this type's canonical Python integer.

        Signed types are stored as signed Python ints so that reads (which
        dominate simulation time) need no conversion.  Delegates to
        :func:`repro.support.bitutils.canonicalize`, the shared formula.
        """
        return canonicalize(value, self.width, self.signed)


_TYPE_LIST = [
    DataType("bit", 1, False),
    DataType("int8", 8, True),
    DataType("uint8", 8, False),
    DataType("int16", 16, True),
    DataType("uint16", 16, False),
    DataType("int32", 32, True),
    DataType("uint32", 32, False),
    # 40-bit guard-bit accumulators (TMS320C54x style).
    DataType("int40", 40, True),
    DataType("uint40", 40, False),
    DataType("int64", 64, True),
    DataType("uint64", 64, False),
]

_TYPE_ALIASES = {
    "char": "int8",
    "uchar": "uint8",
    "short": "int16",
    "ushort": "uint16",
    "int": "int32",
    "uint": "uint32",
    "long": "int64",
    "ulong": "uint64",
    "word": "uint32",
}

TYPES = {t.name: t for t in _TYPE_LIST}
TYPES.update({alias: TYPES[name] for alias, name in _TYPE_ALIASES.items()})


def lookup_type(name, location=None):
    try:
        return TYPES[name]
    except KeyError:
        raise LisaSemanticError("unknown type %r" % name, location) from None


# -- resources ---------------------------------------------------------------


@dataclass(frozen=True)
class RegisterDef:
    """A scalar register or register file.  ``count`` is None for scalars."""

    name: str
    dtype: DataType
    count: Optional[int]

    @property
    def is_file(self):
        return self.count is not None


@dataclass(frozen=True)
class MemoryDef:
    """A linear, word-addressed memory of ``size`` elements."""

    name: str
    dtype: DataType
    size: int


@dataclass(frozen=True)
class PipelineDef:
    """An ordered list of pipeline stage names."""

    name: str
    stages: Tuple[str, ...]

    def stage_index(self, stage_name):
        try:
            return self.stages.index(stage_name)
        except ValueError:
            raise LisaSemanticError(
                "pipeline %r has no stage %r" % (self.name, stage_name)
            ) from None

    @property
    def depth(self):
        return len(self.stages)


# -- model configuration -----------------------------------------------------


@dataclass
class ModelConfig:
    """Model-wide knobs set by the CONFIG block.

    word_size
        Instruction word width in bits (program memory element width).
    program_memory
        Name of the memory resource that holds instructions.
    fetch_packet_words
        Words fetched per cycle; >1 enables VLIW dispatch (the
        TMS320C6x-style fetch packets the paper highlights).
    parallel_bit
        Bit index (from LSB) whose value 1 chains the *next* word into the
        same execute packet.  Only meaningful for fetch packets > 1.
    root_operation
        Name of the operation whose coding tree describes a full
        instruction word.
    execute_stage
        Default stage for operations declared without ``IN pipe.STAGE``.
    branch_policy
        "flush": a PC write squashes younger in-flight instructions
        (interlocked pipelines).  "delay": younger instructions complete
        (exposed delay slots, C6x style).
    defines
        Symbolic constants usable in behaviours and IF/SWITCH conditions.
    """

    word_size: int = 32
    program_memory: Optional[str] = None
    fetch_packet_words: int = 1
    parallel_bit: Optional[int] = None
    root_operation: str = "instruction"
    execute_stage: Optional[str] = None
    branch_policy: str = "flush"
    defines: Dict[str, int] = field(default_factory=dict)


# -- operation sections ------------------------------------------------------


@dataclass(frozen=True)
class CodingPattern:
    """Literal bits inside a coding sequence."""

    pattern: BitPattern

    @property
    def width(self):
        return self.pattern.width


@dataclass(frozen=True)
class CodingLabel:
    """An extracted integer field (LABEL) with explicit width."""

    name: str
    width: int


@dataclass(frozen=True)
class CodingGroup:
    """A sub-operation slot: the named GROUP/INSTANCE selects and the
    selected alternative's coding occupies ``width`` bits."""

    name: str
    width: int


@dataclass(frozen=True)
class SyntaxLiteral:
    text: str


@dataclass(frozen=True)
class SyntaxRef:
    name: str


@dataclass(frozen=True)
class Syntax:
    """A parsed SYNTAX section: literals and operand references."""

    elements: Tuple[object, ...]


@dataclass(frozen=True)
class Behavior:
    """A parsed BEHAVIOR section."""

    statements: tuple


@dataclass(frozen=True)
class Expression:
    """A parsed EXPRESSION section (single expression)."""

    expression: bast.Node


@dataclass(frozen=True)
class Activation:
    """ACTIVATION section: names of groups/instances/operations to fire."""

    names: Tuple[str, ...]


@dataclass(frozen=True)
class IfSections:
    """Decode-time-conditional sections (non-orthogonal coding support)."""

    condition: bast.Node
    then_items: tuple
    else_items: tuple


@dataclass(frozen=True)
class SwitchSections:
    selector: bast.Node
    cases: tuple  # of (value_expr_or_None, items_tuple)


# -- operations --------------------------------------------------------------


@dataclass
class Operation:
    """One OPERATION of the model, semantically checked.

    ``items`` is the ordered tree of sections where IfSections /
    SwitchSections nodes guard decode-time variants.  ``coding`` and the
    declare-section results are hoisted out because they must be
    unconditional (enforced by semantic analysis).
    """

    name: str
    stage: Optional[str]  # stage name within the model pipeline, or None
    groups: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    instances: Dict[str, str] = field(default_factory=dict)
    labels: Tuple[str, ...] = ()
    references: Tuple[str, ...] = ()
    coding: Optional[Tuple[object, ...]] = None  # Coding* elements
    items: tuple = ()  # Behavior/Expression/Activation/Syntax*/If/Switch
    coding_width: Optional[int] = None

    @property
    def has_coding(self):
        return self.coding is not None

    def declared_operands(self):
        """Names of operands this operation declares itself."""
        names = set(self.labels)
        names.update(self.groups)
        names.update(self.instances)
        return names

    def child_slots(self):
        """All (name -> alternatives) sub-operation slots, groups first."""
        slots = {name: alts for name, alts in self.groups.items()}
        slots.update(
            {name: (op,) for name, op in self.instances.items()}
        )
        return slots

    def _select_items(self, items, env, model):
        selected = []
        for item in items:
            if isinstance(item, IfSections):
                if evaluate_condition(item.condition, env, model):
                    selected.extend(
                        self._select_items(item.then_items, env, model)
                    )
                else:
                    selected.extend(
                        self._select_items(item.else_items, env, model)
                    )
            elif isinstance(item, SwitchSections):
                selector = evaluate_condition(item.selector, env, model)
                matched = False
                default_items = None
                for value_expr, case_items in item.cases:
                    if value_expr is None:
                        default_items = case_items
                        continue
                    value = evaluate_condition(value_expr, env, model)
                    if _cond_equal(selector, value):
                        selected.extend(
                            self._select_items(case_items, env, model)
                        )
                        matched = True
                        break
                if not matched and default_items is not None:
                    selected.extend(
                        self._select_items(default_items, env, model)
                    )
            else:
                selected.append(item)
        return selected

    def resolve_variant(self, env, model):
        """Resolve IF/SWITCH section guards against a decode environment.

        ``env`` maps operand names to values: ints for labels, selected
        operation names (strings) for groups/instances.  Returns an
        :class:`OperationVariant` with the effective flat sections.

        This is the decode-time/run-time split at the heart of the paper's
        Section 5.1: the simulation compiler calls this once per program
        instruction; the interpretive simulator calls it on every fetch.
        """
        selected = self._select_items(self.items, env, model)
        behaviors = []
        expression = None
        activations = []
        syntax = None
        for item in selected:
            if isinstance(item, Behavior):
                behaviors.append(item)
            elif isinstance(item, Expression):
                expression = item
            elif isinstance(item, Activation):
                activations.extend(item.names)
            elif isinstance(item, Syntax):
                syntax = item
        return OperationVariant(
            operation=self,
            behaviors=tuple(behaviors),
            expression=expression,
            activations=tuple(activations),
            syntax=syntax,
        )

    def syntax_variants(self, model):
        """Enumerate SYNTAX variants with solved guard bindings.

        Returns a list of ``(syntax, bindings, usable)`` tuples, one per
        guard path that contains a SYNTAX section.  ``bindings`` maps
        REFERENCEd/own coding-field names to the values implied by the
        guards along the path (e.g. ``{"mode": 0}`` inside ``IF (mode ==
        0)``); ``usable`` is False when a guard could not be solved to
        positive bindings (such variants decode and simulate fine but
        cannot be *assembled*).

        This is what makes the paper's non-orthogonal coding fields
        (Section 5.1) round-trip through the generated assembler and
        disassembler: the mnemonic chosen under ``IF (mode == short)``
        implies ``mode = short`` when assembling.
        """
        results = []
        for items, bindings, usable in _variant_paths(self.items, model):
            syntax = None
            for item in items:
                if isinstance(item, Syntax):
                    syntax = item
            if syntax is not None:
                results.append((syntax, bindings, usable))
        return results

    def all_section_variants(self):
        """Enumerate every (path of guard choices -> flat item list).

        Used by generators that must emit code for *all* variants (the
        assembler syntax table and the simulation-compiler source
        emitter).  Yields flat item lists; guard conditions are not
        returned because the callers only need the union of sections.
        """
        def expand(items):
            results = [[]]
            for item in items:
                if isinstance(item, IfSections):
                    branches = expand(item.then_items) + expand(item.else_items)
                    results = [r + b for r in results for b in branches]
                elif isinstance(item, SwitchSections):
                    branches = []
                    for _value, case_items in item.cases:
                        branches.extend(expand(case_items))
                    if not branches:
                        branches = [[]]
                    results = [r + b for r in results for b in branches]
                else:
                    results = [r + [item] for r in results]
            return results

        return expand(self.items)


@dataclass(frozen=True)
class OperationVariant:
    """The effective sections of an operation after guard resolution."""

    operation: Operation
    behaviors: tuple
    expression: Optional[Expression]
    activations: Tuple[str, ...]
    syntax: Optional[tuple]


def _cond_equal(left, right):
    return left == right


def _guard_value(node, model):
    """Literal value of a guard operand: int literal or DEFINE constant."""
    if isinstance(node, bast.IntLit):
        return node.value
    if isinstance(node, bast.Name) and node.name in model.config.defines:
        return model.config.defines[node.name]
    return None


def _solve_equalities(condition, model):
    """Solve a guard into positive bindings {field: value}, or None.

    Handles conjunctions of ``name == literal`` comparisons; anything
    else is unsolvable (returns None).
    """
    if isinstance(condition, bast.Binary):
        if condition.op == "&&":
            left = _solve_equalities(condition.left, model)
            right = _solve_equalities(condition.right, model)
            if left is None or right is None:
                return None
            for name, value in right.items():
                if left.get(name, value) != value:
                    return None  # contradictory conjunction
            left.update(right)
            return left
        if condition.op == "==":
            if isinstance(condition.left, bast.Name):
                value = _guard_value(condition.right, model)
                if value is not None:
                    return {condition.left.name: value}
            if isinstance(condition.right, bast.Name):
                value = _guard_value(condition.left, model)
                if value is not None:
                    return {condition.right.name: value}
    return None


def label_width(model, name):
    """The unique coding width of label ``name`` across the model.

    Returns None when the name is not a coding label or is declared with
    several different widths (then negated 1-bit guard solving is off).
    """
    widths = set()
    for operation in model.operations.values():
        if not operation.has_coding:
            continue
        for element in operation.coding:
            if isinstance(element, CodingLabel) and element.name == name:
                widths.add(element.width)
    if len(widths) == 1:
        return next(iter(widths))
    return None


def _solve_negation(condition, model):
    """Solve the *negation* of a guard into bindings, for ELSE arms.

    Only the 1-bit-field case is decidable: ``!(mode == 0)`` with a
    1-bit ``mode`` implies ``mode = 1``.
    """
    solved = _solve_equalities(condition, model)
    if solved is None or len(solved) != 1:
        return None
    (name, value), = solved.items()
    if label_width(model, name) != 1 or value not in (0, 1):
        return None
    return {name: 1 - value}


def _merge_bindings(base, extra):
    if extra is None:
        return None
    merged = dict(base)
    for name, value in extra.items():
        if merged.get(name, value) != value:
            return None  # contradictory path
    merged.update(extra)
    return merged


def _variant_paths(items, model):
    """Expand guard paths into (flat_items, bindings, usable) tuples."""
    paths = [((), {}, True)]
    for item in items:
        if isinstance(item, IfSections):
            arms = []
            then_bind = _solve_equalities(item.condition, model)
            else_bind = _solve_negation(item.condition, model)
            arms.append((item.then_items, then_bind))
            arms.append((item.else_items, else_bind))
            paths = _expand_arms(paths, arms, model)
        elif isinstance(item, SwitchSections):
            arms = []
            for value_expr, case_items in item.cases:
                binding = None
                if value_expr is not None and isinstance(
                    item.selector, bast.Name
                ):
                    value = _guard_value(value_expr, model)
                    if value is not None:
                        binding = {item.selector.name: value}
                arms.append((case_items, binding))
            paths = _expand_arms(paths, arms, model)
        else:
            paths = [
                (flat + (item,), bindings, usable)
                for flat, bindings, usable in paths
            ]
    return paths


def _expand_arms(paths, arms, model):
    expanded = []
    for flat, bindings, usable in paths:
        for arm_items, arm_binding in arms:
            if arm_binding is None:
                arm_bindings, arm_usable = bindings, False
            else:
                merged = _merge_bindings(bindings, arm_binding)
                if merged is None:
                    continue  # contradictory: this path cannot decode
                arm_bindings, arm_usable = merged, usable
            for sub in _variant_paths(list(arm_items), model):
                sub_flat, sub_bindings, sub_usable = sub
                merged = _merge_bindings(arm_bindings, sub_bindings)
                if merged is None:
                    continue
                expanded.append(
                    (flat + sub_flat, merged, arm_usable and sub_usable)
                )
    return expanded


def evaluate_condition(node, env, model):
    """Evaluate a decode-time condition/selector expression.

    Only a restricted expression subset is allowed: integer literals,
    names (operand values, model defines, or bare operation names used as
    symbolic constants for group comparisons), unary/binary arithmetic
    and logic.  Calls and indexing are rejected -- conditions must be
    resolvable from the instruction encoding alone, which is exactly what
    makes them compile-time for the simulation compiler.
    """
    if isinstance(node, bast.IntLit):
        return node.value
    if isinstance(node, bast.Name):
        if node.name in env:
            return env[node.name]
        if node.name in model.config.defines:
            return model.config.defines[node.name]
        if node.name in model.operations:
            return node.name  # symbolic: compare group selection by op name
        raise LisaSemanticError(
            "condition references unknown name %r" % node.name, node.location
        )
    if isinstance(node, bast.Unary):
        value = evaluate_condition(node.operand, env, model)
        if node.op == "-":
            return -value
        if node.op == "~":
            return ~value
        if node.op == "!":
            return 0 if value else 1
    if isinstance(node, bast.Binary):
        left = evaluate_condition(node.left, env, model)
        if node.op == "&&":
            return 1 if (left and evaluate_condition(node.right, env, model)) else 0
        if node.op == "||":
            return 1 if (left or evaluate_condition(node.right, env, model)) else 0
        right = evaluate_condition(node.right, env, model)
        if node.op == "==":
            return 1 if left == right else 0
        if node.op == "!=":
            return 1 if left != right else 0
        ops = {
            "<": lambda a, b: 1 if a < b else 0,
            ">": lambda a, b: 1 if a > b else 0,
            "<=": lambda a, b: 1 if a <= b else 0,
            ">=": lambda a, b: 1 if a >= b else 0,
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "&": lambda a, b: a & b,
            "|": lambda a, b: a | b,
            "^": lambda a, b: a ^ b,
            "<<": lambda a, b: a << b,
            ">>": lambda a, b: a >> b,
        }
        if node.op in ops:
            return ops[node.op](left, right)
    if isinstance(node, bast.Ternary):
        if evaluate_condition(node.condition, env, model):
            return evaluate_condition(node.if_true, env, model)
        return evaluate_condition(node.if_false, env, model)
    raise LisaSemanticError(
        "unsupported construct in decode-time condition: %r" % (node,),
        getattr(node, "location", None),
    )


# -- the model ---------------------------------------------------------------


@dataclass
class MachineModel:
    """The complete machine model data base."""

    name: str
    pc_name: str
    registers: Dict[str, RegisterDef]
    memories: Dict[str, MemoryDef]
    pipeline: PipelineDef
    config: ModelConfig
    operations: Dict[str, Operation]
    source_filename: str = "<string>"
    #: SHA-256 of the LISA text the model was compiled from; ``None``
    #: for a model built from an AST (``compile_ast``).
    source_digest: Optional[str] = None

    @property
    def root_operation(self):
        return self.operations[self.config.root_operation]

    @property
    def word_size(self):
        return self.config.word_size

    @property
    def program_memory(self):
        return self.memories[self.config.program_memory]

    @property
    def is_vliw(self):
        return self.config.fetch_packet_words > 1

    def resource_names(self):
        names = {self.pc_name}
        names.update(self.registers)
        names.update(self.memories)
        return names

    def stage_index(self, stage_name):
        return self.pipeline.stage_index(stage_name)

    @property
    def execute_stage_index(self):
        """The default execute stage: the configured one, else the last
        (where unstaged operations run and trap slots raise)."""
        if self.config.execute_stage is not None:
            return self.pipeline.stage_index(self.config.execute_stage)
        return self.pipeline.depth - 1

    def stage_of(self, operation):
        """Pipeline stage index where ``operation`` executes.

        Operations without an explicit stage run in the model's default
        execute stage.
        """
        if operation.stage is not None:
            return self.pipeline.stage_index(operation.stage)
        return self.execute_stage_index

    def operation(self, name):
        try:
            return self.operations[name]
        except KeyError:
            raise LisaSemanticError(
                "model %r has no operation %r" % (self.name, name)
            ) from None

    def describe(self):
        """A human-readable summary (used by the CLI)."""
        lines = [
            "model %s" % self.name,
            "  pipeline %s: %s"
            % (self.pipeline.name, " -> ".join(self.pipeline.stages)),
            "  word size: %d bits" % self.word_size,
            "  registers: %s"
            % ", ".join(
                "%s[%s]" % (r.name, r.count) if r.is_file else r.name
                for r in self.registers.values()
            ),
            "  memories: %s"
            % ", ".join(
                "%s[%d]" % (m.name, m.size) for m in self.memories.values()
            ),
            "  operations: %d (%d with coding)"
            % (
                len(self.operations),
                sum(1 for op in self.operations.values() if op.has_coding),
            ),
        ]
        if self.is_vliw:
            lines.append(
                "  VLIW: %d-word fetch packets, parallel bit %s"
                % (self.config.fetch_packet_words, self.config.parallel_bit)
            )
        return "\n".join(lines)
