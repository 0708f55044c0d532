"""Semantic analysis: LISA AST -> machine-model data base.

This module is the paper's *LISA compiler*: it checks the description and
produces the data base (:class:`repro.lisa.model.MachineModel`) that the
simulation-compiler generator and the tool generators consume.
"""

from __future__ import annotations

import functools
import hashlib

from repro.behavior import ast as bast
from repro.behavior.parser import parse_expression, parse_statements
from repro.behavior.runtime import INTRINSIC_NAMES
from repro.lisa import ast
from repro.lisa import model as m
from repro.lisa.parser import parse_source
from repro.support.bitutils import BitPattern, fits_field
from repro.support.diagnostics import DiagnosticSink
from repro.support.errors import BehaviorError, CodingError, LisaSemanticError

# Cap for the cartesian expansion of nested group alternatives during the
# coding-overlap check; beyond this we fall back to don't-care patterns.
_MAX_DISCRIMINATORS = 512

_CONFIG_KEYS = frozenset(
    [
        "WORDSIZE",
        "PROGRAM_MEMORY",
        "FETCH_PACKET",
        "PARALLEL_BIT",
        "ROOT",
        "EXECUTE_STAGE",
        "BRANCH_POLICY",
        "DEFINE",
    ]
)


def _concat(high, width, value, care):
    """``high`` (a ``(width, value, care)`` triple) above a low pattern."""
    high_width, high_value, high_care = high
    return (
        high_width + width,
        (high_value << width) | value,
        (high_care << width) | care,
    )


def compile_source(source, filename="<string>"):
    """Parse and semantically check a LISA source text.

    The model is stamped with the SHA-256 of ``source``
    (``model.source_digest``), which keys its cached simulation tables.

    This is the paper's one-time LISA compile (Fig. 5): the process
    keeps the models of the last :data:`MODEL_MEMO_SIZE` distinct
    ``(source, filename)`` pairs, and a repeated call returns the
    stored model itself, so every later job over the same text skips
    the compiler.  The model is therefore shared and must be treated
    as read-only.  A compile that raises is not stored: the next call
    compiles (and raises) again.  :func:`compile_ast` never memoizes.
    """
    return _compile_text(source, filename)


#: How many compiled models :func:`compile_source` keeps, least recently
#: used first out; a c62x model retains about 0.16 MB.
MODEL_MEMO_SIZE = 8


@functools.lru_cache(maxsize=MODEL_MEMO_SIZE)
def _compile_text(source, filename):
    model = compile_ast(parse_source(source, filename), filename)
    model.source_digest = hashlib.sha256(
        source.encode("utf-8", "surrogatepass")
    ).hexdigest()
    return model


def compile_ast(model_ast, filename="<string>"):
    """Semantically check a parsed LISA AST and build the model."""
    return _Analyzer(model_ast, filename).run()


class _Analyzer:
    def __init__(self, model_ast, filename):
        self._ast = model_ast
        self._filename = filename
        self._sink = DiagnosticSink()
        self._registers = {}
        self._memories = {}
        self._pipeline = None
        self._pc_name = None
        self._config = m.ModelConfig()
        self._operations = {}
        # Each operation's source location, for its diagnostics; kept
        # here, not on the model, so the model (and its digest) stays
        # free of source positions.
        self._locations = {}
        self._width_cache = {}
        self._width_in_progress = set()

    def run(self):
        self._analyze_resources()
        self._analyze_config()
        self._build_operations()
        model = m.MachineModel(
            name=self._ast.name,
            pc_name=self._pc_name,
            registers=self._registers,
            memories=self._memories,
            pipeline=self._pipeline,
            config=self._config,
            operations=self._operations,
            source_filename=self._filename,
        )
        self._resolve_coding_widths(model)
        self._check_model(model)
        model.diagnostics = self._sink
        return model

    # -- resources and config -------------------------------------------

    def _analyze_resources(self):
        for item in self._ast.resources:
            if isinstance(item, ast.ProgramCounterAst):
                if self._pc_name is not None:
                    raise LisaSemanticError(
                        "duplicate PROGRAM_COUNTER declaration", item.location
                    )
                dtype = m.lookup_type(item.type_name, item.location)
                self._pc_name = item.name
                self._declare_register(
                    m.RegisterDef(item.name, dtype, None), item.location
                )
            elif isinstance(item, ast.RegisterAst):
                dtype = m.lookup_type(item.type_name, item.location)
                if item.count is not None and item.count <= 0:
                    raise LisaSemanticError(
                        "register file %r must have positive size" % item.name,
                        item.location,
                    )
                self._declare_register(
                    m.RegisterDef(item.name, dtype, item.count), item.location
                )
            elif isinstance(item, ast.MemoryAst):
                dtype = m.lookup_type(item.type_name, item.location)
                if item.size <= 0:
                    raise LisaSemanticError(
                        "memory %r must have positive size" % item.name,
                        item.location,
                    )
                if item.name in self._memories or item.name in self._registers:
                    raise LisaSemanticError(
                        "duplicate resource %r" % item.name, item.location
                    )
                self._memories[item.name] = m.MemoryDef(
                    item.name, dtype, item.size
                )
            elif isinstance(item, ast.PipelineAst):
                if self._pipeline is not None:
                    raise LisaSemanticError(
                        "this dialect supports one PIPELINE per model",
                        item.location,
                    )
                if len(set(item.stages)) != len(item.stages):
                    raise LisaSemanticError(
                        "pipeline %r has duplicate stage names" % item.name,
                        item.location,
                    )
                self._pipeline = m.PipelineDef(item.name, tuple(item.stages))
            else:
                raise LisaSemanticError(
                    "unhandled resource item %r" % (item,), None
                )
        if self._pc_name is None:
            raise LisaSemanticError("model declares no PROGRAM_COUNTER")
        if self._pipeline is None:
            raise LisaSemanticError("model declares no PIPELINE")
        if not self._memories:
            raise LisaSemanticError("model declares no MEMORY")

    def _declare_register(self, reg, location):
        if reg.name in self._registers or reg.name in self._memories:
            raise LisaSemanticError(
                "duplicate resource %r" % reg.name, location
            )
        self._registers[reg.name] = reg

    def _analyze_config(self):
        cfg = self._config
        for item in self._ast.config:
            if item.key not in _CONFIG_KEYS:
                raise LisaSemanticError(
                    "unknown CONFIG key %r" % item.key, item.location
                )
            if item.key == "DEFINE":
                if len(item.args) != 2 or not isinstance(item.args[0], str) \
                        or not isinstance(item.args[1], int):
                    raise LisaSemanticError(
                        "DEFINE expects (name, integer)", item.location
                    )
                cfg.defines[item.args[0]] = item.args[1]
                continue
            if len(item.args) != 1:
                raise LisaSemanticError(
                    "CONFIG %s expects exactly one argument" % item.key,
                    item.location,
                )
            arg = item.args[0]
            if item.key == "WORDSIZE":
                self._expect_int(item, arg)
                if arg <= 0 or arg > 64:
                    raise LisaSemanticError(
                        "WORDSIZE must be in 1..64", item.location
                    )
                cfg.word_size = arg
            elif item.key == "PROGRAM_MEMORY":
                self._expect_str(item, arg)
                cfg.program_memory = arg
            elif item.key == "FETCH_PACKET":
                self._expect_int(item, arg)
                if arg <= 0:
                    raise LisaSemanticError(
                        "FETCH_PACKET must be positive", item.location
                    )
                cfg.fetch_packet_words = arg
            elif item.key == "PARALLEL_BIT":
                self._expect_int(item, arg)
                cfg.parallel_bit = arg
            elif item.key == "ROOT":
                self._expect_str(item, arg)
                cfg.root_operation = arg
            elif item.key == "EXECUTE_STAGE":
                self._expect_str(item, arg)
                cfg.execute_stage = arg
            elif item.key == "BRANCH_POLICY":
                self._expect_str(item, arg)
                if arg not in ("flush", "delay"):
                    raise LisaSemanticError(
                        "BRANCH_POLICY must be 'flush' or 'delay'",
                        item.location,
                    )
                cfg.branch_policy = arg
        self._finish_config()

    def _expect_int(self, item, arg):
        if not isinstance(arg, int):
            raise LisaSemanticError(
                "CONFIG %s expects an integer" % item.key, item.location
            )

    def _expect_str(self, item, arg):
        if not isinstance(arg, str):
            raise LisaSemanticError(
                "CONFIG %s expects a name" % item.key, item.location
            )

    def _finish_config(self):
        cfg = self._config
        if cfg.program_memory is None:
            if len(self._memories) == 1:
                cfg.program_memory = next(iter(self._memories))
            else:
                raise LisaSemanticError(
                    "PROGRAM_MEMORY must be configured when the model has "
                    "several memories"
                )
        if cfg.program_memory not in self._memories:
            raise LisaSemanticError(
                "PROGRAM_MEMORY %r is not a declared memory"
                % cfg.program_memory
            )
        pmem = self._memories[cfg.program_memory]
        if pmem.dtype.width < cfg.word_size:
            raise LisaSemanticError(
                "program memory %r elements (%d bits) are narrower than the "
                "instruction word (%d bits)"
                % (pmem.name, pmem.dtype.width, cfg.word_size)
            )
        if cfg.execute_stage is not None:
            self._pipeline.stage_index(cfg.execute_stage)  # validates
        if cfg.fetch_packet_words > 1 and cfg.parallel_bit is None:
            raise LisaSemanticError(
                "FETCH_PACKET > 1 requires PARALLEL_BIT"
            )
        if cfg.parallel_bit is not None and not (
            0 <= cfg.parallel_bit < cfg.word_size
        ):
            raise LisaSemanticError("PARALLEL_BIT outside the word")

    # -- operations -------------------------------------------------------

    def _build_operations(self):
        for op_ast in self._ast.operations:
            if op_ast.name in self._operations:
                raise LisaSemanticError(
                    "duplicate OPERATION %r" % op_ast.name, op_ast.location
                )
            self._operations[op_ast.name] = self._build_operation(op_ast)
            self._locations[op_ast.name] = op_ast.location

    def _build_operation(self, op_ast):
        stage = None
        if op_ast.stage is not None:
            if op_ast.pipeline != self._pipeline.name:
                raise LisaSemanticError(
                    "operation %r names unknown pipeline %r"
                    % (op_ast.name, op_ast.pipeline),
                    op_ast.location,
                )
            self._pipeline.stage_index(op_ast.stage)  # validates
            stage = op_ast.stage

        op = m.Operation(name=op_ast.name, stage=stage)
        items = self._convert_items(op_ast.items, op, top_level=True)
        op.items = tuple(items)
        return op

    def _convert_items(self, ast_items, op, top_level):
        items = []
        for item in ast_items:
            if isinstance(item, ast.DeclareSectionAst):
                if not top_level:
                    raise LisaSemanticError(
                        "DECLARE must not be conditional (operation %r)"
                        % op.name,
                        item.location,
                    )
                self._absorb_declare(item, op)
            elif isinstance(item, ast.CodingSectionAst):
                if not top_level:
                    raise LisaSemanticError(
                        "CODING must not be conditional (operation %r); "
                        "express coding alternatives with GROUPs" % op.name,
                        item.location,
                    )
                if op.coding is not None:
                    raise LisaSemanticError(
                        "operation %r has several CODING sections" % op.name,
                        item.location,
                    )
                op.coding = self._convert_coding(item, op)
            elif isinstance(item, ast.SyntaxSectionAst):
                items.append(self._convert_syntax(item))
            elif isinstance(item, ast.BehaviorSectionAst):
                items.append(self._convert_behavior(item, op))
            elif isinstance(item, ast.ExpressionSectionAst):
                items.append(self._convert_expression(item, op))
            elif isinstance(item, ast.ActivationSectionAst):
                items.append(m.Activation(tuple(item.names)))
            elif isinstance(item, ast.IfSectionsAst):
                condition = self._parse_guard(item.condition_tokens, op)
                then_items = self._convert_items(
                    item.then_items, op, top_level=False
                )
                else_items = self._convert_items(
                    item.else_items, op, top_level=False
                )
                items.append(
                    m.IfSections(
                        condition, tuple(then_items), tuple(else_items)
                    )
                )
            elif isinstance(item, ast.SwitchSectionsAst):
                selector = self._parse_guard(item.selector_tokens, op)
                cases = []
                seen_default = False
                for case in item.cases:
                    if case.value_tokens is None:
                        if seen_default:
                            raise LisaSemanticError(
                                "several DEFAULT cases in operation %r"
                                % op.name,
                                case.location,
                            )
                        seen_default = True
                        value = None
                    else:
                        value = self._parse_guard(case.value_tokens, op)
                    case_items = self._convert_items(
                        case.items, op, top_level=False
                    )
                    cases.append((value, tuple(case_items)))
                items.append(m.SwitchSections(selector, tuple(cases)))
            else:
                raise LisaSemanticError(
                    "unhandled section in operation %r: %r" % (op.name, item),
                    None,
                )
        return items

    def _absorb_declare(self, section, op):
        for decl in section.items:
            if isinstance(decl, ast.GroupDeclAst):
                self._declare_operand(op, decl.name, decl.location)
                op.groups[decl.name] = tuple(decl.alternatives)
            elif isinstance(decl, ast.InstanceDeclAst):
                self._declare_operand(op, decl.name, decl.location)
                op.instances[decl.name] = decl.operation
            elif isinstance(decl, ast.LabelDeclAst):
                for name in decl.names:
                    self._declare_operand(op, name, decl.location)
                    op.labels = op.labels + (name,)
            elif isinstance(decl, ast.ReferenceDeclAst):
                for name in decl.names:
                    self._declare_operand(op, name, decl.location)
                    op.references = op.references + (name,)

    def _declare_operand(self, op, name, location):
        if name in op.declared_operands() or name in op.references:
            raise LisaSemanticError(
                "operation %r declares %r twice" % (op.name, name), location
            )
        if name in self._registers or name in self._memories:
            self._sink.warn(
                "operand %r of operation %r shadows a resource"
                % (name, op.name),
                location,
            )

    def _convert_coding(self, section, op):
        elements = []
        for element in section.elements:
            if isinstance(element, ast.CodingPatternAst):
                elements.append(m.CodingPattern(element.pattern))
            else:
                name = element.name
                if name in op.labels:
                    if element.width is None:
                        raise LisaSemanticError(
                            "label %r in coding of %r needs a width "
                            "(write %s[n])" % (name, op.name, name),
                            element.location,
                        )
                    elements.append(m.CodingLabel(name, element.width))
                elif name in op.groups or name in op.instances:
                    # Width resolved later from the alternatives' codings;
                    # an explicit width is checked against it.
                    elements.append(
                        m.CodingGroup(name, element.width or 0)
                    )
                else:
                    raise LisaSemanticError(
                        "coding of %r references undeclared %r"
                        % (op.name, name),
                        element.location,
                    )
        return tuple(elements)

    def _convert_syntax(self, section):
        elements = []
        for element in section.elements:
            if isinstance(element, ast.SyntaxLiteralAst):
                elements.append(m.SyntaxLiteral(element.text))
            else:
                elements.append(m.SyntaxRef(element.name))
        return m.Syntax(tuple(elements))

    def _convert_behavior(self, section, op):
        try:
            statements = parse_statements(section.tokens)
        except BehaviorError as exc:
            raise BehaviorError(
                "in BEHAVIOR of operation %r: %s" % (op.name, exc.message),
                exc.location or section.location,
            ) from exc
        return m.Behavior(statements)

    def _convert_expression(self, section, op):
        try:
            expression = parse_expression(section.tokens)
        except BehaviorError as exc:
            raise BehaviorError(
                "in EXPRESSION of operation %r: %s" % (op.name, exc.message),
                exc.location or section.location,
            ) from exc
        return m.Expression(expression)

    def _parse_guard(self, tokens, op):
        try:
            return parse_expression(tokens)
        except BehaviorError as exc:
            raise BehaviorError(
                "in condition of operation %r: %s" % (op.name, exc.message),
                exc.location,
            ) from exc

    # -- coding width resolution ------------------------------------------

    def _resolve_coding_widths(self, model):
        for op in self._operations.values():
            if op.has_coding:
                op.coding_width = self._coding_width(op.name)
                # Fill in group element widths now that they are known.
                elements = []
                for element in op.coding:
                    if isinstance(element, m.CodingGroup):
                        width = self._group_width(op, element.name)
                        if element.width and element.width != width:
                            raise CodingError(
                                "coding of %r declares %r as %d bits but its "
                                "alternatives are %d bits wide"
                                % (op.name, element.name, element.width, width)
                            )
                        elements.append(m.CodingGroup(element.name, width))
                    else:
                        elements.append(element)
                op.coding = tuple(elements)

    def _coding_width(self, op_name):
        if op_name in self._width_cache:
            return self._width_cache[op_name]
        if op_name in self._width_in_progress:
            raise CodingError(
                "recursive coding involving operation %r" % op_name
            )
        op = self._operations.get(op_name)
        if op is None:
            raise LisaSemanticError("unknown operation %r" % op_name)
        if not op.has_coding:
            raise CodingError(
                "operation %r is used in a coding but has no CODING section"
                % op_name
            )
        self._width_in_progress.add(op_name)
        try:
            width = 0
            for element in op.coding:
                if isinstance(element, m.CodingPattern):
                    width += element.width
                elif isinstance(element, m.CodingLabel):
                    width += element.width
                else:
                    width += self._group_width(op, element.name)
        finally:
            self._width_in_progress.discard(op_name)
        self._width_cache[op_name] = width
        return width

    def _group_width(self, op, slot_name):
        alternatives = op.child_slots().get(slot_name)
        if not alternatives:
            raise LisaSemanticError(
                "operation %r has no group/instance %r" % (op.name, slot_name)
            )
        widths = {}
        for alt_name in alternatives:
            widths[alt_name] = self._coding_width(alt_name)
        if len(set(widths.values())) != 1:
            raise CodingError(
                "alternatives of %r in operation %r have unequal coding "
                "widths: %s"
                % (
                    slot_name,
                    op.name,
                    ", ".join(
                        "%s=%d" % (n, w) for n, w in sorted(widths.items())
                    ),
                )
            )
        return next(iter(widths.values()))

    # -- whole-model checks -------------------------------------------------

    def _check_model(self, model):
        cfg = model.config
        if cfg.root_operation not in self._operations:
            raise LisaSemanticError(
                "root operation %r is not defined" % cfg.root_operation
            )
        root = self._operations[cfg.root_operation]
        if not root.has_coding:
            raise LisaSemanticError(
                "root operation %r has no CODING section" % root.name
            )
        if root.coding_width != cfg.word_size:
            raise CodingError(
                "root operation %r codes %d bits but WORDSIZE is %d"
                % (root.name, root.coding_width, cfg.word_size)
            )
        for op in self._operations.values():
            self._check_operation(model, op)
        self._check_references(model)
        self._check_coding_ambiguity(model)
        self._warn_unfit_guards(model)
        self._warn_unused(model)

    def _check_operation(self, model, op):
        for name, alternatives in op.child_slots().items():
            for alt in alternatives:
                if alt not in self._operations:
                    raise LisaSemanticError(
                        "operation %r: %r lists unknown operation %r"
                        % (op.name, name, alt)
                    )
        op_stage = model.stage_of(op)
        for variant_items in op.all_section_variants():
            for item in variant_items:
                if isinstance(item, m.Activation):
                    self._check_activation(model, op, op_stage, item)
        self._check_names(model, op)

    def _check_activation(self, model, op, op_stage, activation):
        for name in activation.names:
            slots = op.child_slots()
            if name in slots:
                targets = slots[name]
            elif name in op.references:
                # Activating a REFERENCEd operand fires whatever the
                # ancestor decoded there; the target set is unknown
                # statically, so only the stage check below is skipped.
                continue
            elif name in self._operations:
                targets = (name,)
            else:
                raise LisaSemanticError(
                    "ACTIVATION of %r names unknown %r" % (op.name, name)
                )
            # Stage ordering is only enforced between explicitly staged
            # operations; a stage-less dispatcher (e.g. the root
            # instruction operation) may activate into any stage.
            if op.stage is None:
                continue
            for target_name in targets:
                target = self._operations[target_name]
                if target.stage is not None:
                    if model.stage_of(target) < op_stage:
                        raise LisaSemanticError(
                            "operation %r (stage %s) activates %r into the "
                            "earlier stage %s"
                            % (op.name, op.stage, target_name, target.stage)
                        )

    def _iter_behavior_nodes(self, op):
        for variant_items in op.all_section_variants():
            for item in variant_items:
                if isinstance(item, m.Behavior):
                    yield from item.statements
                elif isinstance(item, m.Expression):
                    yield item.expression

    def _check_names(self, model, op):
        allowed = set(op.declared_operands())
        allowed.update(op.references)
        allowed.update(model.resource_names())
        allowed.update(INTRINSIC_NAMES)
        allowed.update(model.config.defines)
        allowed.update(self._operations)
        nodes = list(self._iter_behavior_nodes(op))
        locals_declared = set()
        for root in nodes:
            for node in bast.walk(root):
                if isinstance(node, bast.LocalDecl):
                    locals_declared.add(node.name)
        allowed.update(locals_declared)
        for name in bast.referenced_names(nodes):
            if name not in allowed:
                raise LisaSemanticError(
                    "behaviour of operation %r references unknown name %r"
                    % (op.name, name)
                )

    def _parent_edges(self):
        """Map child operation -> set of operations that can instantiate it."""
        parents = {name: set() for name in self._operations}
        for op in self._operations.values():
            for alternatives in op.child_slots().values():
                for alt in alternatives:
                    if alt in parents:
                        parents[alt].add(op.name)
            for variant_items in op.all_section_variants():
                for item in variant_items:
                    if isinstance(item, m.Activation):
                        for name in item.names:
                            if name in self._operations and \
                                    name not in op.child_slots():
                                parents[name].add(op.name)
        return parents

    def _check_references(self, model):
        parents = self._parent_edges()
        for op in self._operations.values():
            for ref in op.references:
                if not self._reference_satisfiable(op, ref, parents):
                    raise LisaSemanticError(
                        "REFERENCE %r of operation %r is not declared by any "
                        "operation that can instantiate it" % (ref, op.name)
                    )

    def _reference_satisfiable(self, op, ref, parents):
        visited = set()
        frontier = [op.name]
        while frontier:
            current = frontier.pop()
            if current in visited:
                continue
            visited.add(current)
            for parent_name in parents[current]:
                parent = self._operations[parent_name]
                if ref in parent.labels or ref in parent.groups \
                        or ref in parent.instances:
                    return True
                frontier.append(parent_name)
        return False

    # -- guard constants ----------------------------------------------------

    def _warn_unfit_guards(self, model):
        """Warn about each guard constant its coding field cannot hold
        (the assembler's range rule): decoding never selects that arm,
        and the assembler rejects its lines.  A name coded at several
        widths is not judged, as for negated guards."""
        widths = {}
        for op in self._operations.values():
            for name, value in op.guard_bindings(model):
                if name not in widths:
                    widths[name] = m.label_width(model, name)
                width = widths[name]
                if width is not None and not fits_field(value, width):
                    self._sink.warn(
                        "guard of operation %r compares %r with %d, which "
                        "its %d-bit coding field cannot hold: decoding "
                        "never selects that arm"
                        % (op.name, name, value, width),
                        self._locations[op.name],
                    )

    # -- coding ambiguity ---------------------------------------------------

    def _discriminators(self, op_name, cache):
        """Flattened ``(width, value, care)`` patterns of an operation's
        coding, as for :class:`BitPattern`.

        Nested groups expand into the cartesian product of their
        alternatives (capped); labels become don't-cares.
        """
        if op_name in cache:
            return cache[op_name]
        op = self._operations[op_name]
        accum = [(0, 0, 0)]  # one zero-width pattern
        for element in op.coding:
            if isinstance(element, m.CodingPattern):
                pattern = element.pattern
                accum = [
                    _concat(a, pattern.width, pattern.value, pattern.care)
                    for a in accum
                ]
            elif isinstance(element, m.CodingLabel):
                accum = [_concat(a, element.width, 0, 0) for a in accum]
            else:
                alternatives = op.child_slots()[element.name]
                expanded = []
                for alt in alternatives:
                    for sub in self._discriminators(alt, cache):
                        for a in accum:
                            expanded.append(_concat(a, *sub))
                            if len(expanded) > _MAX_DISCRIMINATORS:
                                break
                if len(expanded) > _MAX_DISCRIMINATORS:
                    # Fall back to fully unconstrained bits for this slot.
                    width = self._group_width(op, element.name)
                    expanded = [_concat(a, width, 0, 0) for a in accum]
                accum = expanded
        cache[op_name] = accum
        return accum

    def _check_coding_ambiguity(self, model):
        cache = {}
        for op in self._operations.values():
            for slot_name, alternatives in op.child_slots().items():
                if len(alternatives) < 2:
                    continue
                if not all(
                    self._operations[a].has_coding for a in alternatives
                ):
                    continue
                for name_a, name_b in self._overlap_candidates(
                    alternatives, cache
                ):
                    self._check_pair(
                        op, slot_name, name_a, name_b, cache
                    )

    def _overlap_candidates(self, alternatives, cache):
        """The pairs of a slot's alternatives that may overlap, in pair
        order.

        Two patterns overlap only when they agree on every bit both care
        about, so in particular on the bits every pattern of the slot
        cares about.  Only alternatives sharing a (width, value on those
        bits) key can overlap.
        """
        patterns = [self._discriminators(a, cache) for a in alternatives]
        common = -1
        for group in patterns:
            for _width, _value, care in group:
                common &= care
        buckets = {}
        for index, group in enumerate(patterns):
            for key in {(width, value & common) for width, value, _ in group}:
                buckets.setdefault(key, []).append(index)
        pairs = {
            (index_a, index_b)
            for members in buckets.values()
            for i, index_a in enumerate(members)
            for index_b in members[i + 1:]
        }
        for index_a, index_b in sorted(pairs):
            yield alternatives[index_a], alternatives[index_b]

    def _check_pair(self, op, slot_name, name_a, name_b, cache):
        patterns_a = self._discriminators(name_a, cache)
        patterns_b = self._discriminators(name_b, cache)
        for width_a, value_a, care_a in patterns_a:
            for width_b, value_b, care_b in patterns_b:
                # Some word matches both when they agree on every bit
                # both care about.
                if width_a == width_b and not (
                    (value_a ^ value_b) & care_a & care_b
                ):
                    raise CodingError(
                        "ambiguous coding: alternatives %r and %r of %r in "
                        "operation %r overlap (%s vs %s)"
                        % (name_a, name_b, slot_name, op.name,
                           BitPattern(width_a, value_a, care_a),
                           BitPattern(width_b, value_b, care_b))
                    )

    def _warn_unused(self, model):
        used = {model.config.root_operation}
        for op in self._operations.values():
            for alternatives in op.child_slots().values():
                used.update(alternatives)
            for variant_items in op.all_section_variants():
                for item in variant_items:
                    if isinstance(item, m.Activation):
                        used.update(
                            n for n in item.names if n in self._operations
                        )
        for name in self._operations:
            if name not in used:
                self._sink.warn(
                    "operation %r is never referenced" % name,
                    self._locations[name],
                )
