"""Per-file step: one parse → a module summary plus file-local findings.

The analyzer never holds more than one AST at a time.  Each file is parsed
once (:func:`analyze_file`, through :func:`build_context`, so ``# rit:``
directives mean the same thing to every rule), judged by the file-local
rules RIT001–RIT007, and, when it is a ``repro.*`` module, compressed
into a :class:`ModuleSummary` — the functions it defines, the calls they
make (name-resolved as far as imports allow), and the per-function facts
the interprocedural passes consume: blocking operations, ambient-RNG
draws, tracer touches, module-global mutations, monetary comparisons.

Both halves are plain-dict serializable, which is what makes the
incremental cache (:mod:`repro.devtools.analysis.cache`) possible: a warm
run deserializes them for unchanged files and re-parses only edits.

Call-target notation: resolved targets are fully-qualified dotted names
(``repro.core.cra.cra``); an unresolvable bare call is recorded as
``?name`` and an unresolvable method call as ``?.name`` so the linker can
still try a unique-method fallback.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.devtools.lint.context import FileContext, build_context, module_in
from repro.devtools.lint.imports import ImportMap
from repro.devtools.lint.model import DIRECTIVE_ID, PARSE_ERROR_ID, Finding, Severity
from repro.devtools.lint.rules import FILE_RULES, Rule
from repro.devtools.lint.rules.rit002_float_eq import MONETARY_WORDS

__all__ = [
    "BLOCKING_CALLS",
    "BLOCKING_METHODS",
    "PROGRAM_PACKAGE",
    "CallSite",
    "Op",
    "MoneyCompare",
    "GlobalWrite",
    "FunctionInfo",
    "MutableGlobal",
    "ModuleSummary",
    "FileAnalysis",
    "analyze_file",
    "summary_from_source",
]

#: The package whose modules are summarized and linked into the program.
PROGRAM_PACKAGE = "repro"

#: Resolved dotted names (or the bare builtin) that block the thread
#: (RIT009 reports them in, or reachable from, a service coroutine).
BLOCKING_CALLS = {
    "time.sleep": "use 'await asyncio.sleep(...)' instead",
    "io.open": "run file I/O in the worker pool via loop.run_in_executor",
    "open": "run file I/O in the worker pool via loop.run_in_executor",
}

#: Method names that perform synchronous file I/O (Path.read_text etc.).
BLOCKING_METHODS = {
    "read_text": "synchronous file read",
    "write_text": "synchronous file write",
    "read_bytes": "synchronous file read",
    "write_bytes": "synchronous file write",
}

#: ``# rit: owner=<who>`` — ownership marker exempting a module-level
#: mutable from RIT011 (the named owner is responsible for single-threaded
#: access, e.g. "main-thread" or "import-time-only").
_OWNER_RE = re.compile(r"#\s*rit:\s*owner=([\w.\-]+)")

#: numpy.random members that are *not* ambient global state.
_SEEDED_NUMPY_RANDOM = frozenset(
    {
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.BitGenerator",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.MT19937",
    }
)

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
    }
)

#: Call-ees whose result is a fresh mutable container.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque", "bytearray"}
)

#: Tracer API surface — an attribute access ``<tracer>.<one of these>``
#: marks a function as instrumented.
_TRACER_ATTRS = frozenset(
    {
        "begin",
        "end",
        "span",
        "run_span",
        "count",
        "enabled",
        "absorb",
        "clock",
        "snapshot",
        "value",
        "write_jsonl",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One call expression: its (best-effort) target and location."""

    target: str
    line: int
    col: int


@dataclass(frozen=True)
class Op:
    """A direct operation of interest (blocking call, ambient RNG draw)."""

    name: str
    detail: str
    line: int
    col: int


@dataclass(frozen=True)
class MoneyCompare:
    """An ``==``/``!=`` whose operand is a cross-checkable call result."""

    target: str
    callee_name: str
    line: int
    col: int


@dataclass(frozen=True)
class GlobalWrite:
    """A mutation of a (candidate) module-level name inside a function."""

    name: str
    line: int
    col: int


@dataclass
class FunctionInfo:
    """Everything the passes need to know about one function."""

    qualname: str
    name: str
    line: int
    col: int
    end_line: int
    is_async: bool = False
    is_public: bool = True
    is_method: bool = False
    nested: bool = False
    statements: int = 0
    returns_money: bool = False
    touches_tracer: bool = False
    calls: List[CallSite] = field(default_factory=list)
    blocking: List[Op] = field(default_factory=list)
    ambient_rng: List[Op] = field(default_factory=list)
    money_compares: List[MoneyCompare] = field(default_factory=list)
    global_writes: List[GlobalWrite] = field(default_factory=list)
    global_reads: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class MutableGlobal:
    """A module-level name bound to a mutable container."""

    name: str
    line: int
    col: int
    owner: Optional[str] = None


@dataclass
class ModuleSummary:
    """The whole-program-relevant digest of one source file."""

    module: str
    path: str
    is_init: bool
    import_modules: Dict[str, str] = field(default_factory=dict)
    import_names: Dict[str, str] = field(default_factory=dict)
    classes: List[str] = field(default_factory=list)
    functions: List[FunctionInfo] = field(default_factory=list)
    mutable_globals: List[MutableGlobal] = field(default_factory=list)
    #: line -> suppressed rule ids (None = all); mirrors FileContext.
    suppressions: Dict[int, Optional[List[str]]] = field(default_factory=dict)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule_id in rules

    # ------------------------------------------------------------------ #
    # Serialization (for the incremental cache)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        doc = asdict(self)
        doc["suppressions"] = {
            str(line): rules for line, rules in self.suppressions.items()
        }
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ModuleSummary":
        functions = [
            FunctionInfo(
                **{
                    **f,
                    "calls": [CallSite(**c) for c in f["calls"]],
                    "blocking": [Op(**o) for o in f["blocking"]],
                    "ambient_rng": [Op(**o) for o in f["ambient_rng"]],
                    "money_compares": [MoneyCompare(**m) for m in f["money_compares"]],
                    "global_writes": [GlobalWrite(**w) for w in f["global_writes"]],
                }
            )
            for f in doc["functions"]
        ]
        return cls(
            module=doc["module"],
            path=doc["path"],
            is_init=doc["is_init"],
            import_modules=dict(doc["import_modules"]),
            import_names=dict(doc["import_names"]),
            classes=list(doc["classes"]),
            functions=functions,
            mutable_globals=[MutableGlobal(**g) for g in doc["mutable_globals"]],
            suppressions={
                int(line): (list(rules) if rules is not None else None)
                for line, rules in doc["suppressions"].items()
            },
        )


def _words(identifier: str) -> Sequence[str]:
    return Rule.words(identifier)


def _is_money_name(identifier: str) -> bool:
    return any(word in MONETARY_WORDS for word in _words(identifier))


def _money_heads(expr: ast.expr) -> List[str]:
    """Head identifiers a value expression is drawn from (RIT002 style)."""
    if isinstance(expr, ast.Name):
        return [expr.id]
    if isinstance(expr, ast.Attribute):
        if expr.attr in ("value", "values"):
            return [expr.attr] + _money_heads(expr.value)
        return [expr.attr]
    if isinstance(expr, ast.Call):
        return _money_heads(expr.func)
    if isinstance(expr, ast.Subscript):
        return _money_heads(expr.value)
    if isinstance(expr, ast.UnaryOp):
        return _money_heads(expr.operand)
    if isinstance(expr, ast.BinOp):
        return _money_heads(expr.left) + _money_heads(expr.right)
    if isinstance(expr, ast.IfExp):
        return _money_heads(expr.body) + _money_heads(expr.orelse)
    return []


def _annotation_is_float(annotation: Optional[ast.expr]) -> bool:
    return isinstance(annotation, ast.Name) and annotation.id == "float"


class _FunctionExtractor(ast.NodeVisitor):
    """Collects the per-function facts for one (non-nested) body."""

    def __init__(
        self,
        info: FunctionInfo,
        imports: ImportMap,
        module: str,
        class_name: Optional[str],
        module_defs: Set[str],
        return_annotation: Optional[ast.expr],
    ) -> None:
        self.info = info
        self.imports = imports
        self.module = module
        self.class_name = class_name
        self.module_defs = module_defs
        self.locals: Set[str] = set()
        self.globals_declared: Set[str] = set()
        self.reads: Set[str] = set()
        self.return_annotation = return_annotation
        self.money_return_seen = False

    # -------------------------- scope tracking ------------------------ #

    def _bind_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if target.id not in self.globals_declared:
                self.locals.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value)

    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.locals.add(node.name)  # nested defs analyzed separately

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.locals.add(node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.locals.add(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Lambda bodies stay in this scope but their params are local.
        for arg in node.args.args + node.args.kwonlyargs:
            self.locals.add(arg.arg)
        self.generic_visit(node)

    # ---------------------------- statements --------------------------- #

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store(target)
            self._bind_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_store(node.target)
        self._bind_target(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target)
        if isinstance(node.target, ast.Name):
            # x += ... requires x to exist; only `global` makes it a write.
            if node.target.id in self.globals_declared:
                self._global_write(node.target.id, node)
            else:
                self.locals.add(node.target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._bind_target(node.target)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._bind_target(node.target)
        self.generic_visit(node)

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            self._bind_target(node.optional_vars)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._bind_target(node.target)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self.locals.add(node.name)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            heads = _money_heads(node.value)
            if any(_is_money_name(head) for head in heads):
                self.money_return_seen = True
        self.generic_visit(node)

    def _record_store(self, target: ast.expr) -> None:
        """Subscript stores on non-local names are candidate global writes."""
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            name = target.value.id
            if name not in self.locals or name in self.globals_declared:
                self._global_write(name, target)

    def _global_write(self, name: str, node: ast.AST) -> None:
        self.info.global_writes.append(
            GlobalWrite(
                name=name,
                line=getattr(node, "lineno", self.info.line),
                col=getattr(node, "col_offset", 0) + 1,
            )
        )

    # ---------------------------- expressions -------------------------- #

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id not in self.locals:
            self.reads.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _TRACER_ATTRS and self._is_tracer_expr(node.value):
            self.info.touches_tracer = True
        self.generic_visit(node)

    @staticmethod
    def _is_tracer_expr(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return "tracer" in expr.id.lower()
        if isinstance(expr, ast.Attribute):
            return "tracer" in expr.attr.lower()
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for operand in [node.left] + list(node.comparators):
                if not isinstance(operand, ast.Call):
                    continue
                target = self._call_target(operand)
                callee = self._callee_display(operand.func)
                if target and callee:
                    self.info.money_compares.append(
                        MoneyCompare(
                            target=target,
                            callee_name=callee,
                            line=operand.lineno,
                            col=operand.col_offset + 1,
                        )
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        target = self._call_target(node)
        if target:
            self.info.calls.append(
                CallSite(target=target, line=node.lineno, col=node.col_offset + 1)
            )
            self._check_blocking(node, target)
            self._check_ambient_rng(node, target)
        self._check_mutator(node)
        self.generic_visit(node)

    # --------------------------- call analysis ------------------------- #

    @staticmethod
    def _callee_display(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _call_target(self, node: ast.Call) -> Optional[str]:
        resolved = self.imports.resolve(node.func)
        if resolved is not None:
            return resolved
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.locals:
                return None
            if name in self.module_defs:
                return f"{self.module}.{name}"
            return f"?{name}"
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and self.class_name is not None
            ):
                return f"{self.module}.{self.class_name}.{func.attr}"
            return f"?.{func.attr}"
        return None

    def _check_blocking(self, node: ast.Call, target: str) -> None:
        bare = target[1:] if target.startswith("?") else target
        if bare in BLOCKING_CALLS:
            self.info.blocking.append(
                Op(
                    name=bare,
                    detail=BLOCKING_CALLS[bare],
                    line=node.lineno,
                    col=node.col_offset + 1,
                )
            )
            return
        if isinstance(node.func, ast.Attribute):
            hint = BLOCKING_METHODS.get(node.func.attr)
            if hint is not None:
                self.info.blocking.append(
                    Op(
                        name=f".{node.func.attr}",
                        detail=hint,
                        line=node.lineno,
                        col=node.col_offset + 1,
                    )
                )

    def _check_ambient_rng(self, node: ast.Call, target: str) -> None:
        detail: Optional[str] = None
        if target == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                detail = "default_rng() with no seed draws OS entropy"
        elif target.startswith("numpy.random.") and target not in _SEEDED_NUMPY_RANDOM:
            detail = "global numpy RNG state"
        elif target == "random" or target.startswith("random."):
            detail = "stdlib random module (hidden global state)"
        if detail is not None:
            self.info.ambient_rng.append(
                Op(name=target, detail=detail, line=node.lineno, col=node.col_offset + 1)
            )

    def _check_mutator(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
        ):
            name = func.value.id
            if name not in self.locals or name in self.globals_declared:
                self._global_write(name, node)

    # ------------------------------ finish ----------------------------- #

    def finish(self) -> None:
        self.info.global_reads = sorted(self.reads)
        self.info.returns_money = self.money_return_seen or (
            _is_money_name(self.info.name)
            and _annotation_is_float(self.return_annotation)
        )


def _count_statements(body: Sequence[ast.stmt]) -> int:
    """Statements in a body, not descending into nested function defs."""
    count = 0
    stack: List[ast.stmt] = list(body)
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)
            else:
                stack.extend(
                    grand
                    for grand in ast.walk(child)
                    if isinstance(grand, ast.stmt)
                )
    return count


def _module_level_defs(tree: ast.Module) -> Set[str]:
    defs: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defs.add(node.target.id)
    return defs


def _mutable_globals(tree: ast.Module, lines: Sequence[str]) -> List[MutableGlobal]:
    found: List[MutableGlobal] = []
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
        )
        if not mutable:
            continue
        line_text = lines[node.lineno - 1] if node.lineno - 1 < len(lines) else ""
        owner_match = _OWNER_RE.search(line_text)
        owner = owner_match.group(1) if owner_match else None
        for target in targets:
            if isinstance(target, ast.Name):
                found.append(
                    MutableGlobal(
                        name=target.id,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        owner=owner,
                    )
                )
    return found


def _extract_function(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
    *,
    module: str,
    class_name: Optional[str],
    imports: ImportMap,
    module_defs: Set[str],
    nested: bool,
) -> FunctionInfo:
    scope = f"{module}.{class_name}" if class_name else module
    public = not node.name.startswith("_") and not (
        class_name is not None and class_name.startswith("_")
    )
    info = FunctionInfo(
        qualname=f"{scope}.{node.name}",
        name=node.name,
        line=node.lineno,
        col=node.col_offset + 1,
        end_line=getattr(node, "end_lineno", node.lineno) or node.lineno,
        is_async=isinstance(node, ast.AsyncFunctionDef),
        is_public=public,
        is_method=class_name is not None,
        nested=nested,
        statements=_count_statements(node.body),
    )
    extractor = _FunctionExtractor(
        info, imports, module, class_name, module_defs, node.returns
    )
    for arg in (
        node.args.posonlyargs
        + node.args.args
        + node.args.kwonlyargs
        + ([node.args.vararg] if node.args.vararg else [])
        + ([node.args.kwarg] if node.args.kwarg else [])
    ):
        extractor.locals.add(arg.arg)
    # Two passes over the body: bind every assignment first so reads that
    # precede their (textual) binding are not misread as globals, then walk.
    for statement in node.body:
        for descendant in ast.walk(statement):
            if isinstance(descendant, (ast.FunctionDef, ast.AsyncFunctionDef)):
                extractor.locals.add(descendant.name)
            elif isinstance(descendant, ast.Assign):
                for target in descendant.targets:
                    extractor._bind_target(target)
            elif isinstance(descendant, ast.AnnAssign):
                extractor._bind_target(descendant.target)
            elif isinstance(descendant, (ast.For, ast.AsyncFor)):
                extractor._bind_target(descendant.target)
            elif isinstance(descendant, ast.comprehension):
                extractor._bind_target(descendant.target)
            elif isinstance(descendant, ast.Global):
                extractor.globals_declared.update(descendant.names)
                extractor.locals -= set(descendant.names)
    for statement in node.body:
        extractor.visit(statement)
    extractor.finish()
    return info


def _walk_definitions(
    body: Sequence[ast.stmt],
    *,
    module: str,
    imports: ImportMap,
    module_defs: Set[str],
    class_name: Optional[str] = None,
    nested: bool = False,
) -> Tuple[List[FunctionInfo], List[str]]:
    functions: List[FunctionInfo] = []
    classes: List[str] = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(
                _extract_function(
                    node,
                    module=module,
                    class_name=class_name,
                    imports=imports,
                    module_defs=module_defs,
                    nested=nested,
                )
            )
            inner, inner_classes = _walk_definitions(
                node.body,
                module=module,
                imports=imports,
                module_defs=module_defs,
                class_name=class_name,
                nested=True,
            )
            functions.extend(inner)
            classes.extend(inner_classes)
        elif isinstance(node, ast.ClassDef):
            scope = f"{module}.{class_name}" if class_name else module
            classes.append(f"{scope}.{node.name}")
            inner, inner_classes = _walk_definitions(
                node.body,
                module=module,
                imports=imports,
                module_defs=module_defs,
                class_name=node.name if class_name is None else f"{class_name}.{node.name}",
                nested=nested,
            )
            functions.extend(inner)
            classes.extend(inner_classes)
    return functions, classes


def _module_pseudo_function(
    tree: ast.Module,
    *,
    module: str,
    imports: ImportMap,
    module_defs: Set[str],
) -> FunctionInfo:
    """Top-level executable code, modeled as the function ``<module>``."""
    info = FunctionInfo(
        qualname=f"{module}.<module>",
        name="<module>",
        line=1,
        col=1,
        end_line=getattr(tree, "end_lineno", 1) or 1,
        is_public=False,
        statements=len(tree.body),
    )
    extractor = _FunctionExtractor(info, imports, module, None, module_defs, None)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # definitions are their own functions
        extractor.visit(node)
    extractor.finish()
    return info


def summarize_context(ctx: FileContext) -> ModuleSummary:
    """Compress a parsed :class:`FileContext` into a :class:`ModuleSummary`."""
    assert isinstance(ctx.tree, ast.Module)
    imports = ImportMap.collect(ctx.tree)
    module_defs = _module_level_defs(ctx.tree)
    functions, classes = _walk_definitions(
        ctx.tree.body, module=ctx.module, imports=imports, module_defs=module_defs
    )
    functions.append(
        _module_pseudo_function(
            ctx.tree, module=ctx.module, imports=imports, module_defs=module_defs
        )
    )
    return ModuleSummary(
        module=ctx.module,
        path=ctx.path,
        is_init=ctx.is_init,
        import_modules=dict(imports.modules),
        import_names=dict(imports.names),
        classes=classes,
        functions=functions,
        mutable_globals=_mutable_globals(ctx.tree, ctx.lines),
        suppressions={
            line: (sorted(rules) if rules is not None else None)
            for line, rules in ctx.suppressions.items()
        },
    )


@dataclass
class FileAnalysis:
    """What the per-file step knows about one file.

    ``summary`` is ``None`` for a module outside :data:`PROGRAM_PACKAGE`
    (tests, benchmarks, examples get the file-local rules only) and for a
    file that does not parse; ``findings`` are the file-local rules' (after
    noqa), RIT099 for malformed directives, or the single RIT000 of a file
    that does not parse.
    """

    summary: Optional[ModuleSummary]
    findings: List[Finding]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "summary": None if self.summary is None else self.summary.to_dict(),
            "findings": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FileAnalysis":
        summary = doc["summary"]
        return cls(
            summary=None if summary is None else ModuleSummary.from_dict(summary),
            findings=[Finding.from_dict(f) for f in doc["findings"]],
        )


def analyze_file(
    path: Path, source: "str | bytes | None" = None
) -> FileAnalysis:
    """Parse one file once: its summary and its file-local findings.

    ``source`` is the file's text or its raw bytes; by default the file
    is read.  Bytes are decoded as Python decodes a source file (UTF-8
    unless a coding declaration names another encoding).  A file that
    does not decode or does not parse yields its single RIT000 finding.
    """
    try:
        if source is None:
            source = Path(path).read_bytes()
        if isinstance(source, bytes):
            source = importlib.util.decode_source(source)
        ctx = build_context(Path(path), source=source)
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        return _unparsed(
            path, line, 1, f"file does not decode as {exc.encoding}: {exc.reason}"
        )
    except SyntaxError as exc:
        return _unparsed(
            path, exc.lineno or 1, exc.offset or 1, f"file does not parse: {exc.msg}"
        )
    findings = [
        Finding(ctx.path, line, 1, DIRECTIVE_ID, message, Severity.WARNING)
        for line, message in ctx.directive_problems
    ]
    for rule in FILE_RULES:
        if rule.applies(ctx):
            findings.extend(
                finding
                for finding in rule.check(ctx)
                if not ctx.is_suppressed(finding.line, finding.rule_id)
            )
    findings.sort(key=lambda f: f.sort_key)
    linked = module_in(ctx.module, PROGRAM_PACKAGE)
    return FileAnalysis(summarize_context(ctx) if linked else None, findings)


def _unparsed(path: Path, line: int, column: int, message: str) -> FileAnalysis:
    """The analysis of a file no rule can read: one RIT000 finding."""
    return FileAnalysis(
        summary=None,
        findings=[Finding(str(path), line, column, PARSE_ERROR_ID, message)],
    )


def summary_from_source(module: str, source: str, path: str = "<memory>") -> ModuleSummary:
    """In-memory convenience for tests: summarize with an explicit module."""
    ctx = build_context(Path(path), source=source)
    ctx.module = module
    return summarize_context(ctx)
