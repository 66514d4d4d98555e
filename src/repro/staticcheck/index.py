"""Phase 1 of the project-wide analyzer: the serializable repo index.

The graph rules (RC006–RC008) need facts no single-file pass can see:
which functions call which, which function references cross an
executor / thread / spawn boundary, and which module- or class-level
state is mutated where.  This module extracts those facts from the AST
of *one file at a time* into plain-data :class:`ModuleIndex` records —
JSON-serializable on purpose, so ``repro lint --changed`` can cache
them keyed on source content hash and only re-extract edited files.

Extraction is deliberately syntactic and conservative:

* call sites are normalized into a small set of *forms* (imported
  dotted name, same-module name, ``self.m()``, ``self.attr.m()``,
  method on a local variable) that phase 2 (:mod:`.graph`) resolves
  against the whole-repo symbol table;
* dispatch sites — ``loop.run_in_executor``, ``Executor.submit``,
  ``threading.Thread(target=)``, ``Process(target=)``,
  ``loop.call_soon/call_later`` — are recognized here because they
  need the argument expressions, which are not serialized;
* ``functools.partial`` is unwrapped one level when classifying a
  function reference;
* instance-attribute types are inferred from ``self.x = ClassName(...)``
  assignments and class-level annotations, which is enough to type the
  executor attributes and the observability surfaces the rules need.

Nothing here imports the code under check.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .base import ImportMap

__all__ = [
    "ANALYZER_SCHEMA_VERSION",
    "CallSite",
    "ClassInfo",
    "Dispatch",
    "FuncRef",
    "FunctionInfo",
    "ModuleIndex",
    "ModuleState",
    "RepoIndex",
    "build_module_index",
]

#: Bumped whenever extraction output changes shape or semantics, so a
#: stale on-disk cache can never feed phase 2 the wrong facts.
ANALYZER_SCHEMA_VERSION = 2

#: Method names that mutate their receiver in place.  Used both for
#: ``self.attr.append(...)`` (a write to the attribute) and for
#: ``MODULE_STATE.update(...)`` (a write to module state).
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

_MUTABLE_CONSTRUCTORS = {
    "dict": "dict",
    "list": "list",
    "set": "set",
    "bytearray": "bytearray",
    "collections.deque": "deque",
    "collections.defaultdict": "defaultdict",
    "collections.OrderedDict": "dict",
    "collections.Counter": "dict",
}

_EXECUTOR_KINDS = {
    "concurrent.futures.ThreadPoolExecutor": "thread",
    "concurrent.futures.thread.ThreadPoolExecutor": "thread",
    "concurrent.futures.ProcessPoolExecutor": "process",
    "concurrent.futures.process.ProcessPoolExecutor": "process",
}

#: ``loop.call_soon(cb, ...)`` style loop-callback surfaces mapped to
#: the argument index of the callback.
_LOOP_CALLBACKS = {
    "call_soon": 0,
    "call_soon_threadsafe": 0,
    "call_later": 1,
    "call_at": 1,
    "add_signal_handler": 1,
    "add_done_callback": 0,
}


@dataclass
class FuncRef:
    """A function *reference* (not a call): something passed by value."""

    form: str  # dotted|local|self_method|attr_method|bound|lambda|nested|other
    name: str = ""
    partial: bool = False
    line: int = 0
    col: int = 0


@dataclass
class CallSite:
    """One normalized ``ast.Call`` inside a function body."""

    line: int
    col: int
    form: str  # dotted|local|self_method|super_method|self_attr_method|local_attr_method|unknown
    name: str  # dotted path, local name, or method name (per form)
    attr: str = ""  # receiver: self-attribute or local variable name
    method: str = ""  # final attribute name, for method-name heuristics
    refs: List[FuncRef] = field(default_factory=list)


@dataclass
class Dispatch:
    """A call that hands a function reference to another execution context."""

    line: int
    col: int
    boundary: str  # "thread" | "spawn" | "loop"
    via: str  # human-readable surface, e.g. "Process(target=)"
    target: FuncRef = field(default_factory=FuncRef)
    arg_refs: List[FuncRef] = field(default_factory=list)


@dataclass
class FunctionInfo:
    """Everything phase 2 needs to know about one function or method."""

    qual: str  # "Class.method", "func", or "outer.<locals>.inner"
    line: int
    is_async: bool
    class_name: str = ""  # immediately enclosing class, "" at module level
    nested: bool = False  # defined inside another function (unpicklable)
    calls: List[CallSite] = field(default_factory=list)
    dispatches: List[Dispatch] = field(default_factory=list)
    state_reads: List[str] = field(default_factory=list)
    state_writes: List[Tuple[str, int]] = field(default_factory=list)
    attr_writes: List[Tuple[str, int]] = field(default_factory=list)
    # Writes through a typed receiver: ``self.engine.backend = ...``
    # becomes ("repro.engine.engine.Engine", "backend", line).
    ext_writes: List[Tuple[str, str, int]] = field(default_factory=list)


@dataclass
class ClassInfo:
    name: str
    line: int
    bases: List[str] = field(default_factory=list)  # dotted where resolvable
    attr_types: Dict[str, str] = field(default_factory=dict)
    executor_attrs: Dict[str, str] = field(default_factory=dict)
    methods: List[str] = field(default_factory=list)
    mutable_class_attrs: Dict[str, int] = field(default_factory=dict)


@dataclass
class ModuleState:
    """One module-level binding of interest to the race rules."""

    name: str
    line: int
    kind: str  # "list", "dict", ..., or "threading.local"
    synchronized: bool = False  # threading.local is safe by construction


@dataclass
class ModuleIndex:
    """The per-file phase-1 record; everything in it is JSON-plain."""

    path: str
    logical: str
    module: str  # dotted module for src/repro files, else the logical path
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    state: Dict[str, ModuleState] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "ModuleIndex":
        index = ModuleIndex(
            path=str(payload["path"]),
            logical=str(payload["logical"]),
            module=str(payload["module"]),
        )
        for qual, raw in dict(payload["functions"]).items():
            info = FunctionInfo(
                qual=raw["qual"],
                line=raw["line"],
                is_async=raw["is_async"],
                class_name=raw["class_name"],
                nested=raw["nested"],
                state_reads=list(raw["state_reads"]),
                state_writes=[tuple(item) for item in raw["state_writes"]],
                attr_writes=[tuple(item) for item in raw["attr_writes"]],
                ext_writes=[tuple(item) for item in raw["ext_writes"]],
            )
            info.calls = [
                CallSite(
                    line=c["line"],
                    col=c["col"],
                    form=c["form"],
                    name=c["name"],
                    attr=c["attr"],
                    method=c["method"],
                    refs=[FuncRef(**r) for r in c["refs"]],
                )
                for c in raw["calls"]
            ]
            info.dispatches = [
                Dispatch(
                    line=d["line"],
                    col=d["col"],
                    boundary=d["boundary"],
                    via=d["via"],
                    target=FuncRef(**d["target"]),
                    arg_refs=[FuncRef(**r) for r in d["arg_refs"]],
                )
                for d in raw["dispatches"]
            ]
            index.functions[qual] = info
        for name, raw in dict(payload["classes"]).items():
            index.classes[name] = ClassInfo(
                name=raw["name"],
                line=raw["line"],
                bases=list(raw["bases"]),
                attr_types=dict(raw["attr_types"]),
                executor_attrs=dict(raw["executor_attrs"]),
                methods=list(raw["methods"]),
                mutable_class_attrs={
                    key: int(value)
                    for key, value in raw["mutable_class_attrs"].items()
                },
            )
        for name, raw in dict(payload["state"]).items():
            index.state[name] = ModuleState(
                name=raw["name"],
                line=raw["line"],
                kind=raw["kind"],
                synchronized=raw["synchronized"],
            )
        return index


@dataclass
class RepoIndex:
    """Phase-1 output for every file in the run, keyed by module."""

    modules: Dict[str, ModuleIndex] = field(default_factory=dict)

    def add(self, module: ModuleIndex) -> None:
        self.modules[module.module] = module


def _dotted(node: ast.AST, imports: ImportMap) -> Optional[str]:
    """Import-resolved dotted path for a Name/Attribute chain, if any."""
    return imports.resolve(node)


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """["self", "audit", "record"] for ``self.audit.record``; None if
    the chain is not rooted in a plain name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _is_super_call(node: ast.AST) -> bool:
    """True for the ``super()`` in ``super().name(...)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


class _Extractor:
    """Single-file extraction: two passes (module symbols, then bodies)."""

    def __init__(
        self,
        tree: ast.Module,
        imports: ImportMap,
        path: str,
        logical: str,
        module: str,
    ) -> None:
        self.tree = tree
        self.imports = imports
        self.index = ModuleIndex(path=path, logical=logical, module=module)
        self.module_classes: Dict[str, str] = {}  # local name -> fq name
        self.module_funcs: List[str] = []

    # -- pass 1: module-level symbols and state -------------------------

    def collect_module_symbols(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self.module_classes[node.name] = (
                    f"{self.index.module}.{node.name}"
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_funcs.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_state(node)

    def _collect_state(self, node: ast.stmt) -> None:
        targets: List[ast.expr]
        value: Optional[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:  # pragma: no cover - guarded by caller
            return
        if value is None:
            return
        kind = self._mutable_kind(value)
        if kind is None:
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name.startswith("__") and name.endswith("__"):
                continue
            self.index.state[name] = ModuleState(
                name=name,
                line=node.lineno,
                kind=kind,
                synchronized=(kind == "threading.local"),
            )

    def _mutable_kind(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call):
            dotted = _dotted(value.func, self.imports)
            if dotted is None and isinstance(value.func, ast.Name):
                dotted = value.func.id
            if dotted in ("threading.local", "_thread._local"):
                return "threading.local"
            if dotted in _MUTABLE_CONSTRUCTORS:
                return _MUTABLE_CONSTRUCTORS[dotted]
        return None

    # -- pass 2: classes and function bodies ----------------------------

    def extract(self) -> ModuleIndex:
        self.collect_module_symbols()
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self._extract_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(node, class_name="", prefix="")
        return self.index

    def _extract_class(self, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, line=node.lineno)
        for base in node.bases:
            dotted = _dotted(base, self.imports)
            if dotted is None and isinstance(base, ast.Name):
                dotted = self.module_classes.get(
                    base.id, f"{self.index.module}.{base.id}"
                )
            if dotted is not None:
                info.bases.append(dotted)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.append(stmt.name)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                annotated = self._annotation_type(stmt.annotation)
                if annotated is not None:
                    info.attr_types[stmt.target.id] = annotated
                kind = (
                    self._mutable_kind(stmt.value)
                    if stmt.value is not None
                    else None
                )
                if kind is not None and kind != "threading.local":
                    info.mutable_class_attrs[stmt.target.id] = stmt.lineno
            elif isinstance(stmt, ast.Assign):
                kind = self._mutable_kind(stmt.value)
                if kind is None or kind == "threading.local":
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.mutable_class_attrs[target.id] = stmt.lineno
        self.index.classes[node.name] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(stmt, class_name=node.name, prefix="")

    def _annotation_type(self, annotation: ast.expr) -> Optional[str]:
        # Unwrap Optional[T] / Final[T] one level.
        if isinstance(annotation, ast.Subscript):
            head = annotation.value
            head_name = head.attr if isinstance(head, ast.Attribute) else (
                head.id if isinstance(head, ast.Name) else ""
            )
            if head_name in ("Optional", "Final"):
                return self._annotation_type(annotation.slice)
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            return self._resolve_class_name(annotation.value)
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            dotted = _dotted(annotation, self.imports)
            if dotted is not None:
                return dotted
            if isinstance(annotation, ast.Name):
                return self._resolve_class_name(annotation.id)
        return None

    def _resolve_class_name(self, name: str) -> Optional[str]:
        if name in self.module_classes:
            return self.module_classes[name]
        dotted = self.imports.aliases.get(name)
        return dotted

    def _extract_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str,
        prefix: str,
    ) -> None:
        qual = f"{prefix}{node.name}" if not class_name else (
            f"{class_name}.{node.name}"
            if not prefix
            else f"{prefix}{node.name}"
        )
        info = FunctionInfo(
            qual=qual,
            line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=class_name,
            nested="<locals>" in qual,
        )
        body = _FunctionBody(self, info, node)
        body.run()
        self.index.functions[qual] = info
        # Nested definitions become their own (unpicklable) records.
        for child in body.nested_defs:
            self._extract_function(
                child,
                class_name=class_name,
                prefix=f"{qual}.<locals>.",
            )


class _FunctionBody:
    """Walk one function body without descending into nested defs."""

    def __init__(
        self,
        extractor: _Extractor,
        info: FunctionInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self.x = extractor
        self.info = info
        self.node = node
        self.nested_defs: List[ast.FunctionDef | ast.AsyncFunctionDef] = []
        self._suppressed_calls: set[int] = set()
        self.local_names: set[str] = set()
        self.local_types: Dict[str, str] = {}
        self.global_decls: set[str] = set()
        args = node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.local_names.add(arg.arg)
            if arg.annotation is not None:
                annotated = self.x._annotation_type(arg.annotation)
                if annotated is not None:
                    self.local_types[arg.arg] = annotated

    def run(self) -> None:
        for stmt in self.node.body:
            self._walk(stmt)

    # -- statement/expression walk --------------------------------------

    def _walk(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested_defs.append(node)
            self.local_names.add(node.name)
            return
        if isinstance(node, ast.Lambda):
            return  # lambdas are only of interest as references
        if isinstance(node, ast.Global):
            self.global_decls.update(node.names)
        elif isinstance(node, ast.Assign):
            self._handle_assign(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._handle_assign([node.target], node.value)
        elif isinstance(node, ast.AugAssign):
            self._handle_store(node.target, node.lineno)
        elif isinstance(node, ast.Call):
            if id(node) not in self._suppressed_calls:
                self._handle_call(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._handle_name_read(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    def _handle_assign(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        inferred = self._infer_type(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self.global_decls:
                    self._record_state_write(target.id, target.lineno)
                else:
                    self.local_names.add(target.id)
                    if inferred is not None:
                        self.local_types[target.id] = inferred
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                self._handle_store(target, target.lineno)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.local_names.add(element.id)
                    elif isinstance(element, (ast.Attribute, ast.Subscript)):
                        self._handle_store(element, element.lineno)
        # ``self.x = ClassName(...)`` records an attribute type (and an
        # executor kind when the class is a stdlib executor).
        if inferred is not None and self.info.class_name:
            for target in targets:
                chain = (
                    _attr_chain(target)
                    if isinstance(target, ast.Attribute)
                    else None
                )
                if chain is not None and len(chain) == 2 and chain[0] == "self":
                    class_info = self.x.index.classes.get(self.info.class_name)
                    if class_info is not None:
                        class_info.attr_types.setdefault(chain[1], inferred)
                        if inferred in _EXECUTOR_KINDS:
                            class_info.executor_attrs[chain[1]] = (
                                _EXECUTOR_KINDS[inferred]
                            )

    def _infer_type(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Call):
            dotted = _dotted(value.func, self.x.imports)
            if dotted is not None:
                return dotted
            if isinstance(value.func, ast.Name):
                return self.x._resolve_class_name(value.func.id)
            return None
        if isinstance(value, ast.Name):
            return self.local_types.get(value.id)
        if isinstance(value, ast.Attribute):
            # One attribute hop through a typed local: ``obs.metrics``.
            chain = _attr_chain(value)
            if chain is not None and len(chain) == 2:
                base_type = self.local_types.get(chain[0])
                if base_type is None and chain[0] == "self":
                    base_type = self._self_attr_type(chain[1])
                    return base_type
                if base_type is not None:
                    return self._attr_of_type(base_type, chain[1])
        return None

    def _self_attr_type(self, attr: str) -> Optional[str]:
        class_info = self.x.index.classes.get(self.info.class_name)
        if class_info is None:
            return None
        return class_info.attr_types.get(attr)

    def _attr_of_type(self, base_type: str, attr: str) -> Optional[str]:
        # Only same-file classes are visible during extraction; phase 2
        # re-resolves across modules where this returns None.
        for class_info in self.x.index.classes.values():
            fq = f"{self.x.index.module}.{class_info.name}"
            if base_type in (fq, class_info.name):
                return class_info.attr_types.get(attr)
        return None

    def _handle_store(self, target: ast.expr, line: int) -> None:
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        chain = (
            _attr_chain(base) if isinstance(base, ast.Attribute) else None
        )
        if chain is not None and chain[0] == "self" and self.info.class_name:
            if len(chain) >= 2:
                # Store through self.attr (possibly deeper); the written
                # surface is the first attribute unless the receiver is
                # itself typed, in which case the write lands on that
                # class (``self.engine.backend = ...``).
                if len(chain) >= 3:
                    receiver_type = self._self_attr_type(chain[1])
                    if receiver_type is not None:
                        self.info.ext_writes.append(
                            (receiver_type, chain[2], line)
                        )
                        return
                self.info.attr_writes.append((chain[1], line))
            return
        if isinstance(base, ast.Name):
            name = base.id
            if isinstance(target, ast.Name) and name not in self.global_decls:
                self.local_names.add(name)
                return
            self._record_state_write(name, line)
            return
        if chain is not None:
            # ``local.attr = ...`` on a typed local.
            receiver_type = self.local_types.get(chain[0])
            if receiver_type is not None and len(chain) >= 2:
                self.info.ext_writes.append((receiver_type, chain[1], line))

    def _record_state_write(self, name: str, line: int) -> None:
        # Inventoried mutable state, or any ``global``-declared write
        # (rebinding a module-level scalar is still shared state).
        if name in self.x.index.state or name in self.global_decls:
            self.info.state_writes.append((name, line))

    def _handle_name_read(self, node: ast.Name) -> None:
        name = node.id
        if name in self.local_names or name in self.global_decls:
            if name in self.global_decls and name in self.x.index.state:
                self.info.state_reads.append(name)
            return
        if name in self.x.index.state:
            self.info.state_reads.append(name)

    # -- calls and dispatches -------------------------------------------

    def _func_ref(self, node: ast.expr) -> FuncRef:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        if isinstance(node, ast.Lambda):
            return FuncRef(form="lambda", line=line, col=col)
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func, self.x.imports)
            name = dotted or (
                node.func.id if isinstance(node.func, ast.Name) else ""
            )
            if name.endswith("partial") and node.args:
                inner = self._func_ref(node.args[0])
                inner.partial = True
                inner.line = inner.line or line
                return inner
            return FuncRef(form="other", name=name, line=line, col=col)
        if isinstance(node, ast.Name):
            dotted = self.x.imports.aliases.get(node.id)
            if dotted is not None:
                return FuncRef(form="dotted", name=dotted, line=line, col=col)
            if node.id in self.local_names:
                # A name bound inside this function: either a nested def
                # (never picklable) or a local alias / parameter whose
                # value we cannot resolve statically.
                form = "nested" if self._is_nested_def(node.id) else "localvar"
                return FuncRef(form=form, name=node.id, line=line, col=col)
            return FuncRef(form="local", name=node.id, line=line, col=col)
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node, self.x.imports)
            if dotted is not None:
                return FuncRef(form="dotted", name=dotted, line=line, col=col)
            chain = _attr_chain(node)
            if chain is not None and chain[0] == "self" and len(chain) == 2:
                return FuncRef(
                    form="self_method", name=chain[1], line=line, col=col
                )
            if chain is not None:
                return FuncRef(
                    form="attr_method",
                    name=".".join(chain),
                    line=line,
                    col=col,
                )
            return FuncRef(form="bound", name="", line=line, col=col)
        if isinstance(node, (ast.Constant,)):
            return FuncRef(form="const", line=line, col=col)
        return FuncRef(form="other", line=line, col=col)

    def _is_nested_def(self, name: str) -> bool:
        return any(child.name == name for child in self.nested_defs)

    def _positional_refs(self, args: Sequence[ast.expr]) -> List[FuncRef]:
        """One ref per positional argument, positions preserved, so a
        registered dispatch surface can inspect ``refs[0]``."""
        return [self._func_ref(arg) for arg in args]

    def _interesting_refs(self, args: Sequence[ast.expr]) -> List[FuncRef]:
        refs: List[FuncRef] = []
        for arg in args:
            elements: Sequence[ast.expr]
            if isinstance(arg, (ast.Tuple, ast.List)):
                elements = arg.elts
            else:
                elements = [arg]
            for element in elements:
                ref = self._func_ref(element)
                if ref.form in (
                    "lambda",
                    "nested",
                    "self_method",
                    "attr_method",
                    "dotted",
                    "local",
                    "bound",
                ):
                    refs.append(ref)
        return refs

    def _handle_call(self, node: ast.Call) -> None:
        site = self._call_site(node)
        if site is not None:
            self.info.calls.append(site)
        self._detect_dispatch(node, site)
        self._detect_mutation(node)

    def _detect_mutation(self, node: ast.Call) -> None:
        """``self.attr.append(...)`` / ``STATE.update(...)`` are writes."""
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in MUTATING_METHODS:
            return
        chain = _attr_chain(node.func)
        if chain is None or len(chain) < 2:
            return
        line = node.lineno
        if chain[0] == "self" and len(chain) >= 3 and self.info.class_name:
            self.info.attr_writes.append((chain[1], line))
        elif len(chain) == 2 and chain[0] not in self.local_names:
            self._record_state_write(chain[0], line)

    def _call_site(self, node: ast.Call) -> Optional[CallSite]:
        line, col = node.lineno, node.col_offset
        func = node.func
        refs = self._positional_refs(list(node.args))
        if isinstance(func, ast.Name):
            dotted = self.x.imports.aliases.get(func.id)
            if dotted is not None:
                return CallSite(
                    line=line, col=col, form="dotted", name=dotted, refs=refs
                )
            return CallSite(
                line=line, col=col, form="local", name=func.id, refs=refs
            )
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func, self.x.imports)
            method = func.attr
            if dotted is not None:
                return CallSite(
                    line=line,
                    col=col,
                    form="dotted",
                    name=dotted,
                    method=method,
                    refs=refs,
                )
            if _is_super_call(func.value):
                return CallSite(
                    line=line,
                    col=col,
                    form="super_method",
                    name=method,
                    method=method,
                    refs=refs,
                )
            chain = _attr_chain(func)
            if chain is not None and chain[0] == "self":
                if len(chain) == 2:
                    return CallSite(
                        line=line,
                        col=col,
                        form="self_method",
                        name=chain[1],
                        method=method,
                        refs=refs,
                    )
                return CallSite(
                    line=line,
                    col=col,
                    form="self_attr_method",
                    name=method,
                    attr=chain[1],
                    method=method,
                    refs=refs,
                )
            if chain is not None and len(chain) == 2:
                return CallSite(
                    line=line,
                    col=col,
                    form="local_attr_method",
                    name=method,
                    attr=chain[0],
                    method=method,
                    refs=refs,
                )
            return CallSite(
                line=line,
                col=col,
                form="unknown",
                name=method,
                method=method,
                refs=refs,
            )
        return CallSite(line=line, col=col, form="unknown", name="", refs=refs)

    def _keyword(self, node: ast.Call, name: str) -> Optional[ast.expr]:
        for keyword in node.keywords:
            if keyword.arg == name:
                return keyword.value
        return None

    def _detect_dispatch(
        self, node: ast.Call, site: Optional[CallSite]
    ) -> None:
        if site is None:
            return
        line, col = node.lineno, node.col_offset
        method = site.method or site.name.rsplit(".", 1)[-1]

        # ``asyncio.run(coro())`` and friends hand the coroutine to a
        # (possibly fresh) event loop: that is a context *boundary*, not
        # a direct call — a thread hosting a loop must not bleed its
        # thread context into the async world it drives.
        if (
            site.name in ("asyncio.run", "asyncio.run_coroutine_threadsafe")
            or method == "run_until_complete"
        ) and node.args:
            inner = node.args[0]
            if isinstance(inner, ast.Call):
                self._suppressed_calls.add(id(inner))
                target = self._func_ref(inner.func)
            else:
                target = self._func_ref(inner)
            self.info.dispatches.append(
                Dispatch(
                    line=line,
                    col=col,
                    boundary="loop",
                    via=method if method == "run_until_complete" else site.name,
                    target=target,
                    arg_refs=[],
                )
            )
            return

        if method == "run_in_executor" and node.args:
            kind = self._executor_kind(node.args[0])
            target = (
                self._func_ref(node.args[1]) if len(node.args) > 1 else FuncRef()
            )
            self.info.dispatches.append(
                Dispatch(
                    line=line,
                    col=col,
                    boundary="spawn" if kind == "process" else "thread",
                    via="run_in_executor",
                    target=target,
                    arg_refs=self._interesting_refs(list(node.args[2:])),
                )
            )
            return

        if method == "submit" and node.args:
            kind = self._receiver_executor_kind(node.func)
            if kind is not None:
                self.info.dispatches.append(
                    Dispatch(
                        line=line,
                        col=col,
                        boundary="spawn" if kind == "process" else "thread",
                        via="Executor.submit",
                        target=self._func_ref(node.args[0]),
                        arg_refs=self._interesting_refs(list(node.args[1:])),
                    )
                )
            return

        if method in ("Thread", "Process") or site.name in (
            "threading.Thread",
            "multiprocessing.Process",
        ):
            target_expr = self._keyword(node, "target")
            if target_expr is None:
                return
            boundary = (
                "spawn"
                if method == "Process" or site.name.endswith("Process")
                else "thread"
            )
            args_expr = self._keyword(node, "args")
            arg_refs = (
                self._interesting_refs([args_expr])
                if args_expr is not None
                else []
            )
            self.info.dispatches.append(
                Dispatch(
                    line=line,
                    col=col,
                    boundary=boundary,
                    via=f"{method}(target=)",
                    target=self._func_ref(target_expr),
                    arg_refs=arg_refs,
                )
            )
            return

        if method in _LOOP_CALLBACKS:
            index = _LOOP_CALLBACKS[method]
            if len(node.args) > index:
                self.info.dispatches.append(
                    Dispatch(
                        line=line,
                        col=col,
                        boundary="loop",
                        via=method,
                        target=self._func_ref(node.args[index]),
                        arg_refs=[],
                    )
                )

    def _executor_kind(self, node: ast.expr) -> str:
        """Executor kind for ``run_in_executor``'s first argument."""
        if isinstance(node, ast.Constant) and node.value is None:
            return "thread"  # the default executor is a thread pool
        chain = _attr_chain(node)
        if chain is not None and chain[0] == "self" and len(chain) == 2:
            class_info = self.x.index.classes.get(self.info.class_name)
            if class_info is not None:
                return class_info.executor_attrs.get(chain[1], "thread")
        if isinstance(node, ast.Name):
            local_type = self.local_types.get(node.id)
            if local_type in _EXECUTOR_KINDS:
                return _EXECUTOR_KINDS[local_type]
        return "thread"

    def _receiver_executor_kind(self, func: ast.expr) -> Optional[str]:
        if not isinstance(func, ast.Attribute):
            return None
        chain = _attr_chain(func)
        if chain is None:
            return None
        if chain[0] == "self" and len(chain) == 3:
            class_info = self.x.index.classes.get(self.info.class_name)
            if class_info is not None:
                return class_info.executor_attrs.get(chain[1])
            return None
        if len(chain) == 2:
            local_type = self.local_types.get(chain[0])
            if local_type in _EXECUTOR_KINDS:
                return _EXECUTOR_KINDS[local_type]
        return None


def build_module_index(
    tree: ast.Module,
    imports: ImportMap,
    path: str,
    logical: str,
    module: Optional[str],
) -> ModuleIndex:
    """Extract the phase-1 record for one parsed file.

    ``module`` is the dotted module path for files under ``src/repro``;
    for other files (tests, scripts) the logical path doubles as the
    module key so the graph can still join them.
    """
    extractor = _Extractor(
        tree=tree,
        imports=imports,
        path=path,
        logical=logical,
        module=module or logical,
    )
    return extractor.extract()
