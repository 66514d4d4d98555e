"""Phase 2 of the project-wide analyzer: the interprocedural call graph.

Built from the serializable :class:`~repro.staticcheck.index.RepoIndex`,
this module resolves the normalized call sites of every function
against the whole-repo symbol table and derives the two facts the
concurrency rules run on:

* **execution contexts** — which of ``event_loop`` / ``thread`` /
  ``spawn`` a function can run under.  ``async def`` seeds
  ``event_loop``; dispatch sites (``run_in_executor``, executor
  ``submit``, ``Thread``/``Process`` targets, loop callbacks) seed
  their targets; contexts then propagate along *direct* call edges
  only — a dispatch is precisely the point where the context changes,
  so it never propagates the caller's context;
* **blocking reachability** — a function is blocking if it directly
  calls a blocking primitive (``time.sleep``, sync file/socket I/O,
  ``subprocess``, direct ``Engine.evaluate*``) or directly calls a
  blocking repo function.  Dispatching blocking work to an executor is
  the sanctioned escape hatch and does not propagate.

Resolution is best-effort and conservative: ``self.m()`` resolves
through the class hierarchy including subclass overrides, ``self.attr.m()``
through inferred attribute types, and anything unresolvable is kept as
an external call so method-name heuristics (pathlib I/O, engine
evaluation) still apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .index import CallSite, ClassInfo, FuncRef, FunctionInfo, ModuleIndex, RepoIndex

__all__ = [
    "BlockCause",
    "CallGraph",
    "ClassNode",
    "FunctionNode",
    "ProjectContext",
    "SPAWN_DISPATCH_QUALNAMES",
    "CONTEXT_EVENT_LOOP",
    "CONTEXT_SPAWN",
    "CONTEXT_THREAD",
]

CONTEXT_EVENT_LOOP = "event_loop"
CONTEXT_THREAD = "thread"
CONTEXT_SPAWN = "spawn"

_BOUNDARY_CONTEXT = {
    "thread": CONTEXT_THREAD,
    "spawn": CONTEXT_SPAWN,
    "loop": CONTEXT_EVENT_LOOP,
}

#: Repo surfaces that forward their first function argument into a
#: spawn-context pool.  ``WorkerPool.run`` receives the callable as a
#: parameter, so the ``run_in_executor`` inside it cannot be resolved
#: statically — the boundary is declared here instead.
SPAWN_DISPATCH_QUALNAMES = frozenset(
    {
        "repro.service.workers.WorkerPool.run",
    }
)

#: External dotted calls that block the calling thread.
BLOCKING_EXACT = frozenset(
    {
        "time.sleep",
        "os.replace",
        "os.rename",
        "os.remove",
        "os.unlink",
        "os.rmdir",
        "os.makedirs",
        "os.mkdir",
        "os.fsync",
        "os.fdatasync",
        "os.open",
        "os.sendfile",
        "pickle.dump",
        "pickle.load",
        "json.dump",
        "json.load",
    }
)

BLOCKING_PREFIXES = ("subprocess.", "socket.", "shutil.", "urllib.")

#: Unresolved bare names that are blocking builtins.
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Method names that are file I/O wherever they appear in this repo
#: (pathlib surfaces); receiver types are often unresolvable, so the
#: name itself is the signal.
BLOCKING_METHOD_NAMES = frozenset(
    {"read_bytes", "write_bytes", "read_text", "write_text", "mkdir"}
)

#: Direct engine evaluation: blocking by definition (that is what the
#: micro-batcher's single-thread executor exists for).
ENGINE_METHOD_NAMES = frozenset({"evaluate", "evaluate_many"})
ENGINE_RECEIVER_NAMES = frozenset({"engine", "_engine"})


@dataclass
class FunctionNode:
    """One function in the project graph."""

    fq: str  # "<module>.<qual>"
    module: ModuleIndex
    info: FunctionInfo
    contexts: Set[str] = field(default_factory=set)
    edges: List[Tuple[CallSite, str]] = field(default_factory=list)
    external: List[Tuple[CallSite, str]] = field(default_factory=list)


@dataclass
class ClassNode:
    fq: str
    module: ModuleIndex
    info: ClassInfo
    bases: List[str] = field(default_factory=list)  # resolved class fqs
    subclasses: List[str] = field(default_factory=list)


@dataclass
class BlockCause:
    """Why a function is considered blocking."""

    site: CallSite
    reason: str  # the blocking primitive, for direct causes
    via: Optional[str] = None  # callee fq, for transitive causes

    def render(self, graph: "CallGraph", depth: int = 4) -> str:
        """Human-readable chain ending at the root primitive."""
        if self.via is None:
            return self.reason
        chain = [self.via]
        cause = graph.blocking.get(self.via)
        while cause is not None and cause.via is not None and depth > 0:
            chain.append(cause.via)
            cause = graph.blocking.get(cause.via)
            depth -= 1
        root = cause.reason if cause is not None else "a blocking call"
        hops = " -> ".join(_short(fq) for fq in chain)
        return f"calls {hops}, which blocks on {root}"


#: Call forms whose method name alone may mark a blocking call (the
#: receiver's type is unknown or external).
_HEURISTIC_FORMS = (
    "self_attr_method",
    "local_attr_method",
    "super_method",
    "unknown",
)


def _short(fq: str) -> str:
    parts = fq.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else fq


class CallGraph:
    """Whole-repo resolution, contexts, and blocking reachability."""

    def __init__(self, index: RepoIndex) -> None:
        self.index = index
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassNode] = {}
        self._build_tables()
        self._resolve_calls()
        self._classify_contexts()
        self.blocking: Dict[str, BlockCause] = {}
        self._compute_blocking()

    # -- tables ---------------------------------------------------------

    def _build_tables(self) -> None:
        for module in self.index.modules.values():
            for qual, info in module.functions.items():
                fq = f"{module.module}.{qual}"
                self.functions[fq] = FunctionNode(fq=fq, module=module, info=info)
            for name, cls in module.classes.items():
                fq = f"{module.module}.{name}"
                self.classes[fq] = ClassNode(fq=fq, module=module, info=cls)
        for node in self.classes.values():
            for base in node.info.bases:
                if base in self.classes:
                    node.bases.append(base)
                    self.classes[base].subclasses.append(node.fq)

    def _ancestors(self, class_fq: str) -> List[str]:
        seen: List[str] = []
        stack = [class_fq]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.append(current)
            node = self.classes.get(current)
            if node is not None:
                stack.extend(node.bases)
        return seen

    def _descendants(self, class_fq: str) -> List[str]:
        seen: List[str] = []
        node = self.classes.get(class_fq)
        stack = list(node.subclasses) if node is not None else []
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.append(current)
            child = self.classes.get(current)
            if child is not None:
                stack.extend(child.subclasses)
        return seen

    def attr_type(self, class_fq: str, attr: str) -> Optional[str]:
        """Inferred type of ``self.<attr>`` seen from ``class_fq``."""
        for candidate in self._ancestors(class_fq):
            node = self.classes.get(candidate)
            if node is not None and attr in node.info.attr_types:
                return node.info.attr_types[attr]
        return None

    def find_method(self, class_fq: str, name: str) -> List[str]:
        """Defining fqs for a method: inherited definition + overrides."""
        results: List[str] = []
        for candidate in self._ancestors(class_fq):
            node = self.classes.get(candidate)
            if node is not None and name in node.info.methods:
                results.append(f"{candidate}.{name}")
                break
        for candidate in self._descendants(class_fq):
            node = self.classes.get(candidate)
            if node is not None and name in node.info.methods:
                fq = f"{candidate}.{name}"
                if fq not in results:
                    results.append(fq)
        return results

    def _class_of(self, node: FunctionNode) -> Optional[str]:
        if not node.info.class_name:
            return None
        return f"{node.module.module}.{node.info.class_name}"

    # -- call resolution ------------------------------------------------

    def _resolve_dotted(self, name: str) -> List[str]:
        """Repo functions a dotted path denotes (function, class init,
        or Class.method); empty when the path is external."""
        if name in self.functions:
            return [name]
        if name in self.classes:
            init = self.find_method(name, "__init__")
            return init if init else [f"{name}.__init__"]
        # module.Class.method written through an imported class
        head, _, tail = name.rpartition(".")
        if head in self.classes:
            return self.find_method(head, tail)
        return []

    def resolve_site(
        self, node: FunctionNode, call: CallSite
    ) -> Tuple[List[str], Optional[str]]:
        """(internal targets, external dotted name) for one call site."""
        module = node.module
        if call.form == "dotted":
            internal = self._resolve_dotted(call.name)
            if internal:
                return [fq for fq in internal if fq in self.functions], None
            return [], call.name
        if call.form == "local":
            fq = f"{module.module}.{call.name}"
            if fq in self.functions:
                return [fq], None
            if fq in self.classes:
                return (
                    [t for t in self.find_method(fq, "__init__")],
                    None,
                )
            return [], call.name  # builtin or star import
        if call.form == "self_method":
            class_fq = self._class_of(node)
            if class_fq is None:
                return [], None
            targets = self.find_method(class_fq, call.name)
            return [t for t in targets if t in self.functions], None
        if call.form == "super_method":
            # The first ancestor after the enclosing class defining it.
            class_fq = self._class_of(node)
            if class_fq is None:
                return [], None
            for ancestor in self._ancestors(class_fq)[1:]:
                parent = self.classes.get(ancestor)
                if parent is not None and call.name in parent.info.methods:
                    fq = f"{ancestor}.{call.name}"
                    return ([fq] if fq in self.functions else []), None
            return [], None
        if call.form == "self_attr_method":
            class_fq = self._class_of(node)
            if class_fq is None:
                return [], None
            receiver = self.attr_type(class_fq, call.attr)
            if receiver is not None and receiver in self.classes:
                targets = self.find_method(receiver, call.name)
                return [t for t in targets if t in self.functions], None
            return [], None
        return [], None

    def resolve_ref(self, node: FunctionNode, ref: FuncRef) -> List[str]:
        """Repo functions a function *reference* denotes."""
        module = node.module
        if ref.form == "dotted":
            return [
                fq
                for fq in self._resolve_dotted(ref.name)
                if fq in self.functions
            ]
        if ref.form == "local":
            fq = f"{module.module}.{ref.name}"
            if fq in self.functions:
                return [fq]
            if fq in self.classes:
                return [
                    t
                    for t in self.find_method(fq, "__init__")
                    if t in self.functions
                ]
            return []
        if ref.form == "self_method":
            class_fq = self._class_of(node)
            if class_fq is None:
                return []
            return [
                t
                for t in self.find_method(class_fq, ref.name)
                if t in self.functions
            ]
        if ref.form == "nested":
            fq = f"{module.module}.{node.info.qual}.<locals>.{ref.name}"
            return [fq] if fq in self.functions else []
        if ref.form == "attr_method":
            chain = ref.name.split(".")
            if len(chain) == 3 and chain[0] == "self":
                class_fq = self._class_of(node)
                if class_fq is None:
                    return []
                receiver = self.attr_type(class_fq, chain[1])
                if receiver is not None and receiver in self.classes:
                    return [
                        t
                        for t in self.find_method(receiver, chain[2])
                        if t in self.functions
                    ]
        return []

    def _resolve_calls(self) -> None:
        for fq in sorted(self.functions):
            node = self.functions[fq]
            for call in node.info.calls:
                internal, external = self.resolve_site(node, call)
                for target in internal:
                    node.edges.append((call, target))
                if external is not None:
                    node.external.append((call, external))

    # -- execution contexts ---------------------------------------------

    def _classify_contexts(self) -> None:
        pending: List[Tuple[str, str]] = []
        for fq in sorted(self.functions):
            node = self.functions[fq]
            if node.info.is_async:
                pending.append((fq, CONTEXT_EVENT_LOOP))
            for dispatch in node.info.dispatches:
                context = _BOUNDARY_CONTEXT[dispatch.boundary]
                for target in self.resolve_ref(node, dispatch.target):
                    pending.append((target, context))
        # Declared spawn surfaces: the first function-reference argument
        # of a call to a registered qualname crosses into spawn context.
        for fq in sorted(self.functions):
            node = self.functions[fq]
            for call, target in node.edges:
                if target in SPAWN_DISPATCH_QUALNAMES and call.refs:
                    for spawned in self.resolve_ref(node, call.refs[0]):
                        pending.append((spawned, CONTEXT_SPAWN))
        while pending:
            fq, context = pending.pop()
            node = self.functions.get(fq)
            if node is None or context in node.contexts:
                continue
            node.contexts.add(context)
            for _, callee in node.edges:
                pending.append((callee, context))

    # -- blocking reachability ------------------------------------------

    def _direct_block_reason(
        self, node: FunctionNode, call: CallSite, external: Optional[str]
    ) -> Optional[str]:
        if external is not None:
            if external in BLOCKING_EXACT:
                return f"{external}()"
            for prefix in BLOCKING_PREFIXES:
                if external.startswith(prefix):
                    return f"{external}()"
            if call.form == "local" and external in BLOCKING_BUILTINS:
                return f"builtin {external}()"
        method = call.method
        if method in BLOCKING_METHOD_NAMES and call.form in (
            "self_attr_method",
            "local_attr_method",
            "super_method",
            "unknown",
            "dotted",
        ):
            return f"file I/O ({method}())"
        if method in ENGINE_METHOD_NAMES:
            receiver = call.attr
            receiver_type = ""
            if call.form == "self_attr_method":
                class_fq = self._class_of(node)
                if class_fq is not None:
                    receiver_type = self.attr_type(class_fq, call.attr) or ""
            if (
                receiver in ENGINE_RECEIVER_NAMES
                or receiver_type.endswith(".Engine")
            ):
                return f"direct Engine.{method}()"
        return None

    def _compute_blocking(self) -> None:
        # Direct causes first, in deterministic order.
        for fq in sorted(self.functions):
            node = self.functions[fq]
            sites: List[Tuple[CallSite, Optional[str]]] = [
                (call, external) for call, external in node.external
            ]
            sites.extend(
                (call, None)
                for call in node.info.calls
                if call.form in _HEURISTIC_FORMS
            )
            for call, external in sorted(
                sites, key=lambda item: (item[0].line, item[0].col)
            ):
                reason = self._direct_block_reason(node, call, external)
                if reason is not None:
                    self.blocking[fq] = BlockCause(site=call, reason=reason)
                    break
        # Propagate along direct call edges until fixpoint.
        changed = True
        while changed:
            changed = False
            for fq in sorted(self.functions):
                if fq in self.blocking:
                    continue
                node = self.functions[fq]
                for call, callee in node.edges:
                    if callee in self.blocking and callee != fq:
                        self.blocking[fq] = BlockCause(
                            site=call, reason="", via=callee
                        )
                        changed = True
                        break

    # -- convenience ----------------------------------------------------

    def direct_blocking_sites(
        self, fq: str
    ) -> List[Tuple[CallSite, str]]:
        """Every direct blocking primitive in ``fq`` (not only the first)."""
        node = self.functions[fq]
        results: List[Tuple[CallSite, str]] = []
        seen: Set[Tuple[int, int]] = set()
        sites: List[Tuple[CallSite, Optional[str]]] = list(node.external)
        sites.extend(
            (call, None)
            for call in node.info.calls
            if call.form in _HEURISTIC_FORMS
        )
        for call, external in sorted(
            sites, key=lambda item: (item[0].line, item[0].col)
        ):
            reason = self._direct_block_reason(node, call, external)
            key = (call.line, call.col)
            if reason is not None and key not in seen:
                seen.add(key)
                results.append((call, reason))
        return results


@dataclass
class ProjectContext:
    """What a :class:`~repro.staticcheck.base.ProjectRule` runs over."""

    index: RepoIndex
    graph: CallGraph
