"""RC005 cache-purity: engine-cacheable functions must be pure.

The engine memoizes exact evaluation results keyed on the immutable
``(protocol, topology, run)`` triple.  That is only sound if the
functions producing those results are deterministic, side-effect-free
functions of their arguments — the registry
:data:`repro.engine.engine.CACHEABLE_QUALNAMES` names them, and this
rule verifies each one's body syntactically:

* no ``global`` / ``nonlocal`` statements (a cached result must not
  depend on or update module state);
* no calls into RNG or clock APIs (``random.*``, ``numpy.random.*``,
  ``time.*``, ``datetime.*``, ``secrets.*``, ``uuid.*``, and the
  repo's own ``spawn_*`` / ``monotonic`` helpers) — a cache hit
  replays the stored value, so any entropy or timestamp the function
  consumed would be silently frozen;
* no mutation of parameters (assignment or ``del`` through a
  parameter's attribute/subscript, or mutating method calls such as
  ``.append`` / ``.update`` on a bare parameter) — callers hand the
  engine shared immutable values.

The rule also covers the **cache surface itself**:
:data:`repro.engine.cache.CACHE_SURFACE_QUALNAMES` registers the
methods of every :class:`~repro.engine.cache.EngineCache`
implementation (``get`` / ``put``).  Those
run under the same no-globals / no-RNG / no-clock discipline, with
one relaxation: mutating *their own* state through ``self`` is their
job, so ``self`` is exempt from the argument-mutation check — keys
and results stay immutable shared values.

The check is intraprocedural: helpers a cacheable function calls are
not followed.  A registered qualname whose function is missing from
its module is reported as a stale registration.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .base import FileContext, Rule, Violation, register

#: Dotted-call prefixes whose use makes a cacheable function impure.
_IMPURE_CALL_PREFIXES = (
    "random.",
    "numpy.random.",
    "time.",
    "datetime.",
    "secrets.",
    "uuid.",
    "os.urandom",
    "os.environ",
    "repro.core.seeding.",
    "repro.obs.runtime.monotonic",
)

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
        "write",
    }
)


#: Registry entry: (qualname, exempt_self) — cache-surface methods may
#: mutate their receiver, evaluation functions may not touch anything.
Target = Tuple[str, bool]


def _load_registry() -> Dict[str, Dict[Tuple[str, ...], Target]]:
    """``{module: {(class?, function): (qualname, exempt_self)}}``.

    Imported lazily so the analyzer framework itself stays import-free
    of the code under check.
    """
    from ..engine.cache import CACHE_SURFACE_QUALNAMES
    from ..engine.engine import CACHEABLE_QUALNAMES

    registry: Dict[str, Dict[Tuple[str, ...], Target]] = {}
    surfaces = (
        (CACHEABLE_QUALNAMES, False),
        (CACHE_SURFACE_QUALNAMES, True),
    )
    for qualnames, exempt_self in surfaces:
        for qualname in qualnames:
            parts = qualname.split(".")
            # The object path is the trailing CamelCase/function
            # segments; everything up to the last lowercase module
            # segment is the module.  Convention in this repo: modules
            # are lowercase, classes are CamelCase, so split at the
            # first capitalized segment (or the final segment for
            # plain functions).
            split = len(parts) - 1
            for index, part in enumerate(parts):
                if part[:1].isupper():
                    split = index
                    break
            module = ".".join(parts[:split])
            objpath = tuple(parts[split:])
            registry.setdefault(module, {})[objpath] = (qualname, exempt_self)
    return registry


def _find_function(
    tree: ast.Module, objpath: Tuple[str, ...]
) -> Optional[ast.FunctionDef]:
    body: List[ast.stmt] = list(tree.body)
    for index, name in enumerate(objpath):
        found: Optional[ast.stmt] = None
        for stmt in body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and stmt.name == name
            ):
                found = stmt
                break
        if found is None:
            return None
        if index == len(objpath) - 1:
            return found if isinstance(found, ast.FunctionDef) else None
        if not isinstance(found, ast.ClassDef):
            return None
        body = list(found.body)
    return None


def _parameter_names(func: ast.FunctionDef) -> Set[str]:
    args = func.args
    names = {arg.arg for arg in args.posonlyargs}
    names.update(arg.arg for arg in args.args)
    names.update(arg.arg for arg in args.kwonlyargs)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _base_name(node: ast.AST) -> Optional[str]:
    """The root ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@register
class CachePurity(Rule):
    rule_id = "RC005"
    name = "cache-purity"
    summary = (
        "engine-cacheable functions (CACHEABLE_QUALNAMES) must not "
        "touch globals, mutate arguments, or call RNG/clock APIs"
    )

    def __init__(self) -> None:
        self._registry: Optional[
            Dict[str, Dict[Tuple[str, ...], Target]]
        ] = None

    def _targets(
        self, module: Optional[str]
    ) -> Dict[Tuple[str, ...], Target]:
        if self._registry is None:
            self._registry = _load_registry()
        if module is None:
            return {}
        return self._registry.get(module, {})

    def applies(self, ctx: FileContext) -> bool:
        return bool(self._targets(ctx.module))

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        targets = self._targets(ctx.module)
        for objpath, (qualname, exempt_self) in sorted(targets.items()):
            func = _find_function(ctx.tree, objpath)
            if func is None:
                yield Violation(
                    path=ctx.path,
                    line=1,
                    column=1,
                    rule=self.rule_id,
                    message=(
                        f"stale cacheable registration: {qualname!r} is "
                        "not defined in this module; update "
                        "repro.engine.engine.CACHEABLE_QUALNAMES / "
                        "repro.engine.cache.CACHE_SURFACE_QUALNAMES"
                    ),
                )
                continue
            yield from self._check_purity(ctx, func, qualname, exempt_self)

    def _check_purity(
        self,
        ctx: FileContext,
        func: ast.FunctionDef,
        qualname: str,
        exempt_self: bool = False,
    ) -> Iterator[Violation]:
        params = _parameter_names(func)
        if exempt_self and func.args.args:
            # Cache-surface methods mutate their own state by design;
            # the receiver is exempt, keys/results stay immutable.
            params.discard(func.args.args[0].arg)
        label = (
            f"cache-surface method {qualname!r}"
            if exempt_self
            else f"cacheable function {qualname!r}"
        )
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                yield self.violation(
                    ctx,
                    node,
                    f"{label} declares "
                    f"`{'global' if isinstance(node, ast.Global) else 'nonlocal'}"
                    f" {', '.join(node.names)}`: cached results must not "
                    "depend on or update surrounding state",
                )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, params, label)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                yield from self._check_mutation(ctx, node, params, label)

    def _check_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        params: Set[str],
        label: str,
    ) -> Iterator[Violation]:
        name = ctx.imports.resolve(node.func)
        if name is not None:
            for prefix in _IMPURE_CALL_PREFIXES:
                if name == prefix.rstrip(".") or name.startswith(prefix):
                    yield self.violation(
                        ctx,
                        node,
                        f"{label} calls `{name}(...)`: a memoized result "
                        "would silently freeze the entropy/timestamp it "
                        "consumed",
                    )
                    return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and _base_name(func.value) in params
        ):
            yield self.violation(
                ctx,
                node,
                f"{label} calls `.{func.attr}(...)` on parameter "
                f"`{_base_name(func.value)}`: arguments are shared, "
                "treat them as immutable",
            )

    def _check_mutation(
        self,
        ctx: FileContext,
        node: ast.stmt,
        params: Set[str],
        label: str,
    ) -> Iterator[Violation]:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            for target in node.targets:
                targets.extend(
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            base = _base_name(target)
            if base in params:
                yield self.violation(
                    ctx,
                    node,
                    f"{label} writes through parameter `{base}`: "
                    "arguments are shared, treat them as immutable",
                )
