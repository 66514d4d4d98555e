"""RC007 — spawn-safety: everything crossing a spawn boundary must pickle.

The service's worker pool uses the ``spawn`` start method on purpose
(DESIGN.md §10): children re-import the world and share nothing.
That only works when everything handed across the boundary is
picklable *by construction* — a module-level function and plain-data
arguments.  A lambda, a closure (any ``<locals>`` function),
or a bound method of a stateful object either fails to pickle outright
or, worse, drags an unpicklable object graph along.

The rule checks every spawn dispatch site in ``src/repro/``:

* the ``target=`` / submitted callable must not be a lambda, a nested
  function, or a bound method;
* the payload arguments must not contain lambdas or nested functions;
* module-level mutable state touched by both a spawn-context function
  and the dispatching side of the same module is flagged — the child's
  re-imported copy silently diverges from the parent's.

``functools.partial`` is unwrapped: ``partial(module_fn, x)`` is fine,
``partial(lambda: ..., x)`` is not.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

from .base import ProjectRule, Violation, register
from .graph import CONTEXT_SPAWN, ProjectContext, _short
from .index import Dispatch, FunctionInfo, ModuleIndex

__all__ = ["SpawnSafety"]

_SCOPE_PREFIX = "src/repro/"

_TARGET_PROBLEMS = {
    "lambda": "a lambda",
    "nested": "a nested function (closure)",
    "self_method": "a bound method of the dispatching object",
    "attr_method": "a bound method of a stateful object",
    "bound": "a bound method of a stateful object",
}

_ARG_PROBLEMS = {
    "lambda": "a lambda",
    "nested": "a nested function (closure)",
}


@register
class SpawnSafety(ProjectRule):
    rule_id = "RC007"
    name = "spawn-safety"
    summary = (
        "callables and arguments crossing spawn Process/pool boundaries "
        "must be picklable by construction: module-level functions and "
        "plain data, no lambdas, closures, or bound methods; module "
        "state must not be shared across the boundary"
    )

    def check_project(self, project: object) -> Iterator[Violation]:
        assert isinstance(project, ProjectContext)
        graph = project.graph
        for fq in sorted(graph.functions):
            node = graph.functions[fq]
            module = node.module
            if not module.logical.startswith(_SCOPE_PREFIX):
                continue
            for dispatch in node.info.dispatches:
                if dispatch.boundary != "spawn":
                    continue
                yield from self._check_dispatch(module, fq, dispatch)
        yield from self._check_module_state(project)

    def _check_dispatch(
        self, module: ModuleIndex, fq: str, dispatch: Dispatch
    ) -> Iterator[Violation]:
        target = dispatch.target
        problem = _TARGET_PROBLEMS.get(target.form)
        if problem is not None:
            wrapped = "functools.partial of " if target.partial else ""
            yield self.project_violation(
                path=module.path,
                line=target.line or dispatch.line,
                column=(target.col or dispatch.col) + 1,
                message=(
                    f"spawn target of {dispatch.via} in {_short(fq)} is "
                    f"{wrapped}{problem}; spawn children can only receive "
                    "module-level functions (pickled by qualified name)"
                ),
            )
        for ref in dispatch.arg_refs:
            arg_problem = _ARG_PROBLEMS.get(ref.form)
            if arg_problem is not None:
                yield self.project_violation(
                    path=module.path,
                    line=ref.line or dispatch.line,
                    column=(ref.col or dispatch.col) + 1,
                    message=(
                        f"argument crossing the spawn boundary at "
                        f"{dispatch.via} in {_short(fq)} is {arg_problem}; "
                        "pass plain picklable data instead"
                    ),
                )

    def _check_module_state(
        self, project: ProjectContext
    ) -> Iterator[Violation]:
        graph = project.graph
        for module_key in sorted(project.index.modules):
            module = project.index.modules[module_key]
            if not module.logical.startswith(_SCOPE_PREFIX):
                continue
            # Functions of this module, split by side of the boundary.
            spawn_side: Dict[str, List[str]] = {}
            parent_side: Dict[str, List[str]] = {}
            has_spawn_dispatch = False
            for qual, info in module.functions.items():
                fn_fq = f"{module.module}.{qual}"
                fn_node = graph.functions.get(fn_fq)
                contexts: Set[str] = (
                    fn_node.contexts if fn_node is not None else set()
                )
                touched = self._touched_state(info)
                dispatches_spawn = any(
                    d.boundary == "spawn" for d in info.dispatches
                )
                has_spawn_dispatch = has_spawn_dispatch or dispatches_spawn
                for name in touched:
                    if CONTEXT_SPAWN in contexts:
                        spawn_side.setdefault(name, []).append(qual)
                    if dispatches_spawn or (contexts - {CONTEXT_SPAWN}):
                        parent_side.setdefault(name, []).append(qual)
            if not has_spawn_dispatch:
                continue
            for name in sorted(spawn_side):
                if name not in parent_side:
                    continue
                state = module.state.get(name)
                if state is None or state.synchronized:
                    continue
                line = state.line
                spawn_fns = ", ".join(sorted(set(spawn_side[name])))
                parent_fns = ", ".join(sorted(set(parent_side[name])))
                yield self.project_violation(
                    path=module.path,
                    line=line,
                    column=1,
                    message=(
                        f"module-level mutable state {name!r} is touched on "
                        f"both sides of a spawn boundary (parent: "
                        f"{parent_fns}; child: {spawn_fns}); spawn children "
                        "re-import the module, so the copies silently "
                        "diverge — pass the data through the payload instead"
                    ),
                )

    @staticmethod
    def _touched_state(info: FunctionInfo) -> Set[str]:
        touched = set(info.state_reads)
        touched.update(name for name, _ in info.state_writes)
        return touched
