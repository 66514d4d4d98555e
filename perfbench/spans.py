"""In-memory span recording and self-time accounting.

Spans are recorded from outside the program: :meth:`Recorder.patch`
replaces a function where its caller looks it up with a wrapper that
times the call.  A span is the tuple ``(id, name, start, end, busy,
parent, op, thread, count)``:

* ``busy`` is ``end - start`` for a call, and the summed time spent
  inside ``next()`` for an iterator (whose consumer interleaves with
  it, so its interval is not busy throughout);
* ``parent`` is the span that was current where the call was made.
  The current span and op travel in context variables, so concurrent
  asyncio tasks keep separate stacks and work handed to an executor
  thread with a copied context keeps its parent;
* ``op`` is the benchmark operation the span belongs to: an integer,
  or a batch id (``"b<n>"``) whose member ops are listed in
  :attr:`Recorder.batches`;
* ``count`` is a per-span quantity chosen by the wrapper (runs in a
  kernel call, 1 for a cache hit, cache length after a put).

Self time is a span's duration minus the time its children cover:
the union of the children's intervals plus the busy time of iterator
children.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, float, Optional[int], Any, int, float]

ID, NAME, START, END, BUSY, PARENT, OP, THREAD, COUNT = range(9)

CountFn = Callable[[tuple, dict, Any], float]
ScopeFn = Callable[[tuple, dict], Optional[Any]]

now = time.perf_counter


class Recorder:
    """Collects spans in memory; :meth:`export` hands them out at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.batches: Dict[str, List[int]] = {}
        self._ids = itertools.count()
        self._batch_ids = itertools.count()
        self.current_span: "contextvars.ContextVar[Optional[int]]" = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self.current_op: "contextvars.ContextVar[Any]" = contextvars.ContextVar(
            "perfbench_op", default=None
        )

    def new_id(self) -> int:
        return next(self._ids)

    def new_batch(self, members: List[int]) -> str:
        batch = f"b{next(self._batch_ids)}"
        self.batches[batch] = members
        return batch

    def add(
        self,
        span_id: int,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        op: Any,
        busy: Optional[float] = None,
        count: float = 0.0,
    ) -> None:
        self.spans.append(
            (
                span_id,
                name,
                start,
                end,
                end - start if busy is None else busy,
                parent,
                op,
                threading.get_ident(),
                count,
            )
        )

    def export(self) -> Dict[str, Any]:
        return {"spans": [list(span) for span in self.spans], "batches": self.batches}

    # -- wrappers ------------------------------------------------------

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        count: Optional[CountFn] = None,
        scope: Optional[ScopeFn] = None,
    ) -> Callable[..., Any]:
        """Time each call of ``func`` as a span named ``name``.

        ``scope(args, kwargs)`` may return an op to run the call under
        as a new root (the engine call of a served batch).
        """
        if inspect.iscoroutinefunction(func):
            return self._wrap_async(name, func, count)
        current_span, current_op = self.current_span, self.current_op

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = next(self._ids)
            scoped = scope(args, kwargs) if scope is not None else None
            if scoped is None:
                parent, op = current_span.get(), current_op.get()
                op_token = None
            else:
                parent, op = None, scoped
                op_token = current_op.set(op)
            token = current_span.set(span_id)
            start = now()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = now()
                current_span.reset(token)
                if op_token is not None:
                    current_op.reset(op_token)
                self.add(
                    span_id, name, start, end, parent, op,
                    count=count(args, kwargs, result) if count else 0.0,
                )

        return wrapper

    def _wrap_async(
        self, name: str, func: Callable[..., Any], count: Optional[CountFn]
    ) -> Callable[..., Any]:
        current_span, current_op = self.current_span, self.current_op

        @functools.wraps(func)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = next(self._ids)
            parent, op = current_span.get(), current_op.get()
            token = current_span.set(span_id)
            start = now()
            result = None
            try:
                result = await func(*args, **kwargs)
                return result
            finally:
                end = now()
                current_span.reset(token)
                self.add(
                    span_id, name, start, end, parent, op,
                    count=count(args, kwargs, result) if count else 0.0,
                )

        return wrapper

    def wrap_iterator(
        self, name: str, func: Callable[..., Iterable[Any]]
    ) -> Callable[..., Iterable[Any]]:
        """Time the iteration of what ``func`` returns as one span.

        ``func`` is still called eagerly, so errors it raises up front
        surface where they did before.
        """
        current_span, current_op = self.current_span, self.current_op

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Iterable[Any]:
            iterator = iter(func(*args, **kwargs))
            return self._timed(
                name, iterator, next(self._ids), current_span.get(),
                current_op.get(),
            )

        return wrapper

    def _timed(
        self,
        name: str,
        iterator: Any,
        span_id: int,
        parent: Optional[int],
        op: Any,
    ) -> Any:
        first = last = now()
        busy = 0.0
        items = 0
        try:
            while True:
                started = now()
                try:
                    item = next(iterator)
                except StopIteration:
                    last = now()
                    busy += last - started
                    return
                last = now()
                busy += last - started
                items += 1
                yield item
        finally:
            self.add(
                span_id, name, first, last, parent, op, busy=busy, count=items
            )

    def patch(
        self,
        target: str,
        name: str,
        count: Optional[CountFn] = None,
        scope: Optional[ScopeFn] = None,
        iterator: bool = False,
    ) -> Callable[[], None]:
        """Replace ``module[:Class].attribute`` with a timed wrapper.

        ``iterator=True`` times the iteration of the returned iterator
        instead of the call.  Returns a function that restores the
        original.
        """
        owner, attribute = _resolve(target)
        raw = inspect.getattr_static(owner, attribute)
        inner = raw.__func__ if isinstance(raw, classmethod) else raw
        if iterator:
            wrapped = self.wrap_iterator(name, inner)
        else:
            wrapped = self.wrap(name, inner, count, scope)
        replacement = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
        setattr(owner, attribute, replacement)
        return lambda: setattr(owner, attribute, raw)


def _resolve(target: str) -> Tuple[Any, str]:
    path, attribute = target.rsplit(".", 1)
    module_name, _, class_name = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner, attribute


# -- accounting ---------------------------------------------------------


def _covered(parent: Span, children: Iterable[Span]) -> float:
    """Time within ``parent`` during which a child was running."""
    intervals = []
    busy = 0.0
    for child in children:
        if child[BUSY] < child[END] - child[START]:
            busy += child[BUSY]
            continue
        start, end = max(child[START], parent[START]), min(child[END], parent[END])
        if end > start:
            intervals.append((start, end))
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return min(parent[BUSY], covered + busy)


def self_times(
    spans: Sequence[Span], extra_children: Optional[Dict[int, List[Span]]] = None
) -> Dict[int, float]:
    """Self time of every span, by span id.

    ``extra_children`` adds children that are not linked by ``parent``
    (the engine call a served batch made on behalf of each member's
    ``submit``).
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    for parent_id, extra in (extra_children or {}).items():
        children.setdefault(parent_id, []).extend(extra)
    return {
        span[ID]: max(0.0, span[BUSY] - _covered(span, children.get(span[ID], ())))
        for span in spans
    }
