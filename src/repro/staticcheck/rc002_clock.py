"""RC002 clock-discipline: evaluation layers use one monotonic clock.

The repository's second shipped bug was cache hits inflating
wall-time metrics — timing code sprinkled through the evaluation path
measured the wrong thing.  The fix centralized duration measurement on
the monotonic clock the observability layer owns; this rule keeps
``engine/``, ``protocols/``, ``adversary/``, and ``service/`` free of
direct ``time.*`` / ``datetime.*`` calls so every duration and
timestamp flows through :func:`repro.obs.runtime.monotonic` (and stays
immune to wall-clock adjustments, cache hits, and replay).  The
serving tier is in scope because request latencies, batch-wait
deadlines, and drain timeouts are exactly the durations that go wrong
on a wall clock; its one legitimate wall-clock need — stamping
``BENCH_serve.json`` — routes through
:func:`repro.obs.runtime.utc_now_isoformat`.

``repro.obs.audit`` is individually in scope as well: its span
records are timed by the tracer's monotonic clock, and any wall-clock
stamp it needs must come from the sanctioned
:func:`repro.obs.runtime.utc_now_isoformat` escape hatch — not ad-hoc
``time.time()`` calls scattered through the module.  The rest of
``obs/`` stays exempt: ``obs/runtime.py`` *is* the clock facade.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule, Violation, register

#: Subpackages of ``repro`` the rule scopes to.
SCOPED_SUBPACKAGES = frozenset({"engine", "protocols", "adversary", "service"})

#: Individually scoped modules outside those subpackages.  The audit
#: log is the serving tier's record of time, so it is held to the
#: ``obs.runtime`` clock facade even though ``obs/`` at large (which
#: contains that facade) cannot be.
SCOPED_MODULES = frozenset({"repro.obs.audit"})


@register
class ClockDiscipline(Rule):
    rule_id = "RC002"
    name = "clock-discipline"
    summary = (
        "no time.*/datetime.* calls in engine/, protocols/, "
        "adversary/, service/; use repro.obs.runtime.monotonic()"
    )

    def applies(self, ctx: FileContext) -> bool:
        return (
            ctx.subpackage in SCOPED_SUBPACKAGES
            or ctx.module in SCOPED_MODULES
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.resolve(node.func)
            if name is None:
                continue
            if name.startswith("time.") or name.startswith("datetime."):
                yield self.violation(
                    ctx,
                    node,
                    f"direct clock call `{name}(...)` in an evaluation "
                    "layer: route timing through "
                    "repro.obs.runtime.monotonic() so durations stay "
                    "monotonic and cache-hit-free",
                )
