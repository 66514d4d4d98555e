"""Unit tests for span tracing (repro.obs.tracing)."""

import asyncio
import contextvars
import json
import threading

from repro.obs import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    Tracer,
    render_span_tree,
)


class ListSink:
    """Collects the spans of sampled trees, in close order."""

    def __init__(self):
        self.spans = []

    def record(self, span):
        self.spans.append(span)


class TestDisabledTracer:
    def test_span_returns_shared_noop_singleton(self):
        tracer = Tracer(enabled=False)
        # Same object for every name: the disabled hot path allocates
        # nothing per call.
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b", key="value") is tracer.span("c")
        with tracer.span("a") as span:
            assert span.set(x=1) is NULL_SPAN
        assert tracer.event("e") is None
        assert tracer.records == []


class TestEnabledTracer:
    def test_nesting_parent_child_depth(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("sibling") as sibling:
                pass
        assert outer.parent_id is None and outer.depth == 0
        assert inner.parent_id == outer.span_id and inner.depth == 1
        assert sibling.parent_id == outer.span_id
        # Spans close inner-first.
        assert [span.name for span in tracer.spans] == [
            "inner", "sibling", "outer",
        ]
        assert outer.end >= inner.end >= inner.start >= outer.start

    def test_attributes_and_events(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s", protocol="S") as span:
            span.set(runs=3)
            tracer.event("hit", round=2)
        assert span.attributes == {"protocol": "S", "runs": 3}
        (event,) = tracer.events
        assert event.name == "hit"
        assert event.span_id == span.span_id
        assert span.start <= event.time <= span.end

    def test_durations_are_monotonic(self):
        tracer = Tracer(enabled=True)
        with tracer.span("timed"):
            pass
        (span,) = tracer.spans
        assert span.end >= span.start
        assert span.duration == span.end - span.start

    def test_clear(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.records == []
        with tracer.span("t") as span:
            pass
        assert span.span_id == 1


class TestContextNesting:
    def test_concurrent_tasks_never_parent_each_others_spans(self):
        """Two tasks interleaving on one event loop each nest their own
        spans (a per-thread stack would chain them into one tree)."""
        tracer = Tracer(enabled=True)

        async def task(name):
            with tracer.span(name) as outer:
                await asyncio.sleep(0)
                with tracer.span(f"{name}.inner") as inner:
                    await asyncio.sleep(0)
            return outer, inner

        async def main():
            return await asyncio.gather(task("a"), task("b"))

        (a, a_inner), (b, b_inner) = asyncio.run(main())
        assert a.parent_id is None and b.parent_id is None
        assert a.depth == b.depth == 0
        assert a_inner.parent_id == a.span_id
        assert b_inner.parent_id == b.span_id

    def test_threads_nest_their_own_spans(self):
        tracer = Tracer(enabled=True)
        started = threading.Barrier(2)
        opened = {}

        def work(name):
            with tracer.span(name) as span:
                started.wait()
                opened[name] = span

        threads = [threading.Thread(target=work, args=(n,)) for n in "xy"]
        with tracer.span("main"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert opened["x"].parent_id is None
        assert opened["y"].parent_id is None

    def test_copied_context_carries_the_parent_to_a_thread(self):
        tracer = Tracer(enabled=True)
        children = []

        def child():
            with tracer.span("child") as span:
                children.append(span)

        with tracer.span("parent") as parent:
            context = contextvars.copy_context()
            thread = threading.Thread(target=context.run, args=(child,))
            thread.start()
            thread.join()
        assert children[0].parent_id == parent.span_id

    def test_exit_in_another_context_does_not_raise(self):
        tracer = Tracer(enabled=True)
        manager = tracer.span("moved")
        manager.__enter__()
        contextvars.copy_context().run(manager.__exit__, None, None, None)
        (span,) = tracer.spans
        assert span.name == "moved" and span.end is not None


class TestSampledTrees:
    def test_disabled_tracer_sinks_a_sampled_tree_and_keeps_nothing(self):
        tracer = Tracer(enabled=False)
        sink = ListSink()
        with tracer.root("request", sink, request_id="r1") as root:
            with tracer.span("child") as child:
                pass
        assert [span.name for span in sink.spans] == ["child", "request"]
        assert child.parent_id == root.span_id
        assert root.attributes == {"request_id": "r1"}
        assert tracer.records == []
        # Outside the tree the disabled tracer is a no-op again.
        assert tracer.span("after") is NULL_SPAN

    def test_unsampled_root_on_a_disabled_tracer_is_the_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.root("request", None, request_id="r1") is NULL_SPAN

    def test_unsampled_root_detaches_its_body_from_a_sampled_tree(self):
        """An unsampled batch opened in a context inherited from a
        sampled request must not let its engine span join that
        request's tree (or reach its sink)."""
        tracer = Tracer(enabled=False)
        sink = ListSink()
        with tracer.root("request", sink):
            with tracer.root("batch", None) as batch:
                assert batch is NULL_SPAN
                assert tracer.span("engine") is NULL_SPAN
            with tracer.span("after") as after:
                pass
        assert [span.name for span in sink.spans] == ["after", "request"]
        assert after.depth == 1

    def test_root_ignores_the_open_span(self):
        tracer = Tracer(enabled=True)
        sink = ListSink()
        with tracer.span("request"):
            with tracer.root("batch", sink) as batch:
                with tracer.span("engine") as engine:
                    pass
        assert batch.parent_id is None and batch.depth == 0
        assert engine.parent_id == batch.span_id
        assert [span.name for span in sink.spans] == ["engine", "batch"]
        # An enabled tracer keeps every span, sampled or not.
        assert [span.name for span in tracer.spans] == [
            "engine", "batch", "request",
        ]


class TestJsonlExport:
    def test_meta_first_then_sorted_records(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            tracer.event("marker")
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(path))
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert lines[0] == {
            "kind": "meta",
            "schema_version": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter",
            "unit": "seconds",
        }
        records = lines[1:]
        # Sorted by start time: outer first even though it closed last.
        assert [r["kind"] for r in records] == ["span", "event", "span"]
        assert records[0]["name"] == "outer"
        assert records[2]["name"] == "inner"
        assert records[2]["parent_id"] == records[0]["span_id"]
        times = [r.get("start", r.get("time")) for r in records]
        assert times == sorted(times)

    def test_empty_tracer_exports_meta_only(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        Tracer(enabled=True).export_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "meta"

    def test_export_overwrites_previous_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(enabled=True)
        with tracer.span("first"):
            pass
        tracer.export_jsonl(str(path))
        tracer.clear()
        with tracer.span("second"):
            pass
        tracer.export_jsonl(str(path))
        names = [
            json.loads(line).get("name")
            for line in path.read_text().splitlines()
        ]
        assert "second" in names and "first" not in names

    def test_non_json_attributes_stringified(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s", topology=object()):
            pass
        # default=str keeps the export valid JSON for arbitrary attrs.
        for line in tracer.to_jsonl().splitlines():
            json.loads(line)


class TestRenderSpanTree:
    def test_empty(self):
        assert render_span_tree(Tracer(enabled=True)) == "(no spans recorded)"

    def test_siblings_aggregate_by_name(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("leaf"):
                    tracer.event("tick")
        text = render_span_tree(tracer)
        assert "root" in text
        assert "leaf  x3" in text
        assert "* tick x3" in text
