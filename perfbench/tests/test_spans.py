import contextvars
import random
import threading

import pytest

from perfbench.layers import install_search, layer_metrics
from perfbench.spans import COUNT, NAME, OP, PARENT, THREAD, Recorder, self_times


def span(span_id, start, end, parent=None, op=0, busy=None, name="x", count=0):
    busy = end - start if busy is None else busy
    return (span_id, name, start, end, busy, parent, op, 0, count)


def test_self_time_subtracts_nested_children():
    spans = [span(0, 0, 10), span(1, 2, 5, parent=0), span(2, 3, 4, parent=1)]
    assert self_times(spans) == {0: 7, 1: 2, 2: 1}


def test_overlapping_cross_thread_children_count_once():
    spans = [span(0, 0, 10), span(1, 1, 4, parent=0), span(2, 3, 6, parent=0)]
    assert self_times(spans)[0] == 5


def test_child_outside_its_parent_is_clipped():
    spans = [span(0, 0, 10), span(1, 8, 12, parent=0)]
    assert self_times(spans)[0] == 8


def test_iterator_child_counts_only_its_busy_time():
    spans = [span(0, 0, 10), span(1, 1, 9, parent=0, busy=2)]
    assert self_times(spans)[0] == 8


def test_extra_children_are_subtracted():
    spans = [span(0, 0, 10), span(1, 2, 6, parent=None, op="b0")]
    assert self_times(spans, {0: [spans[1]]})[0] == 6


def test_recorded_spans_keep_parents_across_threads():
    recorder = Recorder()

    def leaf():
        return 1

    timed_leaf = recorder.wrap("leaf", leaf)

    def parent():
        context = contextvars.copy_context()
        worker = threading.Thread(target=context.run, args=(timed_leaf,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return timed_leaf()

    recorder.current_op.set(7)
    recorder.wrap("parent", parent)()
    by_name = {}
    for recorded in recorder.spans:
        by_name.setdefault(recorded[NAME], []).append(recorded)
    (root,) = by_name["parent"]
    assert [leaf[PARENT] for leaf in by_name["leaf"]] == [root[0], root[0]]
    assert {recorded[OP] for recorded in recorder.spans} == {7}
    assert len({leaf[THREAD] for leaf in by_name["leaf"]}) == 2


def test_iterator_span_times_only_next_calls():
    recorder = Recorder()
    timed = recorder.wrap_iterator("gen", lambda n: iter(range(n)))
    assert list(timed(4)) == [0, 1, 2, 3]
    (recorded,) = recorder.spans
    assert recorded[NAME] == "gen" and recorded[COUNT] == 4


def test_batch_time_counts_for_every_member():
    ms = 1e-3
    spans = []
    for op in (0, 1):
        base = op * 100
        spans += [
            span(base, 0, 10 * ms, op=op, name="service.server.request"),
            span(base + 1, 2 * ms, 8 * ms, parent=base, op=op, name="service.batcher.submit"),
        ]
    spans += [
        span(50, 3 * ms, 7 * ms, op="b0", name="engine"),
        span(51, 4 * ms, 5 * ms, parent=50, op="b0", name="core.probability.reference"),
        span(52, 5 * ms, 6 * ms, parent=50, op="b0", name="engine.cache.get", count=1),
    ]
    exported = {"spans": spans, "batches": {"b0": [0, 1]}}
    metrics = layer_metrics(exported, [0, 1], [0.012, 0.012])
    assert metrics["service.batcher.wait_ms"] == pytest.approx(2.0)
    assert metrics["engine.self_ms"] == pytest.approx(2.0)
    assert metrics["core.probability.reference_ms"] == pytest.approx(1.0)
    assert metrics["service.server.other_ms"] == pytest.approx(4.0)
    assert metrics["client.overhead_ms"] == pytest.approx(2.0)
    assert metrics["trace.unattributed_ms"] == pytest.approx(0.0, abs=1e-9)
    assert metrics["service.batcher.batch_size"] == 2
    assert metrics["engine.cache.lookups"] == 0.5
    assert metrics["engine.cache.hit_ratio"] == 1.0
    assert metrics["engine.reference_share"] == 1.0
    assert layer_metrics(exported, [1], [0.012])["service.batcher.batch_size"] == 1


def test_search_wrappers_record_layers_and_restore():
    import repro.adversary.search as search
    from repro.cli import parse_protocol, parse_topology

    original = search.worst_case_unsafety
    recorder = Recorder()
    restore = install_search(recorder)
    try:
        recorder.current_op.set(0)
        result = search.worst_case_unsafety(
            parse_protocol("S", 6), parse_topology("pair"), 6, rng=random.Random(1)
        )
    finally:
        restore()
    assert search.worst_case_unsafety is original
    names = {recorded[NAME] for recorded in recorder.spans}
    assert {"adversary.search", "core.packed.enumerate", "engine.vectorized.kernel"} <= names
    metrics = layer_metrics(recorder.export(), [0], [0.5])
    assert metrics["core.packed.enumerate_ms"] > 0
    assert metrics["engine.cache.lookups"] == 0
    assert result.runs_examined == 16384
