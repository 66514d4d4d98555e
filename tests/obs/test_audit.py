"""Audit trails: trace contexts, the span log, and stitching.

Covers the three layers DESIGN.md §12 documents: the deterministic
sampling verdict and what request headers may (the id) and may not
(the verdict) decide, the logger as the tracer's sink under
concurrent writers including size rotation and restarts, and
:func:`stitch_request` — spans join by parent link within one run,
into the same tree whatever order they are read in.
"""

import itertools
import json
import threading

import pytest

import repro.obs.audit as audit_module
from repro.obs import TRACE_SCHEMA_VERSION, Span, Tracer
from repro.obs.audit import (
    REQUEST_ID_HEADER,
    AuditLogger,
    TraceContext,
    audit_log_path,
    deterministic_sample,
    load_audit_dir,
    missing_stages,
    new_request_id,
    read_audit_log,
    render_request_tree,
    stitch_request,
)

#: A request header claiming a sampling verdict; the server must not
#: take it from clients.
SAMPLED_HEADER = "x-repro-trace-sampled"

# -- sampling ----------------------------------------------------------


class TestDeterministicSample:
    def test_rate_bounds(self):
        assert deterministic_sample("anything", 1.0) is True
        assert deterministic_sample("anything", 0.0) is False

    def test_same_id_same_verdict(self):
        for index in range(50):
            request_id = f"req-{index}"
            first = deterministic_sample(request_id, 0.5)
            assert deterministic_sample(request_id, 0.5) is first

    def test_monotone_in_rate(self):
        """An id sampled at a low rate stays sampled at any higher rate."""
        for index in range(200):
            request_id = f"req-{index}"
            if deterministic_sample(request_id, 0.2):
                assert deterministic_sample(request_id, 0.6)

    def test_rate_is_roughly_proportional(self):
        ids = [f"workload-{index}" for index in range(2000)]
        kept = sum(1 for rid in ids if deterministic_sample(rid, 0.5))
        assert 800 < kept < 1200


class TestTraceContext:
    def test_client_id_honored_and_always_sampled(self):
        trace = TraceContext.from_headers(
            {REQUEST_ID_HEADER.lower(): "debug-me_1:a"}, sample_rate=0.0
        )
        assert trace.request_id == "debug-me_1:a"
        assert trace.client_supplied is True
        assert trace.sampled is True

    @pytest.mark.parametrize(
        "bad", ["", "has spaces", "x" * 65, "no/slashes", "né-ascii"]
    )
    def test_invalid_client_id_replaced(self, bad):
        trace = TraceContext.from_headers({REQUEST_ID_HEADER.lower(): bad})
        assert trace.request_id != bad
        assert trace.client_supplied is False
        assert len(trace.request_id) == 12

    def test_sampled_header_cannot_force_auditing(self):
        """A client cannot audit every request at a low sample rate."""
        trace = TraceContext.from_headers(
            {SAMPLED_HEADER: "1"}, sample_rate=0.0
        )
        assert trace.client_supplied is False
        assert trace.sampled is False

    def test_sampled_header_cannot_hide_a_client_request(self):
        """A client-supplied id is audited whatever the header says."""
        trace = TraceContext.from_headers(
            {REQUEST_ID_HEADER.lower(): "client-id", SAMPLED_HEADER: "0"},
            sample_rate=1.0,
        )
        assert trace.request_id == "client-id"
        assert trace.sampled is True

    def test_new_request_ids_are_distinct(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64


# -- the logger --------------------------------------------------------


def closed_span(span_id, name="engine.evaluate", **attributes):
    """A finished span as the tracer hands it to its sink."""
    return Span(
        name=name,
        span_id=span_id,
        parent_id=None,
        depth=0,
        start=0.5,
        end=0.75,
        attributes=attributes,
    )


class TestAuditLogger:
    def test_meta_line_then_spans(self, tmp_path):
        path = tmp_path / "audit-server.jsonl"
        logger = AuditLogger(path=str(path))
        logger.record(closed_span(1, "service.request", request_id="r1"))
        logger.flush()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {
            "kind": "meta",
            "schema_version": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter",
            "unit": "seconds",
            "run": logger.run_id,
        }
        (span,) = lines[1:]
        assert span == {
            "kind": "span",
            "span_id": 1,
            "parent_id": None,
            "name": "service.request",
            "start": 0.5,
            "end": 0.75,
            "duration": 0.25,
            "depth": 0,
            "attributes": {"request_id": "r1"},
        }

    def test_ring_without_persistence(self):
        logger = AuditLogger(path=None, ring_size=4)
        for index in range(6):
            logger.record(closed_span(index))
        recent = logger.recent()
        assert [r["span_id"] for r in recent] == [2, 3, 4, 5]
        assert [r["span_id"] for r in logger.recent(limit=2)] == [4, 5]
        assert logger.records_written == 6

    def test_ring_only_logger_encodes_nothing(self, monkeypatch):
        """Without a file, recording is a ring append: no JSON at all."""

        class NoJson:
            @staticmethod
            def dumps(*args, **kwargs):
                raise AssertionError("a ring-only logger encoded a span")

        logger = AuditLogger(path=None)
        monkeypatch.setattr(audit_module, "json", NoJson)
        for index in range(8):
            logger.record(closed_span(index, runs=index))
        assert logger.records_written == 8

    def test_rejects_tiny_max_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            AuditLogger(path=str(tmp_path / "a.jsonl"), max_bytes=512)

    def test_rotation_under_threaded_writers(self, tmp_path):
        """Many threads through one logger: rotation must never tear a
        line or drop the meta header of either generation."""
        path = tmp_path / "audit-server.jsonl"
        logger = AuditLogger(path=str(path), max_bytes=1024)
        per_thread = 40

        def write(worker):
            for index in range(per_thread):
                logger.record(closed_span(worker * per_thread + index, size=index))

        threads = [
            threading.Thread(target=write, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        logger.flush()
        assert logger.records_written == 8 * per_thread
        backup = tmp_path / "audit-server.jsonl.1"
        assert backup.exists(), "expected at least one rotation"
        for generation in (path, backup):
            lines = generation.read_text().splitlines()
            assert json.loads(lines[0])["run"] == logger.run_id
            for line in lines[1:]:
                span = json.loads(line)  # no torn lines
                assert span["kind"] == "span"
            assert generation.stat().st_size <= 2 * 1024
        logger.close()

    def test_read_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "audit-server.jsonl"
        logger = AuditLogger(path=str(path))
        logger.record(closed_span(1, status=200))
        logger.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "span", "span_id": 2, "trunc')
        records = read_audit_log(str(path))
        assert [r["span_id"] for r in records] == [1]
        assert records[0]["run"] == logger.run_id

    def test_load_audit_dir_includes_rotated_backup(self, tmp_path):
        path = audit_log_path(str(tmp_path))
        logger = AuditLogger(path=path, max_bytes=1024)
        total = 64
        for index in range(total):
            logger.record(closed_span(index, runs=1))
        logger.close()
        live = len(read_audit_log(path))
        assert live < total  # rotation happened
        merged = len(load_audit_dir(str(tmp_path)))
        assert merged > live  # the .1 backup contributed

    def test_restart_keeps_the_previous_log_as_backup(self, tmp_path):
        """A new logger moves the last run's log aside; both runs load,
        each tagged with its own run id."""
        path = audit_log_path(str(tmp_path))
        first = AuditLogger(path=path)
        first.record(closed_span(1))
        first.close()
        second = AuditLogger(path=path)
        second.record(closed_span(1))
        second.close()
        runs = [record["run"] for record in load_audit_dir(str(tmp_path))]
        assert runs == [first.run_id, second.run_id]
        assert first.run_id != second.run_id

    def test_audit_log_path_layout(self, tmp_path):
        assert audit_log_path(str(tmp_path)) == str(
            tmp_path / "audit-server.jsonl"
        )

    def test_flush_makes_records_durable(self, tmp_path):
        """flush() is the happens-before edge between record() and a
        reader of the file — after it returns, every prior record is
        on disk."""
        path = tmp_path / "audit-server.jsonl"
        logger = AuditLogger(path=str(path))
        for index in range(16):
            logger.record(closed_span(index))
        logger.flush()
        assert len(read_audit_log(str(path))) == 16
        logger.close()

    def test_close_is_idempotent_and_stops_persistence(self, tmp_path):
        path = tmp_path / "audit-server.jsonl"
        logger = AuditLogger(path=str(path))
        logger.record(closed_span(1))
        logger.close()
        logger.close()  # second close is a no-op
        assert [r["span_id"] for r in read_audit_log(str(path))] == [1]
        # Post-close records reach the ring but not the file.
        logger.record(closed_span(2))
        assert [r["span_id"] for r in logger.recent()] == [1, 2]
        assert [r["span_id"] for r in read_audit_log(str(path))] == [1]

    def test_flush_and_close_without_persistence(self):
        logger = AuditLogger(path=None)
        logger.record(closed_span(1))
        logger.flush()  # no-ops, must not raise
        logger.close()
        assert logger.records_written == 1

    def test_sampled_tree_reaches_the_log_from_a_disabled_tracer(
        self, tmp_path
    ):
        """The logger is the tracer's sink: a sampled tree's spans land
        in the log in the trace schema, and stitch back by parent link."""
        logger = AuditLogger(path=audit_log_path(str(tmp_path)))
        tracer = Tracer(enabled=False)
        with tracer.root("service.request", logger, request_id="r1") as root:
            root.set(admitted=True, status=200)
            with tracer.span("service.worker", operation="evaluate"):
                pass
        with tracer.root("service.request", None, request_id="r2"):
            pass  # unsampled: no span at all
        logger.close()
        assert tracer.records == []
        tree = stitch_request(load_audit_dir(str(tmp_path)), "r1")
        assert tree.names() == ["service.request", "service.worker"]
        assert tree.spans[1]["parent_id"] == tree.spans[0]["span_id"]
        assert missing_stages(tree) == []
        assert stitch_request(load_audit_dir(str(tmp_path)), "r2").spans == []


# -- stitching ---------------------------------------------------------


def span(span_id, name, parent_id=None, start=0.0, run="run-a", **attributes):
    return {
        "kind": "span",
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "end": start + 0.001,
        "duration": 0.001,
        "depth": 0 if parent_id is None else 1,
        "attributes": attributes,
        "run": run,
    }


RID = "req-under-test"

#: A full trace of a batch execution: the request root, and the batch
#: root listing the request, whose engine child joins by parent link
#: alone.
TRACE_RECORDS = [
    span(
        1,
        "service.request",
        start=0.0,
        request_id=RID,
        admitted=True,
        inflight=0,
        queue_limit=64,
        status=200,
    ),
    span(
        3,
        "service.batch",
        start=0.001,
        size=2,
        member_request_ids=[RID, "other-req"],
        member_queue_wait_s=[0.0001, 0.0],
    ),
    span(4, "engine.evaluate_many", 3, 0.0015, runs=2, cache_misses=2),
]
#: Records stitching must *exclude*: another request's spans and an
#: engine span under an unrelated batch.
FOREIGN_RECORDS = [
    span(2, "service.request", start=0.0005, request_id="someone-else"),
    span(5, "service.batch", start=0.002, member_request_ids=["someone-else"]),
    span(6, "engine.evaluate_many", 5, 0.0021, runs=1),
]


class TestStitchRequest:
    def test_batch_membership_joins_indirect_spans(self):
        tree = stitch_request(TRACE_RECORDS + FOREIGN_RECORDS, RID)
        assert tree.names() == [
            "service.request",
            "service.batch",
            "engine.evaluate_many",
        ]
        assert tree.status == 200
        assert missing_stages(tree) == []

    def test_batch_span_appears_in_every_member_tree(self):
        other = stitch_request(TRACE_RECORDS, "other-req")
        assert other.names() == ["service.batch", "engine.evaluate_many"]

    def test_foreign_records_excluded(self):
        tree = stitch_request(TRACE_RECORDS + FOREIGN_RECORDS, RID)
        assert [record["span_id"] for record in tree.spans] == [1, 3, 4]

    def test_runs_with_colliding_span_ids_stay_apart(self):
        """Span ids restart with every process: a second run reusing
        ids 1..4 must join none of its spans to the first run's tree."""
        second_run = [
            dict(record, run="run-b", attributes=dict(record["attributes"]))
            for record in TRACE_RECORDS
        ]
        second_run[0]["attributes"]["request_id"] = "later-request"
        second_run[1]["attributes"]["member_request_ids"] = ["later-request"]
        second_run.append(
            span(2, "service.worker", 1, 0.0012, run="run-b", operation="x")
        )
        tree = stitch_request(second_run + TRACE_RECORDS, RID)
        assert [record["run"] for record in tree.spans] == ["run-a"] * 3
        assert tree.names() == [
            "service.request",
            "service.batch",
            "engine.evaluate_many",
        ]

    def test_order_independence(self):
        """The property the audit-log merge relies on: any read order
        of the same records stitches to the identical tree."""
        records = TRACE_RECORDS + FOREIGN_RECORDS[2:]
        canonical = stitch_request(records, RID).spans
        assert len(canonical) == len(TRACE_RECORDS)
        for permutation in itertools.permutations(records):
            assert stitch_request(permutation, RID).spans == canonical

    def test_missing_stages_flags_each_gap(self):
        assert missing_stages(stitch_request([], RID)) == [
            "service.request",
            "service.batch|service.worker",
        ]
        no_engine = TRACE_RECORDS[:2]
        assert missing_stages(stitch_request(no_engine, RID)) == [
            "engine.* under service.batch"
        ]
        unadmitted = [span(1, "service.request", request_id=RID, status=200)]
        unadmitted += TRACE_RECORDS[1:]
        assert missing_stages(stitch_request(unadmitted, RID)) == [
            "service.request.admitted"
        ]

    def test_worker_execution_counts_as_complete(self):
        records = [
            span(1, "service.request", request_id=RID, admitted=True, status=200),
            span(2, "service.worker", 1, 0.001, compute_s=0.5),
        ]
        assert missing_stages(stitch_request(records, RID)) == []

    def test_render_complete_and_incomplete(self):
        complete = render_request_tree(stitch_request(TRACE_RECORDS, RID))
        assert f"request {RID}" in complete
        assert "status=200" in complete
        assert "members=2" in complete
        assert "    engine.evaluate_many" in complete  # under its batch
        assert "INCOMPLETE" not in complete
        partial = render_request_tree(
            stitch_request(TRACE_RECORDS[:2], RID)
        )
        assert "INCOMPLETE" in partial
        empty = render_request_tree(stitch_request([], RID))
        assert "no audit records" in empty
