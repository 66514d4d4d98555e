"""Audit trails: trace contexts, the JSONL logger, and stitching.

Covers the three layers DESIGN.md §12 documents: the deterministic
sampling verdict and what request headers may (the id) and may not
(the verdict) decide, the per-process logger under concurrent writers
(threads through one logger, spawn processes into one directory)
including size rotation, and the order-independence of
:func:`stitch_request` — records stitch into the same tree no matter
which order they are read in.
"""

import itertools
import json
import multiprocessing
import os
import threading

import pytest

from repro.obs.audit import (
    ADMISSION_STAGE,
    AUDIT_SCHEMA_VERSION,
    BATCH_STAGE,
    ENGINE_STAGE,
    REQUEST_ID_HEADER,
    RESPONSE_STAGE,
    WORKER_STAGE,
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


class TestAuditLogger:
    def test_meta_line_then_spans(self, tmp_path):
        path = tmp_path / "audit-server.jsonl"
        logger = AuditLogger(path=str(path), process="server")
        logger.record(ADMISSION_STAGE, "r1", 0.0, admitted=True)
        logger.flush()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {
            "kind": "meta",
            "schema_version": AUDIT_SCHEMA_VERSION,
            "process": "server",
            "clock": "unix-epoch",
            "unit": "seconds",
        }
        (span,) = lines[1:]
        assert span["kind"] == "span"
        assert span["request_id"] == "r1"
        assert span["stage"] == ADMISSION_STAGE
        assert span["attributes"] == {"admitted": True}
        assert isinstance(span["t_start"], float)

    def test_explicit_t_start_honored(self, tmp_path):
        logger = AuditLogger(
            path=str(tmp_path / "audit-s.jsonl"), process="s"
        )
        entry = logger.record(ENGINE_STAGE, "r1", 0.25, t_start=123.5)
        assert entry["t_start"] == 123.5

    def test_ring_without_persistence(self):
        logger = AuditLogger(path=None, process="server", ring_size=4)
        for index in range(6):
            logger.record(RESPONSE_STAGE, f"r{index}", 0.0)
        recent = logger.recent()
        assert [r["request_id"] for r in recent] == ["r2", "r3", "r4", "r5"]
        assert [r["request_id"] for r in logger.recent(limit=2)] == [
            "r4",
            "r5",
        ]
        assert logger.records_written == 6

    def test_rejects_tiny_max_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            AuditLogger(path=str(tmp_path / "a.jsonl"), max_bytes=512)

    def test_rotation_under_threaded_writers(self, tmp_path):
        """Many threads through one logger: rotation must never tear a
        line or drop the meta header of either generation."""
        path = tmp_path / "audit-server.jsonl"
        logger = AuditLogger(
            path=str(path), process="server", max_bytes=1024
        )
        per_thread = 40

        def write(worker):
            for index in range(per_thread):
                logger.record(
                    BATCH_STAGE, f"w{worker}-r{index}", 0.001, size=index
                )

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
            assert json.loads(lines[0])["kind"] == "meta"
            for line in lines[1:]:
                span = json.loads(line)  # no torn lines
                assert span["kind"] == "span"
            assert generation.stat().st_size <= 2 * 1024

    def test_spawned_processes_share_a_directory(self, tmp_path):
        """One audit directory, one file per process — the layout
        ``load_audit_dir`` reads back."""
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(
                target=_spawn_writer, args=(str(tmp_path), f"worker{i}", 5)
            )
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
            assert worker.exitcode == 0
        records = load_audit_dir(str(tmp_path))
        by_process = {}
        for record in records:
            by_process.setdefault(record["process"], []).append(record)
        assert sorted(by_process) == ["worker0", "worker1"]
        assert all(len(spans) == 5 for spans in by_process.values())

    def test_read_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "audit-server.jsonl"
        logger = AuditLogger(path=str(path), process="server")
        logger.record(RESPONSE_STAGE, "r1", 0.0, status=200)
        logger.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "span", "request_id": "r2", "trunc')
        records = read_audit_log(str(path))
        assert [r["request_id"] for r in records] == ["r1"]

    def test_load_audit_dir_includes_rotated_backup(self, tmp_path):
        path = audit_log_path(str(tmp_path), "server")
        logger = AuditLogger(path=path, process="server", max_bytes=1024)
        total = 64
        for index in range(total):
            logger.record(ENGINE_STAGE, f"r{index}", 0.001, runs=1)
        logger.close()
        live = len(read_audit_log(path))
        assert live < total  # rotation happened
        merged = len(load_audit_dir(str(tmp_path)))
        assert merged > live  # the .1 backup contributed

    def test_audit_log_path_layout(self, tmp_path):
        assert audit_log_path(str(tmp_path), "server").endswith(
            os.path.join(str(tmp_path), "audit-server.jsonl")
        )

    def test_flush_makes_records_durable(self, tmp_path):
        """flush() is the happens-before edge between record() and a
        reader of the file — after it returns, every prior record is
        on disk."""
        path = tmp_path / "audit-server.jsonl"
        logger = AuditLogger(path=str(path), process="server")
        for index in range(16):
            logger.record(ENGINE_STAGE, f"r{index}", 0.001)
        logger.flush()
        assert len(read_audit_log(str(path))) == 16
        logger.close()

    def test_close_is_idempotent_and_stops_persistence(self, tmp_path):
        path = tmp_path / "audit-server.jsonl"
        logger = AuditLogger(path=str(path), process="server")
        logger.record(RESPONSE_STAGE, "r1", 0.0, status=200)
        logger.close()
        logger.close()  # second close is a no-op
        assert [r["request_id"] for r in read_audit_log(str(path))] == [
            "r1"
        ]
        # Post-close records reach the ring but not the file.
        logger.record(RESPONSE_STAGE, "r2", 0.0, status=200)
        assert [r["request_id"] for r in logger.recent()] == ["r1", "r2"]
        assert [r["request_id"] for r in read_audit_log(str(path))] == [
            "r1"
        ]

    def test_flush_and_close_without_persistence(self):
        logger = AuditLogger(path=None, process="server")
        logger.record(RESPONSE_STAGE, "r1", 0.0)
        logger.flush()  # no-ops, must not raise
        logger.close()
        assert logger.records_written == 1


def _spawn_writer(directory, process, count):
    """Module-level so spawn can pickle it: one child's audit writes."""
    logger = AuditLogger(
        path=audit_log_path(directory, process), process=process
    )
    for index in range(count):
        logger.record(WORKER_STAGE, f"{process}-r{index}", 0.001)
    logger.close()  # drain the writer thread before the child exits


# -- stitching ---------------------------------------------------------


def span(process, stage, request_id, t_start, **attributes):
    return {
        "kind": "span",
        "request_id": request_id,
        "trace_id": request_id,
        "process": process,
        "stage": stage,
        "t_start": t_start,
        "duration": 0.001,
        "attributes": attributes,
    }


RID = "req-under-test"

#: A full trace of a batch execution, plus records stitching must
#: *exclude*: another request's spans and an engine span for an
#: unrelated batch.
TRACE_RECORDS = [
    span("server", ADMISSION_STAGE, RID, 100.0, admitted=True),
    span(
        "server",
        BATCH_STAGE,
        None,
        100.001,
        batch_id="b1",
        member_request_ids=[RID, "other-req"],
    ),
    span("server", ENGINE_STAGE, None, 100.002, batch_id="b1", runs=2),
    span("server", RESPONSE_STAGE, RID, 100.003, status=200),
]
FOREIGN_RECORDS = [
    span("server", RESPONSE_STAGE, "someone-else", 100.001, status=200),
    span("server", ENGINE_STAGE, None, 100.002, batch_id="b9", runs=1),
]


class TestStitchRequest:
    def test_batch_membership_joins_indirect_spans(self):
        tree = stitch_request(TRACE_RECORDS + FOREIGN_RECORDS, RID)
        assert tree.processes == ["server"]
        assert tree.stages("server") == [
            ADMISSION_STAGE,
            BATCH_STAGE,
            ENGINE_STAGE,
            RESPONSE_STAGE,
        ]
        assert tree.status == 200
        assert missing_stages(tree) == []

    def test_batch_span_appears_in_every_member_tree(self):
        other = stitch_request(TRACE_RECORDS, "other-req")
        assert BATCH_STAGE in other.stages()
        assert ENGINE_STAGE in other.stages()

    def test_foreign_records_excluded(self):
        tree = stitch_request(TRACE_RECORDS + FOREIGN_RECORDS, RID)
        assert all(
            record.get("request_id") != "someone-else"
            for record in tree.spans
        )
        assert all(
            record.get("attributes", {}).get("batch_id") != "b9"
            for record in tree.spans
        )

    def test_order_independence(self):
        """The property the audit-log merge relies on: any read order
        of the same records stitches to the identical tree."""
        canonical = stitch_request(TRACE_RECORDS, RID).spans
        assert len(canonical) == len(TRACE_RECORDS)
        for permutation in itertools.permutations(TRACE_RECORDS):
            assert stitch_request(permutation, RID).spans == canonical

    def test_missing_stages_flags_each_gap(self):
        assert missing_stages(stitch_request([], RID)) == [
            ADMISSION_STAGE,
            f"{BATCH_STAGE}|{WORKER_STAGE}",
            RESPONSE_STAGE,
        ]
        no_engine = [
            record
            for record in TRACE_RECORDS
            if record["stage"] != ENGINE_STAGE
        ]
        assert missing_stages(stitch_request(no_engine, RID)) == [
            ENGINE_STAGE
        ]

    def test_worker_execution_counts_as_complete(self):
        records = [
            span("server", ADMISSION_STAGE, RID, 100.0, admitted=True),
            span("server", WORKER_STAGE, RID, 100.001, compute_s=0.5),
            span("server", RESPONSE_STAGE, RID, 100.002, status=200),
        ]
        assert missing_stages(stitch_request(records, RID)) == []

    def test_render_complete_and_incomplete(self):
        complete = render_request_tree(stitch_request(TRACE_RECORDS, RID))
        assert f"request {RID}" in complete
        assert "status=200" in complete
        assert "members=2" in complete
        assert "INCOMPLETE" not in complete
        partial = render_request_tree(
            stitch_request(TRACE_RECORDS[:2], RID)
        )
        assert "INCOMPLETE" in partial
        empty = render_request_tree(stitch_request([], RID))
        assert "no audit records" in empty
