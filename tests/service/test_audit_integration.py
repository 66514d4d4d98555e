"""Request tracing through live servers: headers, debug ring, stitching.

Boots real servers with an audit directory and checks the end-to-end
contract DESIGN.md §12 and the CI serve smoke rely on: the request id
echoes on success *and* error responses, ``GET /v1/debug/requests``
exposes the in-memory ring, after shutdown the JSONL log alone
stitches into a complete request tree, and a ``--trace`` export under
concurrent keep-alive connections nests every span in its own
request's or batch's tree.
"""

import asyncio
import json

from repro.obs.audit import (
    REQUEST_ID_HEADER,
    load_audit_dir,
    missing_stages,
    stitch_request,
)
from repro.service import BackgroundServer, ServiceConfig
from repro.service.http import ClientConnection, request_once

EVALUATE = {"protocol": "S:0.25", "rounds": 6, "run": "cut:3"}


def call(port, method, path, payload=None, headers=None):
    return asyncio.run(
        request_once("127.0.0.1", port, method, path, payload, headers)
    )


def audited_config(tmp_path, **overrides):
    settings = {
        "port": 0,
        "debug": True,
        "audit_dir": str(tmp_path),
        "trace_sample_rate": 1.0,
    }
    settings.update(overrides)
    return ServiceConfig(**settings)


class TestSingleProcess:
    def test_request_id_round_trip_and_stitched_tree(self, tmp_path):
        with BackgroundServer(audited_config(tmp_path)) as background:
            status, headers, payload = call(
                background.port,
                "POST",
                "/v1/evaluate",
                EVALUATE,
                headers={REQUEST_ID_HEADER: "itest-single"},
            )
            assert status == 200
            assert headers[REQUEST_ID_HEADER.lower()] == "itest-single"
            status, _, debug = call(
                background.port, "GET", "/v1/debug/requests?limit=8"
            )
            assert status == 200
            ids = {
                record["attributes"].get("request_id")
                for record in debug["spans"]
            }
            assert "itest-single" in ids
        # Server fully shut down: the logs alone must reconstruct it.
        tree = stitch_request(
            load_audit_dir(str(tmp_path)), "itest-single"
        )
        assert missing_stages(tree) == []
        assert tree.status == 200
        assert tree.names() == [
            "service.request",
            "service.batch",
            "engine.evaluate_many",
        ]
        engine = tree.spans[2]["attributes"]
        assert (engine["cache_hits"], engine["cache_misses"]) == (0, 1)

    def test_errors_echo_request_id_in_header_and_body(self, tmp_path):
        with BackgroundServer(audited_config(tmp_path)) as background:
            status, headers, payload = call(
                background.port,
                "GET",
                "/no-such-path",
                headers={REQUEST_ID_HEADER: "itest-404"},
            )
            assert status == 404
            assert headers[REQUEST_ID_HEADER.lower()] == "itest-404"
            assert payload["request_id"] == "itest-404"
            assert "error" in payload

    def test_generated_id_still_echoes(self, tmp_path):
        with BackgroundServer(audited_config(tmp_path)) as background:
            status, headers, _ = call(
                background.port, "POST", "/v1/evaluate", EVALUATE
            )
            assert status == 200
            assert len(headers[REQUEST_ID_HEADER.lower()]) == 12

    def test_unsampled_request_leaves_no_spans(self, tmp_path):
        config = audited_config(tmp_path, trace_sample_rate=0.0)
        with BackgroundServer(config) as background:
            status, headers, _ = call(
                background.port, "POST", "/v1/evaluate", EVALUATE
            )
            assert status == 200
            generated = headers[REQUEST_ID_HEADER.lower()]
        records = load_audit_dir(str(tmp_path))
        assert stitch_request(records, generated).spans == []


def send_concurrently(port, connections, per_connection, request_id=None):
    """Keep-alive connections, each sending distinct grid:3x3 runs.

    With ``request_id``, the first connection's requests carry client
    ids ``<request_id>-<k>``; every other id is generated.
    """

    async def client(index):
        connection = await ClientConnection.open("127.0.0.1", port)
        try:
            for request in range(per_connection):
                seed = index * per_connection + request
                headers = (
                    {REQUEST_ID_HEADER: f"{request_id}-{request}"}
                    if request_id is not None and index == 0
                    else None
                )
                status, _, _ = await connection.request(
                    "POST",
                    "/v1/evaluate",
                    {
                        "protocol": "S:0.25",
                        "topology": "grid:3x3",
                        "rounds": 10,
                        "run": f"loss:0.3:{seed}",
                    },
                    headers,
                )
                assert status == 200
        finally:
            await connection.close()

    async def main():
        await asyncio.gather(*(client(index) for index in range(connections)))

    asyncio.run(main())


class TestConcurrentTrace:
    def test_spans_nest_per_request_and_per_batch(self, tmp_path):
        """The open span is per task: concurrent requests on one event
        loop never parent each other, and the engine's span is a child
        of the batch that ran it, not a root."""
        trace_path = tmp_path / "serve-trace.jsonl"
        config = ServiceConfig(port=0, trace_path=str(trace_path))
        with BackgroundServer(config) as background:
            send_concurrently(background.port, connections=6, per_connection=8)
        lines = trace_path.read_text().splitlines()
        spans = {
            record["span_id"]: record
            for record in map(json.loads, lines[1:])
            if record["kind"] == "span"
        }
        requests = [s for s in spans.values() if s["name"] == "service.request"]
        assert len(requests) == 6 * 8
        assert all(span["depth"] == 0 for span in requests)
        engine = [s for s in spans.values() if s["name"].startswith("engine.")]
        assert engine
        for span in engine:
            parent = spans.get(span["parent_id"])
            assert parent is not None and parent["name"] == "service.batch"

    def test_unsampled_batches_stay_out_of_sampled_requests(self, tmp_path):
        """At sample rate 0 only client-id requests are sampled.  A
        batch dispatched after a sampled one runs in a context copied
        from that request, so an all-unsampled batch must still keep
        its engine span out of the request's tree and out of the log."""
        config = audited_config(tmp_path, trace_sample_rate=0.0)
        with BackgroundServer(config) as background:
            send_concurrently(
                background.port,
                connections=4,
                per_connection=8,
                request_id="itest-sampled",
            )
        records = load_audit_dir(str(tmp_path))
        spans = {(record["run"], record["span_id"]): record for record in records}
        sampled = {f"itest-sampled-{k}" for k in range(8)}
        requests = [s for s in records if s["name"] == "service.request"]
        assert {s["attributes"]["request_id"] for s in requests} == sampled
        for span in records:
            if span["name"] == "service.batch":
                assert sampled & set(span["attributes"]["member_request_ids"])
            if span["name"].startswith("engine."):
                parent = spans.get((span["run"], span["parent_id"]))
                assert parent is not None and parent["name"] == "service.batch"
        for request_id in sorted(sampled):
            tree = stitch_request(records, request_id)
            assert missing_stages(tree) == []
