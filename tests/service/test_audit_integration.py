"""Request tracing through live servers: headers, debug ring, stitching.

Boots real servers with an audit directory and checks the end-to-end
contract DESIGN.md §12 and the CI serve smoke rely on: the request id
echoes on success *and* error responses, ``GET /v1/debug/requests``
exposes the in-memory ring, and after shutdown the JSONL log alone
stitches into a complete request tree.
"""

import asyncio

from repro.obs.audit import (
    BATCH_STAGE,
    ENGINE_STAGE,
    REQUEST_ID_HEADER,
    load_audit_dir,
    missing_stages,
    stitch_request,
)
from repro.service import BackgroundServer, ServiceConfig
from repro.service.http import request_once

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
                record.get("request_id") for record in debug["requests"]
            }
            assert "itest-single" in ids
        # Server fully shut down: the logs alone must reconstruct it.
        tree = stitch_request(
            load_audit_dir(str(tmp_path)), "itest-single"
        )
        assert missing_stages(tree) == []
        assert tree.status == 200
        assert BATCH_STAGE in tree.stages()
        assert ENGINE_STAGE in tree.stages()

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
