"""Request parsing and response shaping for ``/v1/evaluate``."""

import json
import urllib.error
import urllib.request

import pytest

import repro.cli
from repro.core.probability import DEFAULT_TRIALS, evaluate
from repro.service import BackgroundServer
from repro.service.config import ServiceConfig
from repro.service.specs import (
    MAX_CONCRETE_PROCESSES,
    MAX_CONCRETE_ROUNDS,
    RequestError,
    evaluate_response,
    parse_evaluate_payload,
)

# The scaled example without ``"backend": "meanfield"``, and a horizon
# far past any concrete evaluation: both would allocate without bound.
SCALED_WITHOUT_BACKEND = {
    "protocol": "S:0.125",
    "topology": "complete:100000",
    "run": "cut:3",
    "rounds": 6,
}
OVERSIZED = [
    pytest.param(
        SCALED_WITHOUT_BACKEND,
        "100000 processes.*meanfield",
        id="complete-100000",
    ),
    pytest.param(
        {"topology": "pair", "rounds": 10**8},
        "rounds must be <= 64",
        id="rounds-1e8",
    ),
    pytest.param(
        {"topology": "grid:100000x100000"},
        "10000000000 processes",
        id="grid-1e10",
    ),
]


def test_defaults_fill_in():
    request = parse_evaluate_payload({})
    assert request.protocol_spec == "S"
    assert request.topology_spec == "pair"
    assert request.run_spec == "good"
    assert request.rounds == 8
    assert request.method == "auto"
    assert request.trials == DEFAULT_TRIALS
    assert request.seed == 0


def test_payload_round_trips_through_parse():
    request = parse_evaluate_payload(
        {"protocol": "S:0.25", "run": "cut:3", "rounds": 6, "seed": 7}
    )
    assert parse_evaluate_payload(request.payload) == request


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"bogus": 1}, "unknown fields"),
        ({"protocol": 42}, "must be a str"),
        ({"seed": True}, "must be an integer"),
        ({"rounds": 0}, "rounds must be >= 1"),
        ({"trials": 0}, "trials must be >= 1"),
        ({"method": "psychic"}, "unknown method"),
        ({"protocol": "nope"}, "unknown protocol"),
        ({"run": "cut:99", "rounds": 4}, "cut_round"),
    ],
)
def test_malformed_payloads_raise_request_error(payload, fragment):
    with pytest.raises(RequestError, match=fragment):
        parse_evaluate_payload(payload)


def test_resolves_exact_by_method_and_protocol():
    exact = parse_evaluate_payload({"protocol": "S:0.25"})
    assert exact.resolves_exact()  # ProtocolS has a closed form
    mc = parse_evaluate_payload({"protocol": "S:0.25", "method": "monte-carlo"})
    assert not mc.resolves_exact()
    forced = parse_evaluate_payload({"protocol": "A", "method": "enumeration"})
    assert forced.resolves_exact()


def test_evaluate_response_reports_the_tradeoff():
    request = parse_evaluate_payload(
        {"protocol": "S:0.25", "run": "cut:3", "rounds": 6}
    )
    result = evaluate(request.protocol, request.topology, request.run)
    response = evaluate_response(request, result)
    assert response["protocol"] == request.protocol.name
    assert response["method"] == result.method
    assert response["unsafety"] == result.pr_partial_attack
    assert response["liveness"] == result.pr_total_attack
    assert response["pr_no_attack"] == result.pr_no_attack
    assert response["epsilon"] == 0.25
    # Theorem 6.8's floor, reported per query for Protocol S.
    assert response["liveness_lower_bound"] == min(
        1.0, 0.25 * response["modified_level"]
    )
    assert response["liveness"] >= response["liveness_lower_bound"] - 1e-12


@pytest.mark.parametrize("payload, fragment", OVERSIZED)
def test_oversized_concrete_requests_are_refused_before_building(
    payload, fragment, monkeypatch
):
    def forbidden(*args):
        raise AssertionError("built a topology or run for an oversized spec")

    monkeypatch.setattr(repro.cli, "parse_topology", forbidden)
    monkeypatch.setattr(repro.cli, "parse_run", forbidden)
    with pytest.raises(RequestError, match=fragment):
        parse_evaluate_payload(payload)


def test_concrete_bounds_are_inclusive():
    assert MAX_CONCRETE_PROCESSES == 62 and MAX_CONCRETE_ROUNDS == 64
    request = parse_evaluate_payload({"topology": "path:62", "rounds": 2})
    assert request.topology.num_processes == MAX_CONCRETE_PROCESSES
    request = parse_evaluate_payload({"topology": "pair", "rounds": 64})
    assert request.run.num_rounds == MAX_CONCRETE_ROUNDS
    with pytest.raises(RequestError, match="63 processes"):
        parse_evaluate_payload({"topology": "grid:7x9"})


def test_oversized_request_is_a_400_over_the_wire():
    with BackgroundServer(ServiceConfig(port=0)) as server:
        url = f"http://{server.host}:{server.server.port}/v1/evaluate"
        request = urllib.request.Request(
            url,
            data=json.dumps(SCALED_WITHOUT_BACKEND).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "meanfield" in json.load(excinfo.value)["error"]
