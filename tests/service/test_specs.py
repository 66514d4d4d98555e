"""Request parsing and response shaping for ``/v1/evaluate``."""

import dataclasses
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
    MAX_MEANFIELD_ROUNDS,
    MAX_MONTE_CARLO_WORK,
    MAX_TRIALS,
    RequestError,
    ScaledEvaluateRequest,
    check_monte_carlo_work,
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
        ({"trials": MAX_TRIALS + 1}, "trials must be <= 20000"),
    ],
)
def test_malformed_payloads_raise_request_error(payload, fragment):
    with pytest.raises(RequestError, match=fragment):
        parse_evaluate_payload(payload)


def test_requests_share_one_parsed_topology():
    first = parse_evaluate_payload({"topology": "grid:3x3", "run": "cut:2"})
    second = parse_evaluate_payload({"topology": "grid:3x3", "run": "tree"})
    assert first.topology is second.topology


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


# A client must not learn which server paths exist: a missing file and
# an existing one get the same 400.
FILE_RUNS = [
    {"run": "file:/nonexistent", "topology": "pair", "rounds": 8},
    {"run": f"file:{__file__}", "topology": "pair", "rounds": 8},
]
LONG_MEANFIELD = {
    "protocol": "S:0.25",
    "topology": "complete:1000",
    "run": "cut:3",
    "rounds": 10**8,
    "backend": "meanfield",
}


@pytest.mark.parametrize("payload", FILE_RUNS, ids=["missing", "existing"])
def test_file_runs_are_refused_before_opening(payload, monkeypatch):
    def forbidden(*args):
        raise AssertionError("parsed a file: run spec")

    monkeypatch.setattr(repro.cli, "parse_run", forbidden)
    with pytest.raises(RequestError, match="not served"):
        parse_evaluate_payload(payload)


def test_meanfield_rounds_are_bounded_before_building(monkeypatch):
    bounded = parse_evaluate_payload(
        dict(LONG_MEANFIELD, rounds=MAX_MEANFIELD_ROUNDS)
    )
    assert isinstance(bounded, ScaledEvaluateRequest)
    assert bounded.rounds == MAX_MEANFIELD_ROUNDS

    def forbidden(*args, **kwargs):
        raise AssertionError("built a counter spec for an oversized request")

    monkeypatch.setattr("repro.service.specs.scaled_spec", forbidden)
    with pytest.raises(RequestError, match=f"rounds <= {MAX_MEANFIELD_ROUNDS}"):
        parse_evaluate_payload(LONG_MEANFIELD)


def test_file_runs_and_long_meanfield_requests_are_400s_over_the_wire():
    with BackgroundServer(ServiceConfig(port=0)) as server:
        url = f"http://{server.host}:{server.server.port}/v1/evaluate"
        for payload, fragment in [
            (FILE_RUNS[0], "not served"),
            (FILE_RUNS[1], "not served"),
            (LONG_MEANFIELD, f"rounds <= {MAX_MEANFIELD_ROUNDS}"),
        ]:
            request = urllib.request.Request(
                url,
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            assert fragment in json.load(excinfo.value)["error"]


MANY_TRIALS = {"protocol": "S:0.25", "method": "monte-carlo", "trials": 10**9}


def test_trials_bound_is_inclusive_and_checked_before_building(monkeypatch):
    assert MAX_TRIALS == 20_000
    bounded = parse_evaluate_payload(dict(MANY_TRIALS, trials=MAX_TRIALS))
    assert bounded.trials == MAX_TRIALS

    def forbidden(*args):
        raise AssertionError("parsed a spec of a request with too many trials")

    monkeypatch.setattr(repro.cli, "parse_protocol", forbidden)
    monkeypatch.setattr(repro.cli, "parse_run", forbidden)
    monkeypatch.setattr("repro.service.specs._topology", forbidden)
    for trials in (MAX_TRIALS + 1, 10**9):
        with pytest.raises(RequestError, match=f"trials must be <= {MAX_TRIALS}"):
            parse_evaluate_payload(dict(MANY_TRIALS, trials=trials))


def test_too_many_trials_is_a_400_over_the_wire():
    # One trial over the bound: were it accepted, it would still finish.
    payload = dict(MANY_TRIALS, trials=MAX_TRIALS + 1)
    with BackgroundServer(ServiceConfig(port=0)) as server:
        url = f"http://{server.host}:{server.server.port}/v1/evaluate"
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert f"trials must be <= {MAX_TRIALS}" in json.load(excinfo.value)["error"]


# grid:3x3 has 24 directed links: at 10 rounds and MAX_TRIALS trials a
# Monte Carlo request does exactly MAX_MONTE_CARLO_WORK, at 11 more.
GRID_MONTE_CARLO = {
    "protocol": "S:0.25",
    "topology": "grid:3x3",
    "run": "good",
    "rounds": 10,
    "method": "monte-carlo",
    "trials": MAX_TRIALS,
}


def test_monte_carlo_work_bound_is_inclusive():
    assert MAX_MONTE_CARLO_WORK == 4_800_000
    check_monte_carlo_work(parse_evaluate_payload(GRID_MONTE_CARLO))
    longer = parse_evaluate_payload(dict(GRID_MONTE_CARLO, rounds=11))
    with pytest.raises(RequestError, match="at most 18181 trials"):
        check_monte_carlo_work(longer)
    # complete:62 at 64 rounds: 3,782 directed links, 19 trials fit.
    largest = parse_evaluate_payload(
        {"topology": "complete:62", "rounds": 64, "method": "monte-carlo"}
    )
    check_monte_carlo_work(dataclasses.replace(largest, trials=19))
    with pytest.raises(RequestError, match="20 x 3782 x 64 = 4840960"):
        check_monte_carlo_work(dataclasses.replace(largest, trials=20))


def test_exact_requests_pass_the_work_bound_whatever_their_trials():
    request = parse_evaluate_payload(
        {"topology": "complete:62", "rounds": 64, "method": "closed-form"}
    )
    assert request.trials == DEFAULT_TRIALS
    assert request.trials * 3782 * 64 > MAX_MONTE_CARLO_WORK
    check_monte_carlo_work(request)


def test_monte_carlo_over_the_work_bound_is_a_400_over_the_wire():
    payload = dict(GRID_MONTE_CARLO, rounds=11)
    with BackgroundServer(ServiceConfig(port=0)) as server:
        url = f"http://{server.host}:{server.server.port}/v1/evaluate"
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        error = json.load(excinfo.value)["error"]
        assert "trials x directed links x rounds" in error
        dispatches = server.server.metrics.counter("service.worker.dispatches")
        assert dispatches.value == 0
