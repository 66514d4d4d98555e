import copy
import json

import pytest

from perfbench import check, inputs

SEED = inputs.DEFAULT_SEED


@pytest.fixture(scope="module")
def golden():
    return check.load_golden(SEED)


def test_golden_covers_the_default_seed(golden):
    for workload in ("search-exhaustive", "search-heuristic"):
        for instance in inputs.search_instances(workload, SEED):
            assert check.instance_key(instance) in golden["search"]
    cold = inputs.ColdRequests(SEED)
    requests = inputs.hot_set(SEED) + [cold(i) for i in range(check.COLD_GOLDEN)]
    assert {request["run"] for request in requests} == set(golden["served"])
    assert check.load_golden(SEED + 1) is None


def test_served_answer_matching_reference_and_golden_passes(golden):
    checker = check.ServedChecker(golden)
    request = inputs.hot_set(SEED)[0]
    body = json.dumps(checker.expected(request)).encode()
    assert checker.problem(request, 200, body) is None


def test_perturbed_served_answer_is_caught(golden):
    checker = check.ServedChecker(golden)
    request = inputs.hot_set(SEED)[0]
    answer = dict(checker.expected(request))
    answer["liveness"] = answer["liveness"] + 1e-12
    assert "reference" in checker.problem(request, 200, json.dumps(answer).encode())
    assert "HTTP 429" in checker.problem(request, 429, b"{}")


def test_golden_checker_catches_a_perturbed_golden_answer(golden):
    request = inputs.ColdRequests(SEED)(0)
    perturbed = copy.deepcopy(golden)
    perturbed["served"][request["run"]]["level"] += 1
    checker = check.ServedChecker(perturbed)
    body = json.dumps(checker.expected(request)).encode()
    assert "golden" in checker.problem(request, 200, body)


def _search_ops(golden, instances):
    ops, witnesses = [], {}
    for position, instance in enumerate(instances):
        answer = golden["search"][check.instance_key(instance)]
        row = [position, answer["value"], answer["certification"],
               answer["runs_examined"], None, "digest"]
        ops += [row, list(row)]
        witnesses[str(position)] = answer["witness"]
    return ops, witnesses


def test_search_answers_matching_golden_pass(golden):
    instances = inputs.search_instances("search-heuristic", SEED)
    ops, witnesses = _search_ops(golden, instances)
    assert check.check_search(instances, ops, witnesses, golden) == []


def test_perturbed_search_answers_are_caught(golden):
    instances = inputs.search_instances("search-heuristic", SEED)
    ops, witnesses = _search_ops(golden, instances)
    ops[0][3] += 1  # runs_examined of instance 0, first op
    ops[3][1] += 0.5  # value of instance 1, second op
    problems = check.check_search(instances, ops, witnesses, golden)
    assert len(problems) == 3  # both ops of instance 0, one of instance 1
    assert "golden" in problems[0]
    assert "differs from the first" in problems[2]


def test_witness_is_rescored_with_the_reference_backend(golden):
    instances = inputs.search_instances("search-heuristic", SEED)
    ops, witnesses = _search_ops(golden, instances)
    for row in ops[:2]:
        row[1] = 0.75
    problems = check.check_search(instances, ops, witnesses, None)
    assert len(problems) == 2
    assert "reference backend" in problems[0]


def test_search_op_that_raised_is_a_failure(golden):
    instances = inputs.search_instances("search-heuristic", SEED)
    ops, witnesses = _search_ops(golden, instances)
    ops[1] = [0, None, "ValueError: boom", None, None, None]
    problems = check.check_search(instances, ops, witnesses, golden)
    assert problems == [f"{check.instance_key(instances[0])}: ValueError: boom"]
