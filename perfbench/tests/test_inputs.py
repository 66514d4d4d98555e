import pytest

from perfbench import inputs


@pytest.mark.parametrize("workload", ["search-exhaustive", "search-heuristic"])
def test_search_instances_repeat_for_a_seed(workload):
    first = inputs.search_instances(workload, 5)
    assert first == inputs.search_instances(workload, 5)
    assert first != inputs.search_instances(workload, 6)


@pytest.mark.parametrize("workload", ["search-exhaustive", "search-heuristic"])
def test_every_seed_runs_the_same_shapes(workload):
    shapes = (
        inputs.EXHAUSTIVE_SHAPES
        if workload == "search-exhaustive"
        else inputs.HEURISTIC_SHAPES
    )
    for seed in range(20):
        drawn = sorted(
            (instance["protocol"][0], instance["topology"], instance["rounds"])
            for instance in inputs.search_instances(workload, seed)
        )
        assert drawn == sorted(shapes)


def test_hot_set_repeats_for_a_seed():
    assert inputs.hot_set(3) == inputs.hot_set(3)
    assert inputs.hot_set(3) != inputs.hot_set(4)
    runs = [request["run"] for request in inputs.hot_set(3)]
    assert len(set(runs)) == inputs.HOT_SET_SIZE


def test_cold_requests_are_distinct_and_miss_the_hot_set():
    cold = inputs.ColdRequests(3)
    runs = [cold(index)["run"] for index in range(5000)]
    assert len(set(runs)) == len(runs)
    assert runs == [inputs.ColdRequests(3)(index)["run"] for index in range(5000)]
    assert runs[0] != inputs.ColdRequests(4)(0)["run"]
    hot = {request["run"] for request in inputs.hot_set(3)}
    assert hot.isdisjoint(runs)
    assert inputs.WARMUP_REQUEST["run"] not in hot | set(runs)


def test_benchmark_manifest_names_every_printed_metric():
    import json
    from pathlib import Path

    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.run import END_TO_END_UNITS, WORKLOADS

    manifest = json.loads((Path(__file__).parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == PER_LAYER_UNITS
