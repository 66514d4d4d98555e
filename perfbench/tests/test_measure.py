import pytest

from perfbench.measure import (
    NOMINAL_PROBE_MS,
    local_probes,
    median,
    percentile,
    probe_host,
    summarize,
)


def test_nearest_rank_picks_an_observed_sample():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 91) == 10
    assert percentile(values, 100) == 10
    assert percentile(values, 1) == 1


def test_nearest_rank_ignores_input_order():
    assert median([9.0, 1.0, 5.0, 3.0, 7.0]) == 5.0
    assert percentile([4.0], 90) == 4.0


@pytest.mark.parametrize("q", [0, -1, 101])
def test_rank_out_of_range_is_refused(q):
    with pytest.raises(ValueError):
        percentile([1.0], q)


def test_no_samples_is_refused():
    with pytest.raises(ValueError):
        median([])


def test_summary_reports_milliseconds_and_rate():
    latencies = [0.001 * (i % 100 + 1) for i in range(500)]
    starts = [0.05 * i for i in range(500)]
    summary = summarize(starts, latencies)
    assert summary["latency_p50_ms"] == pytest.approx(50.0)
    assert summary["latency_p90_ms"] == pytest.approx(90.0)
    assert summary["throughput_per_s"] == pytest.approx(20.0, rel=0.01)


def test_summary_ignores_one_spoiled_slice():
    starts = [0.01 * i for i in range(1000)]
    latencies = [0.002] * 1000
    for index in range(200, 400):  # the second of five slices stalls
        latencies[index] = 0.050
    summary = summarize(starts, latencies)
    assert summary["latency_p50_ms"] == pytest.approx(2.0)
    assert summary["latency_p90_ms"] == pytest.approx(2.0)
    assert summary["throughput_per_s"] == pytest.approx(100.0, rel=0.01)


def test_summary_scales_each_slice_to_nominal_host_speed():
    # A closed loop of 1000 ops, each after a probe; the host runs at
    # nominal speed for 400 ops, then at half speed: latencies and probe
    # times double together.
    starts, latencies, probes = [], [], []
    clock = 0.0
    for index in range(1000):
        factor = 1.0 if index < 400 else 2.0
        probes.append((clock, NOMINAL_PROBE_MS / 1e3 * factor))
        clock += probes[-1][1]
        starts.append(clock)
        latencies.append(0.004 * factor)
        clock += latencies[-1]
    summary = summarize(starts, latencies, probes)
    assert summary["latency_p50_ms"] == pytest.approx(4.0)
    assert summary["latency_p90_ms"] == pytest.approx(4.0)
    assert summary["throughput_per_s"] == pytest.approx(1 / 0.0065, rel=0.01)
    unscaled = summarize(starts, latencies)
    assert unscaled["latency_p50_ms"] == pytest.approx(8.0)


def test_summary_needs_a_probe():
    with pytest.raises(ValueError):
        summarize([0.0], [0.001], [])


def test_host_probe_takes_measurable_time():
    assert probe_host() > 0


def test_each_op_takes_the_median_of_the_probes_near_it():
    probes = [(0.0, 1.0), (0.5, 3.0), (0.9, 2.0), (10.0, 7.0)]
    assert local_probes([0.4, 4.0, 6.0, 12.0], probes) == [2.0, 2.0, 7.0, 7.0]
