"""Integration tests: every experiment runs quick-scale and passes.

These are the end-to-end checks that the reproduced claims hold; each
experiment's internal assertions mark the report failed on any
violation, so ``report.passed`` is the reproduction verdict.
"""

import pytest

from repro.experiments import Config, experiment_ids, run_experiment

QUICK = Config(scale="quick", seed=0)


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment_passes(experiment_id):
    report = run_experiment(experiment_id, QUICK)
    assert report.passed, report.render()


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment_produces_tables(experiment_id):
    report = run_experiment(experiment_id, QUICK)
    assert report.tables, "experiment produced no tables"
    rendered = report.render()
    assert report.experiment_id in rendered
    for table in report.tables:
        assert table.rows, f"empty table {table.title!r}"


def test_reports_are_deterministic():
    first = run_experiment("E1", QUICK).render()
    second = run_experiment("E1", QUICK).render()
    assert first == second


@pytest.mark.parametrize("experiment_id", ["E6", "E13"])
def test_counting_variants_run_on_the_kernel(experiment_id):
    # E6 and E13 evaluate only Figure 1 protocols (S and the variants
    # that configure its counting spec), so under the vectorized
    # backend no run reaches the reference simulator.
    config = Config(scale="quick", seed=0, backend="vectorized")
    report = run_experiment(experiment_id, config)
    assert report.passed, report.render()
    assert config.engine().stats.reference_evaluations == 0
