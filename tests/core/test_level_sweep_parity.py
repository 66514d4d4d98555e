"""Parity: the one-sweep-per-height level recursion == the per-source one.

:func:`repro.core.measures.profile_from_deliveries` derives each height
from the one below in a single forward sweep over all sources.  The
oracle is the per-source recursion it replaced
(``tests/core/reference_measures.py``), one earliest-arrival sweep per
(source, height), driven by the synchronous or the timed flows-to.

Both must return equal :class:`LevelProfile` objects with equal value
types — a float base layer and int heights above — for the level and
the modified level (coordinator 1 and coordinator m), on the named
topologies (the served ``grid:3x3`` N=10 ``loss:P:SEED`` runs
included), random connected graphs, graphs with an isolated process or
an isolated coordinator, and random timed runs with delays 0-3.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

import pytest

from repro.cli import parse_run, parse_topology
from repro.core.measures import (
    LevelProfile,
    level_profile,
    modified_level_profile,
)
from repro.core.run import Run, bernoulli_run
from repro.core.topology import Topology
from repro.timed.measures import (
    timed_level_profile,
    timed_modified_level_profile,
)
from repro.timed.run import TimedRun, random_timed_run

from .reference_measures import (
    level_profile_per_source,
    modified_level_profile_per_source,
    timed_level_profile_per_source,
    timed_modified_level_profile_per_source,
)

NAMED_SPECS = (
    "pair",
    "path:3",
    "path:4",
    "ring:4",
    "ring:6",
    "star:4",
    "star:5",
    "complete:3",
    "complete:4",
    "grid:2x3",
    "grid:3x3",
)
NAMED_RUNS = ("good", "silent", "cut:1", "cut:3", "tree", "loss:0.3:5")
ISOLATED = (
    ("isolated-process", Topology.from_edges(3, [(1, 2)])),
    ("isolated-coordinator", Topology.from_edges(4, [(2, 3)])),
)


def _layer_types(profile: LevelProfile) -> List[List[type]]:
    return [
        [type(layer[j]) for j in sorted(layer)] for layer in profile.thresholds
    ]


def _assert_same(actual: LevelProfile, expected: LevelProfile, where) -> None:
    assert actual == expected, where
    assert _layer_types(actual) == _layer_types(expected), where
    if actual.thresholds:
        base, *above = _layer_types(actual)
        assert set(base) <= {float}, where
        assert all(set(layer) <= {int} for layer in above), where


def _assert_profiles_match(run: Run, num_processes: int, where) -> None:
    _assert_same(
        level_profile(run, num_processes),
        level_profile_per_source(run, num_processes),
        (where, "level"),
    )
    for coordinator in (1, num_processes):
        _assert_same(
            modified_level_profile(run, num_processes, coordinator),
            modified_level_profile_per_source(run, num_processes, coordinator),
            (where, "modified level", coordinator),
        )


def _random_runs(
    topology: Topology, rng: random.Random, count: int
) -> Iterator[Run]:
    """Bernoulli runs over N = 1..12; about a third lose some inputs."""
    for _ in range(count):
        num_rounds = rng.randint(1, 12)
        run = bernoulli_run(
            topology, num_rounds, rng.choice((0.3, 0.6, 0.85, 1.0)), rng
        )
        if rng.random() < 0.35:
            run = run.with_inputs(i for i in run.inputs if rng.random() < 0.5)
        yield run


class TestSynchronousParity:
    @pytest.mark.parametrize("spec", NAMED_SPECS)
    def test_named_topologies(self, spec):
        topology = parse_topology(spec)
        m = topology.num_processes
        for num_rounds in (3, 5, 8):
            for run_spec in NAMED_RUNS:
                run = parse_run(run_spec, topology, num_rounds)
                _assert_profiles_match(run, m, (spec, run_spec, num_rounds))

    def test_served_grid_loss_runs(self):
        # The serve workloads' shape: S on grid:3x3, N=10, loss:P:SEED.
        topology = parse_topology("grid:3x3")
        for probability in (0.1, 0.2, 0.25, 0.4):
            for seed in range(25):
                run_spec = f"loss:{probability}:{seed}"
                run = parse_run(run_spec, topology, 10)
                _assert_profiles_match(run, 9, run_spec)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_random_connected_topologies(self, m):
        rng = random.Random(7000 + m)
        for density in (0.0, 0.3, 0.7):
            for _ in range(4):
                topology = Topology.random_connected(m, density, rng)
                for run in _random_runs(topology, rng, 24):
                    _assert_profiles_match(run, m, (topology, run))

    @pytest.mark.parametrize(
        "topology", [pytest.param(t, id=name) for name, t in ISOLATED]
    )
    def test_isolated_vertices(self, topology):
        rng = random.Random(len(topology.edges) + topology.num_processes)
        for run in _random_runs(topology, rng, 60):
            _assert_profiles_match(run, topology.num_processes, run)

    def test_empty_run_has_no_heights(self):
        run = Run.empty(4)
        assert level_profile(run, 3).thresholds == ()
        assert modified_level_profile(run, 3).thresholds == ()


def _timed_runs() -> Iterator[Tuple[Topology, TimedRun]]:
    rng = random.Random(1992)
    for m in range(2, 7):
        for _ in range(40):
            topology = Topology.random_connected(m, rng.random(), rng)
            yield topology, random_timed_run(
                topology,
                rng.randint(1, 9),
                rng,
                delivery_probability=rng.choice((0.4, 0.7, 1.0)),
                max_delay=rng.randint(0, 3),
                input_probability=rng.choice((0.5, 1.0)),
            )
    for _, topology in ISOLATED:
        for _ in range(20):
            yield topology, random_timed_run(topology, 6, rng, 0.8, 2, 0.8)


class TestTimedParity:
    def test_random_timed_runs(self):
        checked = 0
        for topology, run in _timed_runs():
            m = topology.num_processes
            _assert_same(
                timed_level_profile(run, m),
                timed_level_profile_per_source(run, m),
                (run, "level"),
            )
            for coordinator in (1, m):
                _assert_same(
                    timed_modified_level_profile(run, m, coordinator),
                    timed_modified_level_profile_per_source(
                        run, m, coordinator
                    ),
                    (run, "modified level", coordinator),
                )
            checked += 1
        assert checked == 5 * 40 + 2 * 20
