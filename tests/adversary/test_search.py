"""Unit tests for the worst-run search strategies."""

import random

import pytest

from repro.adversary.search import (
    exhaustive_search,
    family_search,
    greedy_search,
    negated_liveness_objective,
    random_search,
    unsafety_objective,
    worst_case_unsafety,
)
from repro.core.run import good_run, silent_run
from repro.core.topology import Topology
from repro.protocols.deterministic import NeverAttack
from repro.protocols.protocol_a import ProtocolA
from repro.protocols.protocol_s import ProtocolS


class TestObjectives:
    def test_unsafety_objective(self, pair):
        protocol = ProtocolS(epsilon=0.25)
        result = protocol.closed_form_probabilities(
            pair, silent_run(pair, 3, [1, 2])
        )
        assert unsafety_objective(result) == pytest.approx(0.25)

    def test_negated_liveness_objective(self, pair):
        protocol = ProtocolS(epsilon=0.25)
        result = protocol.closed_form_probabilities(pair, good_run(pair, 3))
        assert negated_liveness_objective(result) == pytest.approx(-0.75)


class TestExhaustive:
    def test_finds_exact_worst_case_a(self, pair):
        result = exhaustive_search(ProtocolA(3), pair, 3)
        assert result.value == pytest.approx(0.5)
        assert result.certification == "exact"
        assert result.runs_examined == 256

    def test_finds_exact_worst_case_s(self, pair):
        result = exhaustive_search(ProtocolS(epsilon=0.25), pair, 2)
        assert result.value == pytest.approx(0.25)

    def test_limit_enforced(self, pair):
        with pytest.raises(ValueError, match="above the"):
            exhaustive_search(ProtocolA(3), pair, 3, limit=10)

    def test_fixed_inputs(self, pair):
        result = exhaustive_search(
            ProtocolA(3), pair, 3, fixed_inputs=frozenset([1, 2])
        )
        assert result.value == pytest.approx(0.5)
        assert result.runs_examined == 64

    def test_never_attack_is_safe(self, pair):
        result = exhaustive_search(NeverAttack(), pair, 2)
        assert result.value == 0.0


class TestFamilyAndHeuristics:
    def test_family_matches_exhaustive_for_a(self, pair):
        exhaustive = exhaustive_search(ProtocolA(4), pair, 4)
        family = family_search(ProtocolA(4), pair, 4)
        assert family.value == pytest.approx(exhaustive.value)
        assert family.certification == "family"

    def test_family_matches_exhaustive_for_s(self, pair):
        protocol = ProtocolS(epsilon=0.2)
        exhaustive = exhaustive_search(protocol, pair, 3)
        family = family_search(protocol, pair, 3)
        assert family.value == pytest.approx(exhaustive.value)

    def test_random_search_bounded_by_exact(self, pair):
        protocol = ProtocolS(epsilon=0.2)
        exact = exhaustive_search(protocol, pair, 3)
        sampled = random_search(
            protocol, pair, 3, samples=60, rng=random.Random(0)
        )
        assert sampled.value <= exact.value + 1e-9
        assert sampled.certification == "heuristic"

    def test_greedy_improves_from_good_run(self, pair):
        protocol = ProtocolS(epsilon=0.25)
        seed = good_run(pair, 3)
        start_value = unsafety_objective(
            protocol.closed_form_probabilities(pair, seed)
        )
        result = greedy_search(protocol, pair, 3, seed)
        assert result.value >= start_value
        assert result.value == pytest.approx(0.25)

    def test_minimizing_liveness(self, pair):
        protocol = ProtocolA(3)
        result = exhaustive_search(
            protocol, pair, 3, objective=negated_liveness_objective
        )
        assert result.value == pytest.approx(0.0)  # some run has L = 0


class TestComposite:
    def test_small_instance_is_exact(self, pair):
        result = worst_case_unsafety(ProtocolA(3), pair, 3)
        assert result.certification == "exact"
        assert result.value == pytest.approx(0.5)

    def test_large_instance_uses_families(self, pair):
        result = worst_case_unsafety(ProtocolA(8), pair, 8)
        assert result.certification in ("family", "heuristic")
        assert result.value == pytest.approx(1.0 / 7)

    def test_multiprocess_composite(self):
        topology = Topology.path(3)
        protocol = ProtocolS(epsilon=0.25)
        result = worst_case_unsafety(protocol, topology, 5)
        assert result.value == pytest.approx(0.25)

    def test_zero_random_samples_skips_the_random_stage(self, pair):
        protocol = ProtocolS(epsilon=0.25)
        family = family_search(protocol, pair, 8)
        greedy = greedy_search(protocol, pair, 8, family.run)
        result = worst_case_unsafety(protocol, pair, 8, random_samples=0)
        assert result.runs_examined == (
            family.runs_examined + greedy.runs_examined
        )
        assert result.value == pytest.approx(0.25)

    def test_negative_random_samples_rejected(self, pair):
        with pytest.raises(ValueError, match="random_samples"):
            worst_case_unsafety(ProtocolS(epsilon=0.25), pair, 8, random_samples=-1)
