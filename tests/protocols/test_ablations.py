"""Unit tests for the ablated Protocol S variants."""

import math

import pytest

from repro.core.measures import modified_level_profile
from repro.core.probability import evaluate, monte_carlo_probabilities
from repro.core.run import good_run, random_run, silent_run
from repro.core.topology import Topology
from repro.protocols.ablations import NaiveCountingS, SkewedS
from repro.protocols.counting import RfireLaw, threshold_probabilities
from repro.protocols.protocol_s import ProtocolS


class TestCdfHelper:
    def test_uniform_cdf_matches_basic_helper(self):
        from .legacy_closed_forms import rfire_threshold_probabilities

        thresholds = [3, 2]
        t = 8.0
        general = threshold_probabilities(thresholds, RfireLaw("uniform", t))
        specific = rfire_threshold_probabilities([3.0, 2.0], t)
        assert general.agrees_with(specific, tolerance=1e-12)

    def test_degenerate_cdf(self):
        result = threshold_probabilities([0, 5], RfireLaw("step", 1))
        assert result.pr_partial_attack == 1.0


class TestNaiveCountingS:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            NaiveCountingS(epsilon=0.0)

    def test_matches_protocol_s_on_two_generals(self, pair, rng):
        # With m = 2, "hear anyone at my level" == "hear everyone".
        naive = NaiveCountingS(epsilon=0.2)
        faithful = ProtocolS(epsilon=0.2)
        for _ in range(20):
            run = random_run(pair, 5, rng)
            assert naive.closed_form_probabilities(pair, run).agrees_with(
                faithful.closed_form_probabilities(pair, run),
                tolerance=1e-12,
            )

    def test_overshoots_modified_level_on_star(self):
        topology = Topology.star(4)
        naive = NaiveCountingS(epsilon=0.1)
        run = good_run(topology, 4)
        counts = naive.final_counts(topology, run)
        true_ml = modified_level_profile(run, 4).levels()
        assert any(
            counts[i] > true_ml[i] for i in topology.processes
        )

    def test_validity(self, path3):
        naive = NaiveCountingS(epsilon=0.5)
        result = evaluate(naive, path3, good_run(path3, 3, inputs=[]))
        assert result.pr_no_attack == 1.0

    def test_closed_form_matches_monte_carlo(self, rng):
        topology = Topology.star(4)
        naive = NaiveCountingS(epsilon=0.15)
        run = good_run(topology, 4)
        closed = naive.closed_form_probabilities(topology, run)
        sampled = monte_carlo_probabilities(
            naive, topology, run, trials=5000, rng=rng
        )
        assert closed.agrees_with(sampled, tolerance=0.03)


class TestSkewedS:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            SkewedS(epsilon=1.5)

    def test_cdf_shape(self):
        skewed = SkewedS(epsilon=0.25)  # t = 4
        assert skewed.cdf(0.0) == 0.0
        assert skewed.cdf(1.0) == pytest.approx(0.5)
        assert skewed.cdf(4.0) == 1.0
        assert skewed.cdf(9.0) == 1.0

    def test_sampler_matches_cdf(self, pair, rng):
        skewed = SkewedS(epsilon=0.25)
        space = skewed.tape_space(pair)
        draws = [space.sample(rng)[1] for _ in range(4000)]
        assert all(0.0 < value <= 4.0 for value in draws)
        empirical = sum(1 for value in draws if value <= 1.0) / len(draws)
        assert empirical == pytest.approx(0.5, abs=0.03)

    def test_good_run_liveness_matches_uniform(self, pair):
        skewed = SkewedS(epsilon=0.125)
        run = good_run(pair, 8)
        assert skewed.closed_form_probabilities(
            pair, run
        ).pr_total_attack == pytest.approx(1.0)

    def test_worst_window_is_sqrt_epsilon(self, pair):
        epsilon = 1.0 / 16
        skewed = SkewedS(epsilon=epsilon)
        run = silent_run(pair, 16, [1, 2])  # thresholds (1, 0)
        result = skewed.closed_form_probabilities(pair, run)
        assert result.pr_partial_attack == pytest.approx(math.sqrt(epsilon))

    def test_closed_form_matches_monte_carlo(self, pair, rng):
        skewed = SkewedS(epsilon=0.2)
        for run in (good_run(pair, 5), silent_run(pair, 5, [1, 2])):
            closed = skewed.closed_form_probabilities(pair, run)
            sampled = monte_carlo_probabilities(
                skewed, pair, run, trials=6000, rng=rng
            )
            assert closed.agrees_with(sampled, tolerance=0.03)

    def test_validity(self, pair):
        skewed = SkewedS(epsilon=0.5)
        result = evaluate(skewed, pair, good_run(pair, 4, inputs=[]))
        assert result.pr_no_attack == 1.0
