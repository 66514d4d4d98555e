"""Unit tests for the probe variants (EagerS, GreedyS, XorCoin)."""

import pytest

from repro.core.execution import decide
from repro.core.measures import run_level, run_modified_level
from repro.core.probability import (
    evaluate,
    exact_probabilities,
    monte_carlo_probabilities,
)
from repro.core.run import Run, good_run, silent_run
from repro.protocols.counting import RfireLaw, threshold_probabilities
from repro.protocols.variants import EagerS, GreedyS, XorCoin


class TestThresholdHelper:
    def test_basic_shape(self):
        result = threshold_probabilities([2, 1], RfireLaw("uniform", 4.0))
        assert result.pr_total_attack == pytest.approx(0.25)
        assert result.pr_no_attack == pytest.approx(0.5)
        assert result.pr_partial_attack == pytest.approx(0.25)
        assert result.pr_attack == (0.5, 0.25)

    def test_zero_thresholds(self):
        result = threshold_probabilities([0, 0], RfireLaw("uniform", 4.0))
        assert result.pr_no_attack == 1.0

    def test_saturation(self):
        result = threshold_probabilities([9, 9], RfireLaw("uniform", 4.0))
        assert result.pr_total_attack == 1.0


class TestEagerS:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            EagerS(epsilon=0.0)

    def test_liveness_follows_plain_level(self, pair):
        epsilon = 0.05
        protocol = EagerS(epsilon=epsilon)
        run = good_run(pair, 6)
        result = protocol.closed_form_probabilities(pair, run)
        level = run_level(run, 2)
        assert result.pr_total_attack == pytest.approx(epsilon * level)
        assert level == run_modified_level(run, 2) + 1

    def test_pays_double_unsafety_on_oneway_run(self, pair):
        epsilon = 0.1
        protocol = EagerS(epsilon=epsilon)
        oneway = Run.build(6, [1, 2], [(2, 1, r) for r in range(1, 7)])
        result = protocol.closed_form_probabilities(pair, oneway)
        assert result.pr_partial_attack == pytest.approx(2 * epsilon)

    def test_validity(self, pair):
        result = evaluate(EagerS(epsilon=0.5), pair, good_run(pair, 3, inputs=[]))
        assert result.pr_no_attack == 1.0

    def test_closed_form_matches_monte_carlo(self, pair, rng):
        protocol = EagerS(epsilon=0.25)
        run = good_run(pair, 4)
        closed = protocol.closed_form_probabilities(pair, run)
        sampled = monte_carlo_probabilities(
            protocol, pair, run, trials=6000, rng=rng
        )
        assert closed.agrees_with(sampled, tolerance=0.03)


class TestGreedyS:
    def test_rejects_zero_slack(self):
        with pytest.raises(ValueError, match="slack"):
            GreedyS(epsilon=0.1, slack=0)

    def test_liveness_gains_slack_levels(self, pair):
        epsilon = 0.05
        run = good_run(pair, 6)
        ml = run_modified_level(run, 2)
        for slack in (1, 2):
            protocol = GreedyS(epsilon=epsilon, slack=slack)
            result = protocol.closed_form_probabilities(pair, run)
            assert result.pr_total_attack == pytest.approx(
                epsilon * (ml + slack)
            )

    def test_unsafety_grows_with_slack(self, pair):
        epsilon = 0.1
        run = silent_run(pair, 6, [1, 2])
        # Only the coordinator can fire; threshold 1 + slack vs 0.
        for slack in (1, 2):
            protocol = GreedyS(epsilon=epsilon, slack=slack)
            result = protocol.closed_form_probabilities(pair, run)
            assert result.pr_partial_attack == pytest.approx(
                epsilon * (1 + slack)
            )

    def test_validity(self, pair):
        result = evaluate(
            GreedyS(epsilon=0.5), pair, good_run(pair, 3, inputs=[])
        )
        assert result.pr_no_attack == 1.0

    def test_closed_form_matches_monte_carlo(self, pair, rng):
        protocol = GreedyS(epsilon=0.2)
        run = good_run(pair, 3)
        closed = protocol.closed_form_probabilities(pair, run)
        sampled = monte_carlo_probabilities(
            protocol, pair, run, trials=6000, rng=rng
        )
        assert closed.agrees_with(sampled, tolerance=0.03)


class TestXorCoin:
    def test_two_generals_only(self, path3):
        assert not XorCoin().supports_topology(path3)

    def test_decision_probabilities_are_half(self, pair):
        result = exact_probabilities(XorCoin(), pair, good_run(pair, 3))
        assert result.pr_attack == (0.5, 0.5)

    def test_connected_run_perfectly_correlated(self, pair):
        result = exact_probabilities(XorCoin(), pair, good_run(pair, 3))
        # Both decide c1 xor c2: they always agree.
        assert result.pr_partial_attack == pytest.approx(0.0)
        assert result.pr_total_attack == pytest.approx(0.5)

    def test_isolated_run_independent(self, pair):
        result = exact_probabilities(
            XorCoin(), pair, silent_run(pair, 3, [1, 2])
        )
        assert result.pr_total_attack == pytest.approx(0.25)
        assert result.pr_partial_attack == pytest.approx(0.5)

    def test_validity(self, pair):
        for tapes in ({1: (0,), 2: (0,)}, {1: (1,), 2: (1,)}):
            assert decide(XorCoin(), pair, silent_run(pair, 3), tapes) == (
                False,
                False,
            )
