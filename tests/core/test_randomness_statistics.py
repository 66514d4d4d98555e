"""Statistical tests for the tape distributions (scipy-based).

The paper's probabilities are all driven by the tape laws, so the
samplers get distributional tests, not just range checks: chi-squared
goodness of fit for the discrete tapes, Kolmogorov–Smirnov for the
continuous ones.  Seeds are fixed; thresholds are loose enough that
these never flake yet tight enough to catch an off-by-one or a wrong
open/closed endpoint.
"""

import random

import numpy as np
from scipy import stats

from repro.core.randomness import (
    BitStringTape,
    UniformIntTape,
    UniformRealTape,
)
from repro.protocols.counting import _RfireSquaredTape


SAMPLES = 20_000


class TestUniformIntTape:
    def test_chi_squared_uniformity(self):
        tape = UniformIntTape(2, 9)
        rng = random.Random(42)
        draws = [tape.sample(rng) for _ in range(SAMPLES)]
        observed = [draws.count(value) for value in range(2, 10)]
        _, p_value = stats.chisquare(observed)
        assert p_value > 0.001

    def test_every_atom_hit(self):
        tape = UniformIntTape(2, 20)
        rng = random.Random(7)
        draws = {tape.sample(rng) for _ in range(5_000)}
        assert draws == set(range(2, 21))


class TestUniformRealTape:
    def test_kolmogorov_smirnov(self):
        tape = UniformRealTape(0.0, 8.0)
        rng = random.Random(42)
        draws = np.array([tape.sample(rng) for _ in range(SAMPLES)])
        _, p_value = stats.kstest(draws / 8.0, "uniform")
        assert p_value > 0.001

    def test_half_open_endpoints(self):
        tape = UniformRealTape(0.0, 1.0)
        rng = random.Random(0)
        draws = [tape.sample(rng) for _ in range(SAMPLES)]
        assert min(draws) > 0.0
        assert max(draws) <= 1.0


class TestBitStringTape:
    def test_bits_unbiased(self):
        tape = BitStringTape(4)
        rng = random.Random(42)
        totals = np.zeros(4)
        for _ in range(SAMPLES // 2):
            totals += np.array(tape.sample(rng))
        frequencies = totals / (SAMPLES // 2)
        assert np.all(np.abs(frequencies - 0.5) < 0.02)

    def test_bits_independent(self):
        tape = BitStringTape(2)
        rng = random.Random(42)
        joint = np.zeros((2, 2))
        for _ in range(SAMPLES // 2):
            a, b = tape.sample(rng)
            joint[a][b] += 1
        _, p_value, _, _ = stats.chi2_contingency(joint)
        assert p_value > 0.001


class TestSkewedRfireTape:
    def test_matches_square_root_cdf(self):
        tape = _RfireSquaredTape(top=4.0)
        rng = random.Random(42)
        draws = np.array([tape.sample(rng) for _ in range(SAMPLES)])
        assert draws.min() > 0.0
        assert draws.max() <= 4.0
        _, p_value = stats.kstest(np.sqrt(draws / 4.0), "uniform")
        assert p_value > 0.001
