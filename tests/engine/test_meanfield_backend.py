"""Engine-level tests for the ``meanfield`` backend and the scaled path.

The backend contract: registered next to ``reference``/``vectorized``,
bit-identical where it runs, a *typed* error (never a silent fallback)
for exact methods on unsupported pairs, and a silent reference fall
through only for the sampling methods the counter kernel does not
implement.  ``evaluate_scaled`` is backend-independent, memoized, and
counted in the engine's instrumentation.
"""

import math

import pytest

from repro import meanfield
from repro.core.run import good_run, round_cut_run
from repro.core.topology import Topology
from repro.engine import Engine
from repro.engine.engine import BACKENDS, CACHEABLE_QUALNAMES
from repro.meanfield import CounterAbstractionError, scaled_spec
from repro.protocols.protocol_m import ProtocolM
from repro.protocols.protocol_s import ProtocolS
from repro.protocols.weak_adversary import ProtocolW


def test_backend_is_registered():
    assert "meanfield" in BACKENDS
    Engine(backend="meanfield")  # constructs without error
    with pytest.raises(ValueError):
        Engine(backend="counterfield")


def test_cacheable_qualnames_cover_the_counter_path():
    assert "repro.meanfield.evaluate.evaluate_counter" in CACHEABLE_QUALNAMES
    assert "repro.meanfield.evaluate.evaluate_spec" in CACHEABLE_QUALNAMES


class TestConcreteEvaluation:
    def test_counts_meanfield_evaluations(self):
        topology = Topology.complete(3)
        engine = Engine(backend="meanfield")
        engine.evaluate(ProtocolW(2), topology, good_run(topology, 2))
        assert engine.stats.meanfield_evaluations == 1
        assert engine.stats.as_dict()["meanfield_evaluations"] == 1

    def test_typed_error_on_unsupported_topology(self):
        topology = Topology.ring(4)
        engine = Engine(backend="meanfield")
        with pytest.raises(CounterAbstractionError):
            engine.evaluate(
                ProtocolW(2), topology, good_run(topology, 2)
            )

    def test_monte_carlo_method_falls_through_to_reference(self):
        """Sampling methods are outside the counter kernel's contract."""
        topology = Topology.complete(3)
        engine = Engine(backend="meanfield")
        import random

        result = engine.evaluate(
            ProtocolS(epsilon=0.25),
            topology,
            good_run(topology, 2),
            method="monte-carlo",
            trials=64,
            rng=random.Random(7),
        )
        assert result.method == "monte-carlo"
        assert engine.stats.meanfield_evaluations == 0

    def test_evaluate_many_parity_with_reference(self):
        topology = Topology.complete(4)
        runs = [
            good_run(topology, 3),
            round_cut_run(topology, 3, 2),
            round_cut_run(topology, 3, 1),
        ]
        protocol = ProtocolM(quorum=0.5)
        lumped = Engine(backend="meanfield").evaluate_many(
            protocol, topology, runs
        )
        exact = Engine(backend="reference").evaluate_many(
            protocol, topology, runs
        )
        for ours, theirs in zip(lumped, exact):
            assert math.isclose(
                ours.pr_total_attack,
                theirs.pr_total_attack,
                rel_tol=0.0,
                abs_tol=0.0,
            )
            assert math.isclose(
                ours.pr_partial_attack,
                theirs.pr_partial_attack,
                rel_tol=0.0,
                abs_tol=0.0,
            )


class TestScaledPath:
    def test_available_on_every_backend(self):
        spec = scaled_spec(10**5, 6, "good", distinguished=True)
        protocol = ProtocolS(epsilon=0.125)
        results = [
            Engine(backend=backend).evaluate_scaled(protocol, spec)
            for backend in BACKENDS
        ]
        first = results[0]
        assert all(r == first for r in results)

    def test_memoizes_on_the_packed_spec(self):
        engine = Engine(backend="meanfield")
        protocol = ProtocolM(quorum=0.5)
        spec = scaled_spec(10**4, 5, "cut:3")
        first = engine.evaluate_scaled(protocol, spec)
        second = engine.evaluate_scaled(protocol, spec)
        assert second is first
        assert engine.stats.cache_hits == 1
        assert engine.stats.meanfield_evaluations == 1

    def test_reset_clears_the_scaled_cache(self):
        engine = Engine(backend="meanfield")
        protocol = ProtocolM(quorum=0.5)
        spec = scaled_spec(100, 4, "good")
        first = engine.evaluate_scaled(protocol, spec)
        engine.reset()
        second = engine.evaluate_scaled(protocol, spec)
        assert second == first
        assert engine.stats.cache_hits == 0

    def test_supports_meanfield_probe(self):
        complete = Topology.complete(4)
        assert meanfield.supports(ProtocolW(2), complete)
        assert meanfield.supports(ProtocolM(quorum=0.5), complete)
        assert not meanfield.supports(ProtocolW(2), Topology.ring(4))
