"""Unit tests for the strong adversary's run set."""

import pytest

from repro.adversary.strong import StrongAdversary
from repro.core.run import Run, good_run


class TestMembership:
    def test_contains_any_valid_run(self, pair):
        adversary = StrongAdversary()
        assert adversary.contains(pair, good_run(pair, 3))
        assert adversary.contains(pair, Run.build(3, [1]))

    def test_rejects_off_topology_runs(self, pair):
        adversary = StrongAdversary()
        assert not adversary.contains(pair, Run.build(3, [5]))

    def test_fixed_inputs_restrict(self, pair):
        adversary = StrongAdversary(fixed_inputs=frozenset([1]))
        assert adversary.contains(pair, Run.build(3, [1]))
        assert not adversary.contains(pair, Run.build(3, [1, 2]))
        assert "I=[1]" in adversary.name


class TestEnumeration:
    def test_size_formula(self, pair):
        adversary = StrongAdversary()
        # 2 directed links, 2 rounds, 2 processes: 2^(4 + 2).
        assert adversary.size(pair, 2) == 64

    def test_enumerate_yields_size(self, pair):
        adversary = StrongAdversary(fixed_inputs=frozenset([1]))
        runs = list(adversary.enumerate(pair, 1))
        assert len(runs) == adversary.size(pair, 1) == 4

    def test_enumerate_respects_limit(self, pair):
        adversary = StrongAdversary()
        with pytest.raises(ValueError, match="above the"):
            adversary.enumerate(pair, 2, limit=10)

    def test_enumerated_runs_all_contained(self, pair):
        adversary = StrongAdversary()
        for run in adversary.enumerate(pair, 1):
            assert adversary.contains(pair, run)

    def test_packed_batches_unpack_to_enumerate(self, pair):
        adversary = StrongAdversary(fixed_inputs=frozenset([2]))
        batches = list(adversary.enumerate_packed(pair, 2, chunk=5))
        assert [len(batch) for batch in batches] == [5, 5, 5, 1]
        assert [run for batch in batches for run in batch.to_runs()] == list(
            adversary.enumerate(pair, 2)
        )

    def test_packed_enumeration_respects_limit(self, pair):
        with pytest.raises(ValueError, match="above the"):
            StrongAdversary().enumerate_packed(pair, 2, limit=10)
