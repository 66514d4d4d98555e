"""Unit tests for the shared Figure 1 counting machine."""

from repro.core.execution import execute
from repro.core.measures import modified_level_profile
from repro.core.run import Run, good_run, random_run, silent_run
from repro.core.topology import Topology
from repro.protocols.counting import CountingLocal, CountingState
from repro.protocols.invariants import check_counts_equal_level
from repro.protocols.protocol_s import ProtocolS
from repro.protocols.variants import EagerS
from repro.protocols.weak_adversary import ProtocolW

# Protocol S's rfire-gated machine and the valid-gated one (EagerS's:
# same coordinator, no rfire gate).
S_SPEC = ProtocolS(epsilon=0.25).counting_spec
VALID_SPEC = EagerS(epsilon=0.25).counting_spec


class TestInitialStates:
    def _local(self, spec=S_SPEC):
        return CountingLocal(
            process=1, all_processes=frozenset([1, 2]), spec=spec
        )

    def test_coordinator_with_input_starts_counting(self):
        state = self._local().initial_state(True, 4.2)
        assert state == CountingState(1, 4.2, frozenset([1]), True)

    def test_coordinator_without_input_waits(self):
        state = self._local().initial_state(False, 4.2)
        assert state.count == 0
        assert state.rfire == 4.2
        assert state.seen == frozenset()

    def test_non_coordinator_has_undefined_rfire(self):
        local = CountingLocal(
            process=2, all_processes=frozenset([1, 2]), spec=S_SPEC
        )
        state = local.initial_state(True, None)
        assert state.rfire is None
        assert state.count == 0

    def test_valid_gated_counts_without_rfire(self):
        local = CountingLocal(
            process=2, all_processes=frozenset([1, 2]), spec=VALID_SPEC
        )
        state = local.initial_state(True, None)
        assert state.count == 1
        assert state.seen == frozenset([2])


class TestMessageGeneration:
    def test_sends_full_state_every_round(self):
        local = CountingLocal(
            process=1, all_processes=frozenset([1, 2]), spec=S_SPEC
        )
        state = local.initial_state(True, 2.0)
        message = local.message(state, neighbor=2)
        assert message.rfire == 2.0
        assert message.count == 1
        assert message.seen == frozenset([1])
        assert message.valid is True


class TestCountingDynamics:
    def test_count_tracks_modified_level_good_run(self, pair):
        protocol = ProtocolS(epsilon=0.25)
        run = good_run(pair, 5)
        execution = execute(protocol, pair, run, {1: 1.0})
        profile = modified_level_profile(run, 2)
        for process in (1, 2):
            for round_number in range(0, 6):
                assert (
                    execution.local(process).states[round_number].count
                    == profile.level_at(process, round_number)
                )

    def test_count_tracks_plain_level_for_w(self, path3, rng):
        protocol = ProtocolW(threshold=2)
        for _ in range(15):
            run = random_run(path3, 4, rng)
            execution = execute(protocol, path3, run, {})
            assert check_counts_equal_level(execution, path3, run) == []

    def test_stale_messages_do_not_regress_count(self, pair):
        # A very old state arriving late must never lower the count.
        protocol = ProtocolS(epsilon=0.25)
        run = Run.build(4, [1, 2], [(1, 2, 1), (2, 1, 2), (1, 2, 4)])
        execution = execute(protocol, pair, run, {1: 1.0})
        counts = [execution.local(2).states[r].count for r in range(5)]
        assert counts == sorted(counts)

    def test_seen_resets_after_increment(self, pair):
        protocol = ProtocolS(epsilon=0.25)
        execution = execute(protocol, pair, good_run(pair, 3), {1: 1.0})
        for process in (1, 2):
            for state in execution.local(process).states:
                assert state.seen != frozenset([1, 2])

    def test_output_reads_the_spec(self):
        # S attacks iff count >= rfire; W (no rfire) iff count >= K.
        local = CountingLocal(
            process=1, all_processes=frozenset([1, 2]), spec=S_SPEC
        )
        assert local.output(local.initial_state(True, 1.0))
        assert not local.output(local.initial_state(True, 1.5))
        w_local = ProtocolW(threshold=2).local_protocol(1, Topology.pair())
        assert not w_local.output(CountingState(1, None, frozenset([1]), True))
        assert w_local.output(CountingState(2, None, frozenset([1]), True))


class TestLargerGraphs:
    def test_counts_equal_modified_level_on_star(self):
        from repro.protocols.invariants import (
            check_counts_equal_modified_level,
        )

        topology = Topology.star(5)
        protocol = ProtocolS(epsilon=0.1)
        run = good_run(topology, 4)
        execution = execute(protocol, topology, run, {1: 1.0})
        assert (
            check_counts_equal_modified_level(execution, topology, run) == []
        )

    def test_silence_keeps_counts_at_start_values(self, path3):
        protocol = ProtocolS(epsilon=0.5)
        run = silent_run(path3, 3, [1, 2, 3])
        execution = execute(protocol, path3, run, {1: 1.0})
        assert execution.local(1).states[-1].count == 1
        assert execution.local(2).states[-1].count == 0
        assert execution.local(3).states[-1].count == 0


class TestCheckedExecute:
    def test_passes_on_faithful_protocol(self, pair):
        from repro.core.run import good_run
        from repro.protocols.invariants import checked_execute
        from repro.protocols.protocol_s import ProtocolS

        execution = checked_execute(
            ProtocolS(epsilon=0.25), pair, good_run(pair, 4), {1: 2.0}
        )
        assert execution.outputs == (True, True)

    def test_raises_on_unfaithful_counting(self):
        from repro.core.run import good_run
        from repro.core.topology import Topology
        from repro.protocols.ablations import NaiveCountingS
        from repro.protocols.invariants import checked_execute
        import pytest as _pytest

        topology = Topology.star(4)
        with _pytest.raises(AssertionError, match="invariant violations"):
            checked_execute(
                NaiveCountingS(epsilon=0.25),
                topology,
                good_run(topology, 4),
                {1: 2.0},
            )
