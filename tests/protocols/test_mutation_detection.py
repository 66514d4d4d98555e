"""Mutation tests: the invariant checker must catch broken transcriptions.

The Lemma 6.3 checker is the repository's defense against
mis-transcribing Figure 1.  These tests *deliberately* break the
counting machine in the ways a transcription most plausibly goes wrong
and assert that `check_invariants` / `check_counts_equal_modified_level`
flag each mutant on some small run — i.e. the checker has teeth.
"""

from dataclasses import dataclass

from repro.core.execution import execute
from repro.core.protocol import ClosedFormProtocol
from repro.core.randomness import ConstantTape, TapeSpace, UniformRealTape
from repro.core.run import enumerate_runs
from repro.core.topology import Topology
from repro.protocols.counting import CountingLocal, CountingState
from repro.protocols.invariants import (
    check_counts_equal_modified_level,
    check_invariants,
)
from repro.protocols.protocol_s import ProtocolS

PAIR = Topology.pair()
PATH3 = Topology.path(3)
_S_SPEC = ProtocolS(epsilon=0.25).counting_spec


class _SOutput:
    """The Protocol S output rule, shared by every mutant."""

    def output(self, state):
        return state.rfire is not None and state.count >= state.rfire


class _FaithfulLocal(_SOutput, CountingLocal):
    """Control: the unmutated Figure 1 machine."""


class _SkipSeenResetLocal(_SOutput, CountingLocal):
    """Mutant: forgets to reset ``seen`` to ``{i}`` after incrementing."""

    def transition(self, state, round_number, received, tape):
        new_state = super().transition(state, round_number, received, tape)
        if new_state.count > state.count and state.count >= 1:
            # Undo the reset: seen stays at the full set that triggered
            # the increment (Figure 1's last line dropped).
            return CountingState(
                count=new_state.count,
                rfire=new_state.rfire,
                seen=self._all_processes,
                valid=new_state.valid,
            )
        return new_state


class _EagerIncrementLocal(_SOutput, CountingLocal):
    """Mutant: increments on |seen| = m - 1 instead of seen = V."""

    def transition(self, state, round_number, received, tape):
        new_state = super().transition(state, round_number, received, tape)
        if (
            new_state.count == state.count
            and new_state.count >= 1
            and len(new_state.seen) == len(self._all_processes) - 1
        ):
            return CountingState(
                count=new_state.count + 1,
                rfire=new_state.rfire,
                seen=frozenset([self._process]),
                valid=new_state.valid,
            )
        return new_state


class _ForgetValidGateLocal(_SOutput, CountingLocal):
    """Mutant: starts counting on rfire alone, ignoring validity."""

    def _starts_counting(self, state, has_messages):
        return state.count == 0 and state.rfire is not None


@dataclass(frozen=True)
class _MutantProtocol(ClosedFormProtocol):
    local_class: type
    epsilon: float = 0.25

    @property
    def name(self):
        return f"mutant({self.local_class.__name__})"

    def local_protocol(self, process, topology):
        local = self.local_class(
            process=process,
            all_processes=frozenset(topology.processes),
            spec=_S_SPEC,
        )
        return local

    def tape_space(self, topology):
        distributions = {i: ConstantTape() for i in topology.processes}
        distributions[1] = UniformRealTape(0.0, 1.0 / self.epsilon)
        return TapeSpace.from_dict(distributions)

    def closed_form_probabilities(self, topology, run):
        raise NotImplementedError  # mutants are only executed directly


def _mutant_caught(local_class, topology, num_rounds) -> bool:
    """True iff some run exposes the mutant to the checkers."""
    protocol = _MutantProtocol(local_class)
    for run in enumerate_runs(topology, num_rounds):
        execution = execute(protocol, topology, run, {1: 1.0})
        if check_invariants(execution, topology, run):
            return True
        if check_counts_equal_modified_level(execution, topology, run):
            return True
    return False


class TestMutantsAreCaught:
    def test_skip_seen_reset_detected(self):
        assert _mutant_caught(_SkipSeenResetLocal, PAIR, 3)

    def test_eager_increment_detected(self):
        assert _mutant_caught(_EagerIncrementLocal, PATH3, 2)

    def test_forget_valid_gate_detected(self):
        assert _mutant_caught(_ForgetValidGateLocal, PAIR, 2)

    def test_faithful_machine_is_clean(self):
        """Control: the unmutated machine passes everywhere the mutants
        were hunted."""
        assert not _mutant_caught(_FaithfulLocal, PAIR, 3)
