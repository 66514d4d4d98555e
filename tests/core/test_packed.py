"""The packed-run data path: layouts, round-trips, symmetry reduction.

The packed representation is load-bearing for the whole exact data
path (enumeration, kernel batches, cache keys, orbit reduction), so
these tests pin its invariants:

* pack/unpack is a lossless bijection on every run (property-based);
* the bit layout matches the documented assignment (inputs first,
  then message bits round-major in ``directed_links()`` order);
* packed enumeration is lazy, counter-ordered, and agrees with
  ``run_space_size``;
* automorphism groups match a brute-force permutation check on every
  graph with at most 5 vertices;
* orbit-representative enumeration partitions the space (sizes sum to
  the space), yields canonical representatives, and its orbit-weighted
  aggregates equal the unreduced sweep's for invariant observables.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import (
    RunBatch,
    canonical_bits,
    enumerate_orbit_representatives,
    enumerate_packed_runs,
    layout_for,
    orbit_reduce,
    orbit_tables,
    packed_run_batches,
    packed_run_space,
)
from repro.core.run import (
    all_message_tuples,
    enumerate_runs,
    good_run,
    run_space_size,
)
from repro.core.topology import Topology

from ..conftest import runs_for, small_topology_strategy

PAIR = Topology.pair()
K3 = Topology.complete(3)
PATH3 = Topology.path(3)
STAR4 = Topology.star(4)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), topology=small_topology_strategy())
    def test_pack_unpack_identity(self, data, topology):
        num_rounds = data.draw(st.integers(min_value=1, max_value=3))
        run = data.draw(runs_for(topology, num_rounds))
        layout = layout_for(topology, num_rounds)
        packed = layout.pack(run)
        assert packed.unpack() == run
        # The same through the batch (words) representation.
        batch = RunBatch.from_runs(topology, num_rounds, [run])
        assert batch.to_runs() == [run]
        assert batch.bits(0) == packed.bits

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), topology=small_topology_strategy())
    def test_packed_structure_queries_match_run(self, data, topology):
        num_rounds = data.draw(st.integers(min_value=1, max_value=3))
        run = data.draw(runs_for(topology, num_rounds))
        layout = layout_for(topology, num_rounds)
        packed = layout.pack(run)
        assert packed.message_count() == len(run.messages)
        for process in topology.processes:
            assert packed.has_input(process) == (process in run.inputs)
        for message in all_message_tuples(topology, num_rounds):
            assert packed.delivers(
                message.source, message.target, message.round
            ) == (message in run.messages)

    def test_bit_layout_is_inputs_then_round_major_messages(self):
        layout = layout_for(K3, 2)
        m = layout.num_processes
        for process in K3.processes:
            assert layout.input_bit(process) == process - 1
        # Message bits follow all_message_tuples order exactly, offset
        # by the input block.
        for index, message in enumerate(all_message_tuples(K3, 2)):
            assert (
                layout.message_bit(
                    message.source, message.target, message.round
                )
                == m + index
            )

    def test_off_topology_runs_are_rejected(self):
        # K3's (1, 3) messages do not follow a path-3 edge.
        with pytest.raises(ValueError, match="does not follow an edge"):
            layout_for(PATH3, 2).pack(good_run(K3, 2))
        with pytest.raises(ValueError, match="is not a vertex"):
            layout_for(PAIR, 2).pack(good_run(K3, 2))
        with pytest.raises(ValueError, match="horizon"):
            layout_for(PAIR, 2).pack(good_run(PAIR, 3))


class TestEnumeration:
    @pytest.mark.parametrize(
        "topology, num_rounds",
        [(PAIR, 2), (PAIR, 3), (K3, 1), (PATH3, 1)],
    )
    def test_counts_match_run_space_size(self, topology, num_rounds):
        runs = list(enumerate_packed_runs(topology, num_rounds))
        assert len(runs) == run_space_size(
            topology, num_rounds, fixed_inputs=False
        )
        assert len(set(p.bits for p in runs)) == len(runs)
        fixed = frozenset(topology.processes)
        fixed_runs = list(
            enumerate_packed_runs(topology, num_rounds, fixed)
        )
        assert len(fixed_runs) == run_space_size(
            topology, num_rounds, fixed_inputs=True
        )
        assert all(p.unpack().inputs == fixed for p in fixed_runs)

    @pytest.mark.parametrize(
        "topology, num_rounds, inputs",
        [
            (PAIR, 3, None),
            (K3, 1, frozenset({1, 3})),
            # 62 + 2 = 64 bits: too wide for one word, packed lazily.
            (Topology(62, ((1, 2),)), 1, frozenset({1})),
        ],
    )
    def test_batches_follow_counter_order(self, topology, num_rounds, inputs):
        batches = list(packed_run_batches(topology, num_rounds, inputs, chunk=3))
        assert all(len(batch) == 3 for batch in batches[:-1])
        assert 1 <= len(batches[-1]) <= 3
        assert [
            batch.bits(i) for batch in batches for i in range(len(batch))
        ] == [
            packed.bits
            for packed in enumerate_packed_runs(topology, num_rounds, inputs)
        ]

    def test_unpacked_enumeration_delegates_to_packed_order(self):
        packed = enumerate_packed_runs(PAIR, 2)
        for run, packed_run in zip(enumerate_runs(PAIR, 2), packed):
            assert run == packed_run.unpack()

    def test_enumeration_is_lazy(self):
        # Both enumerators are generators: taking a prefix must not
        # materialize the (exponential) space or any input-set list.
        stream = enumerate_runs(K3, 3)
        assert iter(stream) is stream
        prefix = list(itertools.islice(stream, 4))
        assert len(prefix) == 4
        packed_stream = enumerate_packed_runs(K3, 3)
        assert iter(packed_stream) is packed_stream
        assert len(list(itertools.islice(packed_stream, 4))) == 4


def _brute_force_automorphisms(topology, fixing=()):
    vertices = sorted(topology.processes)
    fixed = set(fixing)
    found = []
    for images in itertools.permutations(vertices):
        mapping = dict(zip(vertices, images))
        if any(mapping[v] != v for v in fixed):
            continue
        if all(
            topology.has_edge(mapping[a], mapping[b]) == topology.has_edge(a, b)
            for a in vertices
            for b in vertices
            if a != b
        ):
            found.append(tuple(mapping[v] for v in vertices))
    return tuple(sorted(found))


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "topology",
        [
            PAIR,
            PATH3,
            K3,
            STAR4,
            Topology.path(4),
            Topology.ring(4),
            Topology.complete(4),
            Topology.path(5),
            Topology.ring(5),
            Topology.star(5),
            Topology.complete(5),
            Topology.random_connected(5, 0.4, random.Random(7)),
        ],
    )
    def test_matches_brute_force(self, topology):
        assert tuple(sorted(topology.automorphisms())) == (
            _brute_force_automorphisms(topology)
        )

    @pytest.mark.parametrize(
        "topology, fixing",
        [(K3, (1,)), (STAR4, (2,)), (Topology.ring(4), (1,)), (PAIR, (1, 2))],
    )
    def test_fixing_matches_brute_force(self, topology, fixing):
        assert tuple(sorted(topology.automorphisms(fixing=fixing))) == (
            _brute_force_automorphisms(topology, fixing)
        )

    def test_identity_always_present(self):
        for topology in (PAIR, PATH3, K3, STAR4):
            identity = tuple(sorted(topology.processes))
            assert identity in topology.automorphisms()


class TestOrbitReduction:
    @pytest.mark.parametrize(
        "topology, num_rounds, inputs",
        [
            (PAIR, 2, None),
            (PAIR, 3, None),
            (K3, 1, None),
            (K3, 2, frozenset({1, 2, 3})),
            (PATH3, 1, None),
            (STAR4, 1, None),
        ],
    )
    def test_partition_and_invariant_aggregates(
        self, topology, num_rounds, inputs
    ):
        layout = layout_for(topology, num_rounds)
        reps = list(
            enumerate_orbit_representatives(
                topology, num_rounds, inputs=inputs
            )
        )
        space = run_space_size(
            topology, num_rounds, fixed_inputs=inputs is not None
        )
        # Orbit sizes partition the space.
        assert sum(size for _, size in reps) == space
        assert len(reps) <= space
        tables = orbit_tables(topology, num_rounds, inputs=inputs)
        # Representatives are canonical (minimal in their orbit), so
        # re-canonicalizing is a no-op and no two reps share an orbit.
        seen = set()
        for packed, _ in reps:
            assert canonical_bits(packed.bits, tables) == packed.bits
            assert packed.bits not in seen
            seen.add(packed.bits)
        # Orbit-weighted aggregates of any automorphism-invariant
        # observable equal the unreduced sweep's: message count here.
        weighted = sum(
            size * packed.message_count() for packed, size in reps
        )
        full = sum(
            packed.message_count()
            for packed in enumerate_packed_runs(topology, num_rounds, inputs)
        )
        assert weighted == full

    def test_lazy_generator_matches_vectorized_reduce(self):
        layout, space = packed_run_space(K3, 1)
        tables = orbit_tables(K3, 1)
        mask, sizes = orbit_reduce(layout, space, tables)
        reduced = [
            (int(bits), int(size))
            for bits, size in zip(space[mask], sizes)
        ]
        lazy = [
            (packed.bits, size)
            for packed, size in enumerate_orbit_representatives(K3, 1)
        ]
        assert reduced == lazy

    def test_fixing_shrinks_the_group(self):
        # Fixing the star center's leaf-permutation freedom: fixing a
        # leaf leaves 3! / ... fewer automorphisms than the free group.
        free = len(orbit_tables(STAR4, 1)) + 1
        fixed = len(orbit_tables(STAR4, 1, fixing=(2,))) + 1
        assert free == 6 and fixed == 2

    def test_trivial_group_means_no_reduction(self):
        # path-3 with the center fixed has only the end-swap; fixing an
        # endpoint kills that too, leaving the identity alone.
        reps = list(enumerate_orbit_representatives(PATH3, 1, fixing=(1,)))
        assert all(size == 1 for _, size in reps)
        assert len(reps) == run_space_size(PATH3, 1, fixed_inputs=False)
