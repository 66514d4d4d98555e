"""Packed runs: one integer bitmask per run, numpy batches, orbits.

The worst-run searches quantify over ``2^(2|E|N + m)`` runs.  As
Python objects (a :class:`~repro.core.run.Run` holds two frozensets of
tuples) those runs cost hundreds of bytes each and every layer that
touches them pays per-tuple Python overhead.  This module fixes the
representation: a run over a given ``(topology, num_rounds)`` pair is
**one integer** under a topology-derived bit layout, and a batch of
runs is a numpy ``uint64`` array.

Bit layout (:class:`RunLayout`)
-------------------------------

For a topology with ``m`` processes and ``L`` directed links over an
``N``-round horizon, a run occupies ``m + L*N`` bits:

* bit ``i - 1``            — process ``i`` receives the input signal
  (``(v0, i, 0) ∈ I(R)``);
* bit ``m + (r-1)*L + k``  — the round-``r`` message on directed link
  ``k`` is delivered, where ``k`` indexes
  :meth:`Topology.directed_links` order (the same order the
  vectorized kernel's delivery tensor uses).

The conversion ``Run ↔ PackedRun`` is lossless and the layout is
cached per ``(topology, num_rounds)`` pair, so packing is one pass
over the run's tuples and unpacking is one pass over the set bits.

Enumeration is a counter increment: the whole run space for a fixed
input set is ``range(2**(L*N))`` shifted past the input bits — no
``itertools.combinations`` subset materialization, no frozensets.

Symmetry reduction
------------------

A graph automorphism ``π`` acts on runs by relabeling processes:
input bit ``i-1`` maps to ``π(i)-1`` and message bit ``(i, j, r)``
maps to ``(π(i), π(j), r)``.  Because the action permutes bits, each
automorphism is a bit-permutation table and the **canonical form** of
a run is the minimum of its images.  :func:`orbit_reduce` keeps one
representative per orbit together with the orbit size, so exact
aggregates over the full space can be recovered by multiplying each
representative's contribution by its orbit size, and exact maxima are
unchanged whenever the objective is automorphism-invariant (the
caller picks the subgroup via ``Topology.automorphisms(fixing=...)``
to respect distinguished vertices such as Protocol S's coordinator).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .run import Run
from .topology import Topology
from .types import MessageTuple, ProcessId, Round

#: ``orbit_reduce`` vectorizes over single-word masks; layouts wider
#: than this fall back to the pure-python orbit scan.
MAX_VECTOR_ORBIT_BITS = 63


class OrbitReductionUnsupported(ValueError):
    """A layout is too wide for the vectorized orbit machinery.

    :func:`packed_run_space` and :func:`orbit_reduce` operate on
    single-uint64 packed runs and refuse layouts wider than
    :data:`MAX_VECTOR_ORBIT_BITS` bits with this exception (a
    ``ValueError`` subclass, so legacy ``except ValueError`` handlers
    keep working).  Callers that can tolerate streaming should catch
    it and fall back to :func:`enumerate_orbit_representatives`, the
    lazy pure-python path, which has no width limit.
    """


@dataclass(frozen=True)
class RunLayout:
    """The bit layout for runs over one ``(topology, num_rounds)`` pair.

    Identity (equality/hash) is the pair itself; the derived index
    tables are computed once in ``__post_init__`` and excluded from
    comparison, mirroring :class:`~repro.core.topology.Topology`'s
    adjacency cache.
    """

    topology: Topology
    num_rounds: Round
    links: Tuple[Tuple[ProcessId, ProcessId], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _link_index: Dict[Tuple[ProcessId, ProcessId], int] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {self.num_rounds}")
        links = tuple(self.topology.directed_links())
        object.__setattr__(self, "links", links)
        object.__setattr__(
            self, "_link_index", {link: k for k, link in enumerate(links)}
        )

    # -- geometry ------------------------------------------------------

    @property
    def num_processes(self) -> int:
        return self.topology.num_processes

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def num_message_bits(self) -> int:
        return self.num_links * self.num_rounds

    @property
    def num_bits(self) -> int:
        return self.num_processes + self.num_message_bits

    @property
    def input_mask_all(self) -> int:
        """The input-bit mask with every process signaled."""
        return (1 << self.num_processes) - 1

    def input_bit(self, process: ProcessId) -> int:
        if not 1 <= process <= self.num_processes:
            raise ValueError(f"input process {process} is not a vertex")
        return process - 1

    def message_bit(
        self, source: ProcessId, target: ProcessId, round_number: Round
    ) -> int:
        if not 1 <= round_number <= self.num_rounds:
            raise ValueError(
                f"message round must be in 1..{self.num_rounds}, "
                f"got {round_number}"
            )
        try:
            k = self._link_index[(source, target)]
        except KeyError:
            raise ValueError(
                f"message ({source}, {target}) does not follow an edge"
            ) from None
        return self.num_processes + (round_number - 1) * self.num_links + k

    def message_bit_tuple(self, bit: int) -> MessageTuple:
        """The ``(source, target, round)`` tuple a message bit encodes."""
        offset = bit - self.num_processes
        if not 0 <= offset < self.num_message_bits:
            raise ValueError(f"bit {bit} is not a message bit")
        round_number = offset // self.num_links + 1
        source, target = self.links[offset % self.num_links]
        return MessageTuple(source, target, round_number)

    def input_mask(self, inputs: Iterable[ProcessId]) -> int:
        mask = 0
        for process in inputs:
            mask |= 1 << self.input_bit(process)
        return mask

    # -- conversion ----------------------------------------------------

    def pack_bits(self, run: Run) -> int:
        """The bitmask of ``run`` (raises if it does not fit the layout)."""
        if run.num_rounds != self.num_rounds:
            raise ValueError(
                f"run horizon {run.num_rounds} != layout horizon "
                f"{self.num_rounds}"
            )
        bits = self.input_mask(run.inputs)
        base = self.num_processes
        num_links = self.num_links
        link_index = self._link_index
        for message in run.messages:
            try:
                k = link_index[(message.source, message.target)]
            except KeyError:
                raise ValueError(
                    f"message {message} does not follow an edge"
                ) from None
            bits |= 1 << (base + (message.round - 1) * num_links + k)
        return bits

    def pack(self, run: Run) -> "PackedRun":
        return PackedRun(self, self.pack_bits(run))

    def unpack_bits(self, bits: int) -> Run:
        """The :class:`Run` a bitmask encodes (lossless inverse)."""
        if bits < 0 or bits >> self.num_bits:
            raise ValueError(
                f"bitmask {bits} does not fit a {self.num_bits}-bit layout"
            )
        inputs = []
        messages = []
        remaining = bits
        while remaining:
            low = remaining & -remaining
            bit = low.bit_length() - 1
            if bit < self.num_processes:
                inputs.append(bit + 1)
            else:
                messages.append(self.message_bit_tuple(bit))
            remaining ^= low
        return Run(
            self.num_rounds, frozenset(inputs), frozenset(messages)
        )

    # -- batches -------------------------------------------------------

    @property
    def num_words(self) -> int:
        """uint64 words per run in a :class:`RunBatch`."""
        return max(1, (self.num_bits + 63) // 64)

    def bits_to_words(self, bits: int) -> Tuple[int, ...]:
        mask = (1 << 64) - 1
        return tuple(
            (bits >> (64 * w)) & mask for w in range(self.num_words)
        )

    def words_to_bits(self, words: Sequence[int]) -> int:
        bits = 0
        for w, word in enumerate(words):
            bits |= int(word) << (64 * w)
        return bits


@lru_cache(maxsize=256)
def layout_for(topology: Topology, num_rounds: Round) -> RunLayout:
    """The (cached) layout for one ``(topology, num_rounds)`` pair."""
    return RunLayout(topology, num_rounds)


@dataclass(frozen=True)
class PackedRun:
    """One run as a bitmask under a :class:`RunLayout`.

    Hashable and tiny: the engine keys its memo cache on
    ``(..., num_rounds, bits, ...)`` so equal runs collide regardless
    of which representation produced them.
    """

    layout: RunLayout
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.layout.num_bits:
            raise ValueError(
                f"bitmask {self.bits} does not fit a "
                f"{self.layout.num_bits}-bit layout"
            )

    @classmethod
    def from_run(cls, topology: Topology, run: Run) -> "PackedRun":
        return layout_for(topology, run.num_rounds).pack(run)

    @property
    def num_rounds(self) -> Round:
        return self.layout.num_rounds

    def unpack(self) -> Run:
        return self.layout.unpack_bits(self.bits)

    def has_input(self, process: ProcessId) -> bool:
        return bool(self.bits >> self.layout.input_bit(process) & 1)

    def delivers(
        self, source: ProcessId, target: ProcessId, round_number: Round
    ) -> bool:
        return bool(
            self.bits >> self.layout.message_bit(source, target, round_number)
            & 1
        )

    def message_count(self) -> int:
        """``|M(R)|`` — a popcount over the message bits."""
        return (self.bits >> self.layout.num_processes).bit_count()

    def with_bit_flipped(self, bit: int) -> "PackedRun":
        """The single-bit neighbor differing at ``bit``."""
        if not 0 <= bit < self.layout.num_bits:
            raise ValueError(f"bit {bit} outside the layout")
        return PackedRun(self.layout, self.bits ^ (1 << bit))

    def describe(self) -> str:
        return (
            f"PackedRun(N={self.num_rounds}, bits=0x{self.bits:x}, "
            f"|M|={self.message_count()})"
        )


class RunBatch:
    """A batch of packed runs as a numpy ``(n, num_words)`` uint64 array.

    The array is the canonical wire form between enumeration and the
    vectorized kernel: tensors are derived by bit extraction, with no
    per-run Python loop.  The words array is frozen (numpy
    ``writeable=False``) because batches key the engine's memo cache.
    """

    __slots__ = ("layout", "words")

    def __init__(self, layout: RunLayout, words: np.ndarray) -> None:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != layout.num_words:
            raise ValueError(
                f"words must have shape (n, {layout.num_words}), "
                f"got {words.shape}"
            )
        words.setflags(write=False)
        self.layout = layout
        self.words = words

    # -- constructors --------------------------------------------------

    @classmethod
    def from_bits(
        cls, layout: RunLayout, bits: Iterable[int]
    ) -> "RunBatch":
        rows = [layout.bits_to_words(b) for b in bits]
        words = np.array(rows, dtype=np.uint64).reshape(
            len(rows), layout.num_words
        )
        return cls(layout, words)

    @classmethod
    def from_packed(cls, runs: Sequence[PackedRun]) -> "RunBatch":
        if not runs:
            raise ValueError("cannot build a RunBatch from no runs")
        layout = runs[0].layout
        for run in runs:
            if run.layout != layout:
                raise ValueError("all runs in a batch share one layout")
        return cls.from_bits(layout, (run.bits for run in runs))

    @classmethod
    def from_runs(
        cls, topology: Topology, num_rounds: Round, runs: Sequence[Run]
    ) -> "RunBatch":
        layout = layout_for(topology, num_rounds)
        return cls.from_bits(
            layout, (layout.pack_bits(run) for run in runs)
        )

    # -- views ---------------------------------------------------------

    def __len__(self) -> int:
        return int(self.words.shape[0])

    def bits(self, index: int) -> int:
        return self.layout.words_to_bits(self.words[index])

    def packed(self, index: int) -> PackedRun:
        return PackedRun(self.layout, self.bits(index))

    def unpack(self, index: int) -> Run:
        return self.layout.unpack_bits(self.bits(index))

    def to_runs(self) -> List[Run]:
        return [self.unpack(i) for i in range(len(self))]

    def tensors(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(delivered, inputs)`` boolean tensors for the kernel.

        ``delivered`` has shape ``(n, num_rounds, num_links)`` in
        :meth:`Topology.directed_links` order; ``inputs`` has shape
        ``(n, num_processes)`` — the exact shapes
        :func:`repro.engine.vectorized.simulate_counting_batch`
        consumes.  Pure bit extraction: one shift/mask per bit column
        over the whole batch.
        """
        layout = self.layout
        positions = np.arange(layout.num_bits, dtype=np.uint64)
        word_index = (positions >> np.uint64(6)).astype(np.intp)
        shifts = positions & np.uint64(63)
        all_bits = (
            (self.words[:, word_index] >> shifts) & np.uint64(1)
        ).astype(bool)
        m = layout.num_processes
        inputs = all_bits[:, :m]
        delivered = all_bits[:, m:].reshape(
            len(self), layout.num_rounds, layout.num_links
        )
        return delivered, inputs


# ----------------------------------------------------------------------
# Packed-native enumeration: counter increment over bitmasks.
# ----------------------------------------------------------------------


def enumerate_packed_runs(
    topology: Topology,
    num_rounds: Round,
    inputs: Optional[Iterable[ProcessId]] = None,
) -> Iterator[PackedRun]:
    """Exhaustively enumerate packed runs (optionally fixing inputs).

    Fully lazy: each run is one integer, produced by incrementing a
    counter over the message bits — the ``2^(L*N)`` message subsets per
    input set are never materialized as collections.
    """
    layout = layout_for(topology, num_rounds)
    m = layout.num_processes
    message_space = 1 << layout.num_message_bits
    if inputs is None:
        input_masks: Iterable[int] = range(1 << m)
    else:
        input_masks = (layout.input_mask(inputs),)
    for input_mask in input_masks:
        for message_counter in range(message_space):
            yield PackedRun(layout, (message_counter << m) | input_mask)


def packed_run_space(
    topology: Topology,
    num_rounds: Round,
    inputs: Optional[Iterable[ProcessId]] = None,
) -> Tuple[RunLayout, np.ndarray]:
    """The whole run space as a single uint64 array (small layouts).

    Same order as :func:`enumerate_packed_runs`, with no per-run Python
    object: :func:`packed_run_batches` slices it into kernel batches.
    Layouts wider than :data:`MAX_VECTOR_ORBIT_BITS` are refused (the
    exhaustive search guards on the space size long before this limit
    binds).
    """
    layout = layout_for(topology, num_rounds)
    if layout.num_bits > MAX_VECTOR_ORBIT_BITS:
        raise OrbitReductionUnsupported(
            f"run space of {layout.num_bits} bits exceeds the "
            f"single-word limit of {MAX_VECTOR_ORBIT_BITS}; stream "
            "enumerate_orbit_representatives instead"
        )
    m = layout.num_processes
    message_space = 1 << layout.num_message_bits
    counters = np.arange(message_space, dtype=np.uint64) << np.uint64(m)
    if inputs is None:
        masks = np.arange(1 << m, dtype=np.uint64)
        space = (
            counters[None, :] | masks[:, None]
        ).reshape(-1)
    else:
        space = counters | np.uint64(layout.input_mask(inputs))
    return layout, space


def packed_run_batches(
    topology: Topology,
    num_rounds: Round,
    inputs: Optional[Iterable[ProcessId]] = None,
    chunk: int = 4_096,
) -> Iterator[RunBatch]:
    """The run space in counter order, as kernel batches of ``chunk`` runs.

    Layouts of at most :data:`MAX_VECTOR_ORBIT_BITS` bits slice one
    :func:`packed_run_space` array; wider layouts pack the lazy
    :func:`enumerate_packed_runs` stream one chunk at a time.  Every
    batch but the last holds ``chunk`` runs.
    """
    layout = layout_for(topology, num_rounds)
    if layout.num_bits <= MAX_VECTOR_ORBIT_BITS:
        space = packed_run_space(topology, num_rounds, inputs)[1]
        for start in range(0, len(space), chunk):
            yield RunBatch(layout, space[start : start + chunk, None])
        return
    stream = enumerate_packed_runs(topology, num_rounds, inputs)
    while runs := list(itertools.islice(stream, chunk)):
        yield RunBatch.from_bits(layout, (packed.bits for packed in runs))


def random_bits(
    layout: RunLayout,
    rng: random.Random,
    delivery_probability: float = 0.5,
    input_probability: float = 0.5,
) -> int:
    """A random run's bitmask: one ``rng.random()`` per bit, in bit order.

    An input bit is set when its draw is below ``input_probability``,
    a message bit when its draw is below ``delivery_probability``.  Bit
    order is process order, then :func:`~repro.core.run.all_message_tuples`
    order, so :func:`~repro.core.run.random_run` is exactly the
    unpacked view of this draw, rng state included.
    """
    draw = rng.random
    m = layout.num_processes
    bits = 0
    for bit in range(m):
        if draw() < input_probability:
            bits |= 1 << bit
    for bit in range(m, layout.num_bits):
        if draw() < delivery_probability:
            bits |= 1 << bit
    return bits


# ----------------------------------------------------------------------
# Automorphism action and orbit reduction.
# ----------------------------------------------------------------------


def bit_permutation(
    layout: RunLayout, perm: Sequence[ProcessId]
) -> Tuple[int, ...]:
    """The bit-permutation table of one automorphism.

    ``perm[i-1]`` is the image of process ``i``; the returned table
    maps bit position ``b`` to the image position ``table[b]``.
    Raises ``ValueError`` if ``perm`` is not an automorphism of the
    layout's topology (an edge would map off the graph).
    """
    m = layout.num_processes
    if len(perm) != m or sorted(perm) != list(range(1, m + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{m}")
    table = [0] * layout.num_bits
    for process in range(1, m + 1):
        table[process - 1] = perm[process - 1] - 1
    for k, (source, target) in enumerate(layout.links):
        image = (perm[source - 1], perm[target - 1])
        try:
            image_k = layout._link_index[image]
        except KeyError:
            raise ValueError(
                f"permutation {perm!r} maps link ({source}, {target}) "
                f"to non-edge {image}"
            ) from None
        for round_number in range(1, layout.num_rounds + 1):
            base = m + (round_number - 1) * layout.num_links
            table[base + k] = base + image_k
    return tuple(table)


def permute_bits(bits: int, table: Sequence[int]) -> int:
    """Apply a bit-permutation table to one bitmask."""
    image = 0
    remaining = bits
    while remaining:
        low = remaining & -remaining
        image |= 1 << table[low.bit_length() - 1]
        remaining ^= low
    return image


def bit_permutations(
    layout: RunLayout, perms: Sequence[Sequence[ProcessId]]
) -> List[Tuple[int, ...]]:
    """Bit-permutation tables for a set of automorphisms."""
    return [bit_permutation(layout, perm) for perm in perms]


def canonical_bits(
    bits: int, tables: Sequence[Sequence[int]]
) -> int:
    """The orbit's canonical (minimum-image) form of one bitmask."""
    best = bits
    for table in tables:
        image = permute_bits(bits, table)
        if image < best:
            best = image
    return best


def orbit_size(bits: int, tables: Sequence[Sequence[int]]) -> int:
    """The number of distinct images of ``bits`` under the group."""
    return len({permute_bits(bits, table) for table in tables})


def _vector_images(
    space: np.ndarray, table: Sequence[int]
) -> np.ndarray:
    """Permute the bits of every mask in ``space`` (single-word)."""
    images = np.zeros_like(space)
    one = np.uint64(1)
    for bit, target in enumerate(table):
        images |= ((space >> np.uint64(bit)) & one) << np.uint64(target)
    return images


def orbit_reduce(
    layout: RunLayout,
    space: np.ndarray,
    tables: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Select orbit representatives from a vector of packed runs.

    Returns ``(mask, sizes)``: ``mask[i]`` is True iff ``space[i]`` is
    its orbit's canonical representative (the minimum image), and
    ``sizes`` holds, **for the representatives only** (in ``space``
    order), the orbit size — the number of distinct runs the
    representative stands for.  Exact aggregates over ``space`` are
    recovered by weighting each representative by its orbit size;
    exact maxima need no weights at all.

    The identity permutation need not be in ``tables`` explicitly; the
    run itself always participates in the minimum.
    """
    if layout.num_bits > MAX_VECTOR_ORBIT_BITS:
        raise OrbitReductionUnsupported(
            f"orbit_reduce vectorizes single-word layouts only "
            f"(num_bits={layout.num_bits} > {MAX_VECTOR_ORBIT_BITS}); "
            "stream enumerate_orbit_representatives instead"
        )
    images = np.empty((len(tables) + 1, space.shape[0]), dtype=np.uint64)
    images[0] = space
    for row, table in enumerate(tables, start=1):
        images[row] = _vector_images(space, table)
    canonical = images.min(axis=0)
    mask = canonical == space
    # Orbit size = count of distinct images per column, restricted to
    # representatives: sort images per column and count transitions.
    rep_images = np.sort(images[:, mask], axis=0)
    distinct = np.ones(rep_images.shape[1], dtype=np.int64)
    if rep_images.shape[0] > 1:
        distinct += (rep_images[1:] != rep_images[:-1]).sum(axis=0)
    return mask, distinct


def orbit_representatives(
    layout: RunLayout,
    slices: Iterable[np.ndarray],
    tables: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(representatives, sizes)`` of a space given as uint64 slices.

    The array counterpart of :func:`enumerate_orbit_representatives`,
    in slice order: :func:`orbit_reduce` runs over one slice at a
    time, so its ``(|G| + 1) × slice`` image array stays bounded
    however large the space is.
    """
    representatives = [np.zeros(0, dtype=np.uint64)]
    sizes = [np.zeros(0, dtype=np.int64)]
    for block in slices:
        mask, block_sizes = orbit_reduce(layout, block, tables)
        representatives.append(block[mask])
        sizes.append(block_sizes)
    return np.concatenate(representatives), np.concatenate(sizes)


def orbit_tables(
    topology: Topology,
    num_rounds: Round,
    fixing: Sequence[ProcessId] = (),
    inputs: Optional[Iterable[ProcessId]] = None,
) -> List[Tuple[int, ...]]:
    """The non-identity bit-permutation tables acting on a run space.

    The group is ``topology.automorphisms(fixing=fixing)``; when
    ``inputs`` is fixed, automorphisms that move the input set are
    discarded (their images leave the fixed-input slice of the space,
    so they do not act on it).  The identity is dropped — the orbit
    scans always include the run itself.
    """
    layout = layout_for(topology, num_rounds)
    perms = topology.automorphisms(fixing=tuple(fixing))
    tables = bit_permutations(layout, perms)
    if inputs is not None:
        input_mask = layout.input_mask(inputs)
        tables = [
            table
            for table in tables
            if permute_bits(input_mask, table) == input_mask
        ]
    identity = tuple(range(layout.num_bits))
    return [table for table in tables if tuple(table) != identity]


def enumerate_orbit_representatives(
    topology: Topology,
    num_rounds: Round,
    fixing: Sequence[ProcessId] = (),
    inputs: Optional[Iterable[ProcessId]] = None,
) -> Iterator[Tuple[PackedRun, int]]:
    """Lazily yield ``(representative, orbit_size)`` pairs.

    The group is filtered by :func:`orbit_tables`.  Covers exactly the
    runs :func:`enumerate_packed_runs` yields: orbit sizes over the
    representatives sum to the space size.
    """
    tables = orbit_tables(topology, num_rounds, fixing, inputs)
    for packed in enumerate_packed_runs(topology, num_rounds, inputs):
        if not tables:
            yield packed, 1
            continue
        images = {packed.bits}
        is_rep = True
        for table in tables:
            image = permute_bits(packed.bits, table)
            if image < packed.bits:
                is_rep = False
                break
            images.add(image)
        if is_rep:
            yield packed, len(images)


__all__ = [
    "MAX_VECTOR_ORBIT_BITS",
    "OrbitReductionUnsupported",
    "PackedRun",
    "RunBatch",
    "RunLayout",
    "bit_permutation",
    "bit_permutations",
    "canonical_bits",
    "enumerate_orbit_representatives",
    "enumerate_packed_runs",
    "layout_for",
    "orbit_reduce",
    "orbit_representatives",
    "orbit_size",
    "orbit_tables",
    "packed_run_batches",
    "packed_run_space",
    "permute_bits",
    "random_bits",
]
