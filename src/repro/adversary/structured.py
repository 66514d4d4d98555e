"""Structured run families: tractable slices of the strong adversary.

The strong adversary's run set is exponential, but the runs that
actually maximize disagreement (or minimize liveness) for the paper's
protocols have simple shapes.  Each family below is a small, explicit
set of runs:

* **chain cuts** — the two-general alternating-chain runs of Section 3
  broken at every possible round: contains Protocol A's exact worst
  case (break at round ``rfire``);
* **round cuts** — deliver everything before a round, nothing from it
  on: realizes every value of the level measure on connected graphs;
* **partial round cuts** — like round cuts but the boundary round
  silences only messages *into* a chosen target set: leaves the
  blocked processes one count behind and contains Protocol S's exact
  worst case (``Pr[PA | R] = ε``);
* **single losses** — the good run minus one delivery: the liveness
  sensitivity family (the paper's ``L(A, R) = 0`` example lives here);
* **tree runs** — the Lemma A.6 spanning-tree runs and truncations,
  with ``ML(R) = 1``;
* **input variants** — silence with each single input, probing
  validity-adjacent disagreement.

Every generator is bit arithmetic on the pair's
:class:`~repro.core.packed.RunLayout`: a run is an input mask OR-ed
with round-prefix masks (every delivery of rounds ``1..k``), per-round
masks of the open links (a mask over link indices shifted into round
``r``) and single link×round bit positions, and it is yielded as the
integer the engine keys and evaluates.  No ``Run`` or ``MessageTuple``
is built; the order is that of the paper's tuple-set constructions in
:mod:`repro.core.run`, which the parity tests keep as the oracle.
:meth:`RunFamily.runs` is the unpacked view.

:func:`standard_families` bundles them; the search module maximizes
over the union, unpacks only the winner, and reports
``certification = "family"``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

from ..core.packed import RunLayout, layout_for
from ..core.run import Run
from ..core.topology import Topology
from ..core.types import Round


@dataclass(frozen=True)
class RunFamily:
    """A named, finite family of runs over a (topology, horizon) pair.

    ``generate`` yields the family's runs as bitmasks under the pair's
    layout, in family order.
    """

    name: str
    generate: Callable[[RunLayout], Iterator[int]]

    def runs(self, topology: Topology, num_rounds: Round) -> List[Run]:
        """The family as :class:`Run` objects, in family order."""
        layout = layout_for(topology, num_rounds)
        return [layout.unpack_bits(bits) for bits in self.generate(layout)]


def _input_variants(layout: RunLayout) -> List[int]:
    """All inputs, plus each single input — the patterns that matter.

    (Runs with no input never disagree in a validity-satisfying
    protocol, and symmetric larger subsets add nothing the search has
    found useful; the exhaustive tests confirm these variants suffice
    for the protocols in this repository.)
    """
    return [layout.input_mask_all] + [
        1 << bit for bit in range(layout.num_processes)
    ]


def _round_shift(layout: RunLayout, round_number: int) -> int:
    """The position of round ``round_number``'s first message bit."""
    return layout.num_processes + (round_number - 1) * layout.num_links


def _prefix(layout: RunLayout, rounds: int) -> int:
    """Every delivery of rounds ``1..rounds`` (none for ``rounds = 0``)."""
    return ((1 << rounds * layout.num_links) - 1) << layout.num_processes


def _in_rounds(layout: RunLayout, links: int, first: int, last: int) -> int:
    """The deliveries on ``links`` (a mask over link indices) in rounds
    ``first..last``."""
    mask = 0
    for round_number in range(first, last + 1):
        mask |= links << _round_shift(layout, round_number)
    return mask


def _links_where(
    layout: RunLayout, keep: Callable[[Tuple[int, int]], bool]
) -> int:
    """The mask over link indices of the directed links ``keep`` accepts."""
    return sum(1 << k for k, link in enumerate(layout.links) if keep(link))


def _full(layout: RunLayout) -> int:
    """The good run: every input, every delivery."""
    return layout.input_mask_all | _prefix(layout, layout.num_rounds)


def _chain_cut_runs(layout: RunLayout) -> Iterator[int]:
    if layout.num_processes != 2:
        return
    # chain_run delivers both directions of link 1-2 each round (on the
    # pair graph, every link); message_bit raises if there is no edge.
    chain = (
        (1 << layout.message_bit(1, 2, 1)) | (1 << layout.message_bit(2, 1, 1))
    ) >> layout.num_processes
    num_rounds = layout.num_rounds
    for inputs in _input_variants(layout):
        yield inputs | _in_rounds(layout, chain, 1, num_rounds)
        for break_round in range(1, num_rounds + 1):
            yield inputs | _in_rounds(layout, chain, 1, break_round - 1)


def _round_cut_runs(layout: RunLayout) -> Iterator[int]:
    for inputs in _input_variants(layout):
        for cut in range(1, layout.num_rounds + 2):
            yield inputs | _prefix(layout, cut - 1)


def _partial_round_cut_runs(layout: RunLayout) -> Iterator[int]:
    processes = list(layout.topology.processes)
    if layout.num_processes <= 4:
        blocked_sets: Sequence[Tuple[int, ...]] = [
            combo
            for size in range(1, layout.num_processes)
            for combo in itertools.combinations(processes, size)
        ]
    else:
        blocked_sets = [(i,) for i in processes] + [
            tuple(j for j in processes if j != i) for i in processes
        ]
    open_links = [
        _links_where(layout, lambda link: link[1] not in blocked)
        for blocked in blocked_sets
    ]
    for inputs in _input_variants(layout):
        for cut in range(1, layout.num_rounds + 1):
            before = inputs | _prefix(layout, cut - 1)
            shift = _round_shift(layout, cut)
            for links in open_links:
                yield before | (links << shift)


def _message_bits(layout: RunLayout) -> range:
    """Every message bit, ascending: ``all_message_tuples`` order."""
    return range(layout.num_processes, layout.num_bits)


def _single_loss_runs(layout: RunLayout) -> Iterator[int]:
    full = _full(layout)
    for bit in _message_bits(layout):
        yield full ^ (1 << bit)


def _tree_runs(layout: RunLayout) -> Iterator[int]:
    topology = layout.topology
    if not topology.is_connected():
        return
    root = 1
    parents = topology.spanning_tree(root)
    tree = _links_where(layout, lambda link: parents[link[1]] == link[0])
    signal = 1 << layout.input_bit(root)
    yield signal | _in_rounds(layout, tree, 1, layout.num_rounds)
    for cut in range(1, layout.num_rounds + 1):
        yield signal | _in_rounds(layout, tree, 1, cut)


def _single_input_silences(layout: RunLayout) -> Iterator[int]:
    for bit in range(layout.num_processes):
        yield 1 << bit


def _double_loss_runs(layout: RunLayout) -> Iterator[int]:
    """The 2-loss adversary: the good run minus every pair of tuples.

    Quadratic in the tuple count, so it is capped; beyond the cap only
    pairs sharing a round are generated (losses in the same round are
    what create count straddles).
    """
    full = _full(layout)
    if layout.num_message_bits <= 24:
        groups = [_message_bits(layout)]
    else:
        groups = [
            range(_round_shift(layout, r), _round_shift(layout, r + 1))
            for r in range(1, layout.num_rounds + 1)
        ]
    for group in groups:
        for first, second in itertools.combinations(group, 2):
            yield full ^ (1 << first) ^ (1 << second)


def _crash_link_runs(layout: RunLayout) -> Iterator[int]:
    """The crash-link adversary: one directed link dies permanently.

    For every directed link and every crash round, deliver the good run
    except that link's messages from the crash round on — the classic
    fail-stop channel model embedded in the paper's run formalism.
    """
    full = _full(layout)
    for k in range(layout.num_links):
        for crash_round in range(1, layout.num_rounds + 1):
            yield full ^ _in_rounds(layout, 1 << k, crash_round, layout.num_rounds)


CHAIN_CUTS = RunFamily("chain-cuts", _chain_cut_runs)
ROUND_CUTS = RunFamily("round-cuts", _round_cut_runs)
PARTIAL_ROUND_CUTS = RunFamily("partial-round-cuts", _partial_round_cut_runs)
SINGLE_LOSSES = RunFamily("single-losses", _single_loss_runs)
DOUBLE_LOSSES = RunFamily("double-losses", _double_loss_runs)
CRASH_LINKS = RunFamily("crash-links", _crash_link_runs)
TREE_RUNS = RunFamily("tree-runs", _tree_runs)
INPUT_SILENCES = RunFamily("input-silences", _single_input_silences)


def standard_families() -> List[RunFamily]:
    """The families the worst-run search sweeps by default."""
    return [
        CHAIN_CUTS,
        ROUND_CUTS,
        PARTIAL_ROUND_CUTS,
        SINGLE_LOSSES,
        DOUBLE_LOSSES,
        CRASH_LINKS,
        TREE_RUNS,
        INPUT_SILENCES,
    ]
