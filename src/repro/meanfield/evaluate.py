"""Engine-facing counter-abstraction evaluation.

Two entry points share the lumped kernels:

* :func:`evaluate_counter` — the **concrete** path.  Takes the same
  ``(protocol, topology, run)`` triple as the reference backend,
  compiles the run through the lumpability check, evaluates the lumped
  kernel, and expands per-class results back to per-process form.  The
  per-class final counts equal the reference per-process counts (the
  lumping is exact, see :mod:`repro.meanfield.kernel`), and S and W
  apply their counting spec's threshold map and the reference formula
  (:func:`~repro.protocols.counting.threshold_probabilities`) to them,
  so the returned
  :class:`~repro.core.probability.EventProbabilities` is **bit-for-bit
  identical** to the reference backend's.  This is what
  ``Engine(backend="meanfield")`` calls, and it is registered in
  ``CACHEABLE_QUALNAMES`` (RC005-checked purity).

* :func:`evaluate_spec` — the **parametric** path.  Takes a
  :class:`~repro.meanfield.counter.CounterRunSpec` (occupancies, no
  identities) and returns a :class:`CounterEvaluation` with aggregate
  and per-class probabilities plus the run's level measures.  Cost is
  ``O(rounds * classes**2)`` regardless of ``m``, which is what makes
  ``m = 10**6`` a sub-millisecond evaluation in E17 and
  ``repro scale-sweep``.

:func:`scaled_spec` builds the paper's deterministic run families
(good / silent / ``cut:r`` / ``isolate:r``) directly as specs, and
:func:`unsafety_family` sweeps the parametric worst-run family —
the scaled analogue of :func:`repro.adversary.search.family_search`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.probability import EventProbabilities
from ..core.protocol import Protocol
from ..core.run import Run
from ..core.topology import Topology
from ..core.types import Round
from ..protocols.counting import threshold_probabilities
from ..protocols.protocol_m import ProtocolM
from ..protocols.protocol_s import ProtocolS
from ..protocols.weak_adversary import ProtocolW
from .counter import (
    ClassSpec,
    CounterAbstractionError,
    CounterRunSpec,
    is_complete,
    spec_from_run,
)
from .kernel import (
    LumpedCountingState,
    awareness_kernel,
    counting_kernel,
    known_sizes,
)


@dataclass(frozen=True)
class CounterEvaluation:
    """Aggregate result of a parametric (scaled) counter evaluation.

    Per-process quantities collapse to per-class ones — a ``pr_attack``
    tuple with 10**6 entries would defeat the point — but the
    aggregate events are the paper's exact ``Pr[TA|R]`` / ``Pr[NA|R]``
    / ``Pr[PA|R]``.  ``level`` is ``L(R)`` (valid-gated counts,
    Lemma 6.4's analogue) and ``modified_level`` is ``ML(R)`` when the
    spec has a distinguished (coordinator) class, else ``None``.
    """

    num_processes: int
    num_rounds: Round
    pr_total_attack: float
    pr_no_attack: float
    pr_partial_attack: float
    class_sizes: Tuple[int, ...]
    pr_attack_by_class: Tuple[float, ...]
    level: int
    modified_level: Optional[int]
    method: str = "counter-exact"

    @property
    def unsafety(self) -> float:
        """``Pr[PA | R]`` — the per-run unsafety contribution."""
        return self.pr_partial_attack

    @property
    def liveness(self) -> float:
        """``Pr[TA | R]`` — the liveness of this run."""
        return self.pr_total_attack


def supports(protocol: Protocol, topology: Topology) -> bool:
    """Whether the counter backend can evaluate this pair exactly.

    Requires a complete graph, a protocol family with a lumped kernel
    (S, W, M — exact types, not subclasses: a subclass may override
    the dynamics), and a declared symmetry.  Run-level lumpability is
    checked per run by :func:`evaluate_counter`.
    """
    if not is_complete(topology):
        return False
    if type(protocol) not in (ProtocolS, ProtocolW, ProtocolM):
        return False
    return protocol.automorphism_invariant_vertices(topology) is not None


def evaluate_counter(
    protocol: Protocol, topology: Topology, run: Run
) -> EventProbabilities:
    """Exact concrete evaluation through the counter abstraction.

    Raises :class:`CounterAbstractionError` when the pair is not
    counter-sufficient and :class:`LumpabilityError` when the run is
    not class-uniform — the explicit contract of
    ``backend="meanfield"``.
    """
    if not is_complete(topology):
        raise CounterAbstractionError(
            "counter abstraction requires a complete graph; "
            f"{topology.describe()} is not K_{topology.num_processes} "
            "(use the reference or vectorized backend)"
        )
    distinguished = protocol.automorphism_invariant_vertices(topology)
    if distinguished is None:
        raise CounterAbstractionError(
            f"protocol {protocol.name!r} declares no symmetry "
            "(automorphism_invariant_vertices returned None), so the "
            "state-class partition is undefined"
        )
    partition, spec = spec_from_run(topology, run, distinguished)
    class_of = partition.index_map()
    if type(protocol) is ProtocolM:
        aware = awareness_kernel(spec)
        sizes = known_sizes(spec, aware)
        quorum = protocol.threshold(topology.num_processes)
        outputs = [
            sizes[class_of[i]] >= quorum for i in topology.processes
        ]
        return _deterministic_probabilities(outputs)
    if type(protocol) is ProtocolS or type(protocol) is ProtocolW:
        counting = protocol.counting_spec
        states = counting_kernel(
            spec,
            rfire_gated=counting.rfire_gated,
            rfire_class=(
                None
                if counting.coordinator is None
                else class_of[counting.coordinator]
            ),
        )
        class_thresholds = [
            counting.threshold(state.count, state.has_rfire)
            for state in states
        ]
        return threshold_probabilities(
            [class_thresholds[class_of[i]] for i in topology.processes],
            counting.law,
        )
    raise CounterAbstractionError(
        f"no lumped kernel for protocol {protocol.name!r}; the counter "
        "backend supports Protocols S, W and M"
    )


def _deterministic_probabilities(outputs: List[bool]) -> EventProbabilities:
    """The 0/1 event probabilities of a deterministic protocol —
    operation-for-operation Protocol M's reference closed form."""
    all_attack = all(outputs)
    none_attack = not any(outputs)
    return EventProbabilities(
        pr_total_attack=1.0 if all_attack else 0.0,
        pr_no_attack=1.0 if none_attack else 0.0,
        pr_partial_attack=1.0 if not (all_attack or none_attack) else 0.0,
        pr_attack=tuple(1.0 if decided else 0.0 for decided in outputs),
        method="closed-form",
    )


def evaluate_spec(
    protocol: Protocol, spec: CounterRunSpec
) -> CounterEvaluation:
    """Parametric evaluation: probabilities and levels from a spec.

    The level measures ride along for free: the valid-gated kernel's
    counts are ``L_i(R)`` and the rfire-gated kernel's counts are
    ``ML_i(R)`` (Lemma 6.4 and its analogue), so ``min`` over classes
    gives ``L(R)`` / ``ML(R)`` without any per-process work.
    """
    level_states = counting_kernel(spec, rfire_gated=False, rfire_class=None)
    level = min(state.count for state in level_states)
    rfire_class = spec.distinguished_class()
    modified_level: Optional[int] = None
    ml_states: Optional[Tuple[LumpedCountingState, ...]] = None
    if rfire_class is not None:
        ml_states = counting_kernel(
            spec, rfire_gated=True, rfire_class=rfire_class
        )
        modified_level = min(state.count for state in ml_states)
    class_sizes = tuple(cls.size for cls in spec.classes)
    if type(protocol) is ProtocolS or type(protocol) is ProtocolW:
        counting = protocol.counting_spec
        states = level_states
        if counting.rfire_gated:
            if ml_states is None:
                raise CounterAbstractionError(
                    "Protocol S needs a distinguished (coordinator) class in "
                    "the spec; build it with scaled_spec(distinguished=True)"
                )
            states = ml_states
        probabilities = threshold_probabilities(
            [
                counting.threshold(state.count, state.has_rfire)
                for state in states
            ],
            counting.law,
        )
        pr_ta = probabilities.pr_total_attack
        pr_na = probabilities.pr_no_attack
        pr_pa = probabilities.pr_partial_attack
        by_class = probabilities.pr_attack
    elif type(protocol) is ProtocolM:
        aware = awareness_kernel(spec)
        sizes = known_sizes(spec, aware)
        quorum = protocol.threshold(spec.num_processes)
        decided = [size >= quorum for size in sizes]
        pr_ta = 1.0 if all(decided) else 0.0
        pr_na = 1.0 if not any(decided) else 0.0
        pr_pa = 1.0 if not (all(decided) or not any(decided)) else 0.0
        by_class = tuple(1.0 if flag else 0.0 for flag in decided)
    else:
        raise CounterAbstractionError(
            f"no lumped kernel for protocol {protocol.name!r}; the "
            "counter backend supports Protocols S, W and M"
        )
    return CounterEvaluation(
        num_processes=spec.num_processes,
        num_rounds=spec.num_rounds,
        pr_total_attack=pr_ta,
        pr_no_attack=pr_na,
        pr_partial_attack=pr_pa,
        class_sizes=class_sizes,
        pr_attack_by_class=by_class,
        level=level,
        modified_level=modified_level,
    )


# ---------------------------------------------------------------------------
# Parametric run-spec builders
# ---------------------------------------------------------------------------

#: Run patterns :func:`scaled_spec` understands, mirroring the CLI run
#: mini-language where the family is class-uniform by construction.
SCALED_PATTERNS = ("good", "silent", "cut", "isolate")


def _full_mask(num_classes: int) -> int:
    return (1 << (num_classes * num_classes)) - 1


def _isolation_mask(num_classes: int, isolated: int) -> int:
    """Full delivery except any block touching ``isolated``."""
    mask = 0
    for a in range(num_classes):
        for b in range(num_classes):
            if a == isolated or b == isolated:
                continue
            mask |= 1 << (a * num_classes + b)
    return mask


def scaled_spec(
    num_processes: int,
    num_rounds: Round,
    pattern: str,
    distinguished: bool = False,
    distinguished_has_input: bool = True,
    input_count: Optional[int] = None,
) -> CounterRunSpec:
    """Build a class-uniform run spec for an ``m``-process complete graph.

    ``pattern`` is one of ``good`` (every message delivered),
    ``silent`` (none), ``cut:r`` (everything in rounds ``< r``, nothing
    after — :func:`repro.core.run.round_cut_run` semantics), or
    ``isolate:r`` (good, except the distinguished class exchanges no
    messages from round ``r`` on — the coordinator-isolation family
    that spreads the modified level).  ``input_count`` restricts the
    input signal to that many non-distinguished processes (default:
    all of them).
    """
    if num_processes < 2:
        raise ValueError(
            f"need at least 2 processes, got {num_processes}"
        )
    name, _, argument = pattern.partition(":")
    if name not in SCALED_PATTERNS:
        raise ValueError(
            f"unknown scaled run pattern {pattern!r}; expected one of "
            f"{', '.join(SCALED_PATTERNS)}"
        )
    if name in ("cut", "isolate"):
        if not argument:
            raise ValueError(f"pattern {name!r} needs a round: {name}:R")
        boundary = int(argument)
        if not 1 <= boundary <= num_rounds + 1:
            raise ValueError(
                f"{name} round must be in 1..{num_rounds + 1}, "
                f"got {boundary}"
            )
    else:
        boundary = 0
    if name == "isolate" and not distinguished:
        raise ValueError(
            "the isolate pattern needs a distinguished class to isolate"
        )
    classes: List[ClassSpec] = []
    if distinguished:
        classes.append(
            ClassSpec(
                size=1, has_input=distinguished_has_input, distinguished=True
            )
        )
    rest = num_processes - (1 if distinguished else 0)
    if input_count is None:
        input_count = rest
    if not 0 <= input_count <= rest:
        raise ValueError(
            f"input_count must be in 0..{rest}, got {input_count}"
        )
    if input_count > 0:
        classes.append(ClassSpec(size=input_count, has_input=True))
    if rest - input_count > 0:
        classes.append(ClassSpec(size=rest - input_count, has_input=False))
    k = len(classes)
    full = _full_mask(k)
    masks: List[int] = []
    for round_number in range(1, num_rounds + 1):
        if name == "good":
            masks.append(full)
        elif name == "silent":
            masks.append(0)
        elif name == "cut":
            masks.append(full if round_number < boundary else 0)
        else:  # isolate
            masks.append(
                full
                if round_number < boundary
                else _isolation_mask(k, isolated=0)
            )
    return CounterRunSpec(
        num_rounds=num_rounds, classes=tuple(classes), deliveries=tuple(masks)
    )


def unsafety_family(
    protocol: Protocol,
    num_processes: int,
    num_rounds: Round,
    engine: Optional[object] = None,
) -> Tuple[float, CounterRunSpec]:
    """Max ``Pr[PA|R]`` over the parametric worst-run family.

    The scaled analogue of the family search: sweeps the cut and
    isolation families crossed with input-restriction variants — the
    shapes that realize the worst case for the counting protocols
    (straddling levels) — and returns the best value with its witness
    spec.  Certification is ``family``: a lower bound on ``U_s`` that
    is tight for Protocol S (the straddling cut reaches ``ε``-scale
    partial attack) and exactly 1 for Protocol M (a cut straddles the
    quorum).  For Protocol W the bound is vacuously 0: its count
    advances only on hearing from *every* process, so any class-uniform
    run keeps counts globally uniform and can never straddle the
    threshold — W's ``U_s = 1`` witnesses are inherently asymmetric
    (miss-one-message runs) and live in the small-``m`` exhaustive
    search, not in this family.  Pass an
    :class:`~repro.engine.engine.Engine` to memoize the per-spec
    evaluations (and count them in the engine's stats); the sweep is
    pure either way.
    """
    evaluator: Callable[[Protocol, CounterRunSpec], CounterEvaluation]
    if engine is None:
        evaluator = evaluate_spec
    else:
        evaluator = engine.evaluate_scaled  # type: ignore[attr-defined]
    needs_coordinator = type(protocol) is ProtocolS
    rest = num_processes - (1 if needs_coordinator else 0)
    input_variants = sorted({rest, rest // 2, 1, 0})
    patterns: List[str] = ["good", "silent"]
    for boundary in range(1, num_rounds + 2):
        patterns.append(f"cut:{boundary}")
        if needs_coordinator:
            patterns.append(f"isolate:{boundary}")
    best_value = 0.0
    best_spec: Optional[CounterRunSpec] = None
    for pattern in patterns:
        for input_count in input_variants:
            if input_count < 0 or input_count > rest:
                continue
            for coordinator_input in (
                (True, False) if needs_coordinator else (True,)
            ):
                if (
                    not needs_coordinator
                    and input_count == 0
                ):
                    # No input anywhere: validity makes PA impossible.
                    continue
                try:
                    spec = scaled_spec(
                        num_processes,
                        num_rounds,
                        pattern,
                        distinguished=needs_coordinator,
                        distinguished_has_input=coordinator_input,
                        input_count=input_count,
                    )
                except ValueError:
                    continue
                result = evaluator(protocol, spec)
                if best_spec is None or result.unsafety > best_value:
                    best_value = result.unsafety
                    best_spec = spec
    assert best_spec is not None
    return best_value, best_spec
