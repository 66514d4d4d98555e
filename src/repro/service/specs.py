"""Request/response schemas for the evaluation endpoints.

``POST /v1/evaluate`` accepts the same specification mini-language the
CLI uses (``--protocol`` / ``--topology`` / ``--run``), by calling the
CLI's own parsers — so a served evaluation and a ``repro simulate``
invocation are the same computation by construction, and the parity
test only has to pin that they stay that way.

The response reports the paper's two measures for the run — unsafety
``Pr[PA | R]`` and liveness ``L(F, R) = Pr[TA | R]`` — alongside the
information levels ``L(R)`` / ``ML(R)`` of the run, and, for
Protocol S, the Theorem 6.8 liveness floor ``min(1, eps * ML(R))``
those theorems relate the measures to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Union

from ..core.measures import level_profile, modified_level_profile
from ..core.probability import (
    DEFAULT_ENUMERATION_LIMIT,
    DEFAULT_TRIALS,
    EventProbabilities,
)
from ..core.protocol import ClosedFormProtocol, Protocol
from ..core.run import Run
from ..core.topology import Topology
from ..engine.vectorized import MAX_VECTORIZED_PROCESSES
from ..meanfield.counter import CounterRunSpec
from ..meanfield.evaluate import CounterEvaluation, scaled_spec
from ..protocols.protocol_m import ProtocolM
from ..protocols.protocol_s import ProtocolS
from ..protocols.weak_adversary import ProtocolW

METHODS = ("auto", "closed-form", "enumeration", "monte-carlo")

#: Per-request backends the wire accepts.  ``auto`` defers to the
#: server's configured backend; ``meanfield`` selects the scaled
#: counter-abstraction path (the only way to ask for ``m = 10**6`` —
#: the concrete paths would have to materialize the graph).
#: ``reference``/``vectorized`` are deliberately not per-request
#: choices: they are bit-identical, so picking between them is a
#: server deployment decision (``repro serve --backend``).
REQUEST_BACKENDS = ("auto", "meanfield")

#: Bounds of a concrete request, checked before anything is built: no
#: deadline stops the parse thread, and ``complete:100000`` alone is
#: ~5 * 10**9 edge tuples.  Every request in the repository fits.
MAX_CONCRETE_PROCESSES = MAX_VECTORIZED_PROCESSES
MAX_CONCRETE_ROUNDS = 64

#: The rounds bound of a ``backend: meanfield`` request.  The counter
#: kernel costs time linear in rounds and nothing stops it once it
#: starts: this bound keeps one request under about 0.1 s of engine
#: time (DESIGN.md §10).  ``repro scale-sweep`` has no such bound.
MAX_MEANFIELD_ROUNDS = 4_096

#: The ``trials`` bound: no deadline stops a Monte Carlo worker.  It
#: caps the fixed per-trial overhead on tiny shapes;
#: :data:`MAX_MONTE_CARLO_WORK` caps what the trials cost together.
MAX_TRIALS = 20_000

#: The bound on a served Monte Carlo request's work, counted as trials
#: x directed links x rounds.  A trial costs about 0.004-0.012 ms per
#: directed link and round (DESIGN.md §10), so an accepted request holds
#: a worker for under a minute.  The value is ``grid:3x3`` at 10 rounds
#: and :data:`MAX_TRIALS` trials.
MAX_MONTE_CARLO_WORK = 4_800_000

#: How many parsed topologies :func:`_topology` keeps.
TOPOLOGY_CACHE_SIZE = 32


class RequestError(ValueError):
    """A malformed evaluation request (answered with HTTP 400)."""


@dataclass(frozen=True)
class EvaluateRequest:
    """One validated evaluation request, parsed objects included.

    ``payload`` keeps the normalized wire form so the request can be
    shipped to a worker process (plain dict, picklable) and re-parsed
    there; the parsed objects serve the in-process paths.
    """

    protocol_spec: str
    topology_spec: str
    run_spec: str
    rounds: int
    method: str
    trials: int
    seed: int
    protocol: Protocol
    topology: Topology
    run: Run

    @property
    def payload(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol_spec,
            "topology": self.topology_spec,
            "run": self.run_spec,
            "rounds": self.rounds,
            "method": self.method,
            "trials": self.trials,
            "seed": self.seed,
        }

    def resolves_exact(
        self, enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT
    ) -> bool:
        """Whether evaluation lands on an exact (cacheable) backend.

        Mirrors :func:`repro.core.probability.evaluate`'s method
        resolution: exact results may be coalesced and cached, Monte
        Carlo estimates must go to the worker tier with their own
        labeled rng stream.
        """
        if self.method == "monte-carlo":
            return False
        if self.method in ("closed-form", "enumeration"):
            return True
        if isinstance(self.protocol, ClosedFormProtocol):
            return True
        size = self.protocol.tape_space(self.topology).joint_support_size()
        return size is not None and size <= enumeration_limit


def check_monte_carlo_work(
    request: EvaluateRequest,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> None:
    """Refuse a Monte Carlo request above :data:`MAX_MONTE_CARLO_WORK`.

    Only a request that will run Monte Carlo is checked: an exact one
    passes whatever its ``trials``.  The server calls this before the
    request reaches the worker tier, whose deadline cannot stop a
    running estimate.
    """
    if request.resolves_exact(enumeration_limit):
        return
    links = request.topology.num_directed_links()
    work = request.trials * links * request.rounds
    if work > MAX_MONTE_CARLO_WORK:
        raise RequestError(
            f"a Monte Carlo request takes trials x directed links x rounds "
            f"<= {MAX_MONTE_CARLO_WORK}, got {request.trials} x {links} x "
            f"{request.rounds} = {work}; this shape takes at most "
            f"{MAX_MONTE_CARLO_WORK // (links * request.rounds)} trials"
        )


@dataclass(frozen=True)
class ScaledEvaluateRequest:
    """A large-``m`` counter-abstraction request (``backend: meanfield``).

    No :class:`~repro.core.topology.Topology` or
    :class:`~repro.core.run.Run` is ever materialized — at
    ``m = 10**6`` the complete graph alone would hold ``~5 * 10**11``
    edges — only the parametric
    :class:`~repro.meanfield.counter.CounterRunSpec`.  Evaluation is
    ``O(rounds * classes**2)``, so the server answers these inline
    (off-loop), bypassing both the micro-batcher and the worker tier.
    """

    protocol_spec: str
    num_processes: int
    run_spec: str
    rounds: int
    protocol: Protocol
    spec: CounterRunSpec

    @property
    def payload(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol_spec,
            "topology": f"complete:{self.num_processes}",
            "run": self.run_spec,
            "rounds": self.rounds,
            "backend": "meanfield",
        }


def _parse_scaled_payload(
    payload: Dict[str, Any],
    protocol_spec: str,
    topology_spec: str,
    run_spec: str,
    rounds: int,
    method: str,
) -> ScaledEvaluateRequest:
    """The ``backend: meanfield`` arm of :func:`parse_evaluate_payload`."""
    if rounds > MAX_MEANFIELD_ROUNDS:
        raise RequestError(
            f"backend 'meanfield' takes rounds <= {MAX_MEANFIELD_ROUNDS}, "
            f"got {rounds}"
        )
    if method not in ("auto", "closed-form"):
        raise RequestError(
            f"backend 'meanfield' is exact; method {method!r} is not "
            "available on the counter path (drop the field or use "
            "'closed-form')"
        )
    name, _, argument = topology_spec.partition(":")
    if name != "complete" or not argument:
        raise RequestError(
            "backend 'meanfield' requires topology 'complete:M' "
            f"(counter abstraction needs K_m), got {topology_spec!r}"
        )
    try:
        num_processes = int(argument)
    except ValueError as error:
        raise RequestError(
            f"bad process count in topology {topology_spec!r}: {error}"
        ) from error
    from ..cli import parse_protocol

    try:
        protocol = parse_protocol(protocol_spec, rounds)
    except ValueError as error:
        raise RequestError(str(error)) from error
    if type(protocol) not in (ProtocolS, ProtocolW, ProtocolM):
        raise RequestError(
            f"backend 'meanfield' has no counter kernel for protocol "
            f"{protocol.name!r}; supported: S, W, M"
        )
    try:
        spec = scaled_spec(
            num_processes,
            rounds,
            run_spec,
            distinguished=type(protocol) is ProtocolS,
        )
    except ValueError as error:
        raise RequestError(
            f"backend 'meanfield' run spec {run_spec!r}: {error}"
        ) from error
    return ScaledEvaluateRequest(
        protocol_spec=protocol_spec,
        num_processes=num_processes,
        run_spec=run_spec,
        rounds=rounds,
        protocol=protocol,
        spec=spec,
    )


@lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)
def _topology(spec: str) -> Topology:
    """One shared topology per spec: memo-cache keys hold it."""
    from ..cli import parse_topology

    return parse_topology(spec)


def _field(payload: Dict[str, Any], name: str, kind: type, default: Any) -> Any:
    value = payload.get(name, default)
    if kind is int and isinstance(value, bool):
        raise RequestError(f"field {name!r} must be an integer")
    if not isinstance(value, kind):
        raise RequestError(
            f"field {name!r} must be a {kind.__name__}, got "
            f"{type(value).__name__}"
        )
    return value


def parse_evaluate_payload(
    payload: Dict[str, Any]
) -> Union[EvaluateRequest, ScaledEvaluateRequest]:
    """Validate and parse one ``/v1/evaluate`` body.

    Raises :class:`RequestError` with a client-actionable message for
    anything malformed: unknown fields, bad types, specs the CLI
    mini-language rejects, a ``file:PATH`` run (the server opens no
    file a client names), ``trials`` above :data:`MAX_TRIALS` (the
    server applies :func:`check_monte_carlo_work` once it knows a
    request runs Monte Carlo), or a
    concrete request above :data:`MAX_CONCRETE_PROCESSES` processes or
    :data:`MAX_CONCRETE_ROUNDS` rounds.  A ``backend: "meanfield"`` field selects
    the scaled counter-abstraction path, bounded at
    :data:`MAX_MEANFIELD_ROUNDS` rounds, and yields a
    :class:`ScaledEvaluateRequest` instead.
    """
    known = {
        "protocol",
        "topology",
        "run",
        "rounds",
        "method",
        "trials",
        "seed",
        "backend",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise RequestError(
            f"unknown fields {unknown}; expected a subset of {sorted(known)}"
        )
    protocol_spec = _field(payload, "protocol", str, "S")
    topology_spec = _field(payload, "topology", str, "pair")
    run_spec = _field(payload, "run", str, "good")
    rounds = _field(payload, "rounds", int, 8)
    method = _field(payload, "method", str, "auto")
    trials = _field(payload, "trials", int, DEFAULT_TRIALS)
    seed = _field(payload, "seed", int, 0)
    backend = _field(payload, "backend", str, "auto")
    if rounds < 1:
        raise RequestError(f"rounds must be >= 1, got {rounds}")
    if trials < 1:
        raise RequestError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise RequestError(f"trials must be <= {MAX_TRIALS}, got {trials}")
    if method not in METHODS:
        raise RequestError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )
    if backend not in REQUEST_BACKENDS:
        raise RequestError(
            f"unknown backend {backend!r}; expected one of "
            f"{REQUEST_BACKENDS} (reference/vectorized are server "
            "deployment choices, see `repro serve --backend`)"
        )
    if backend == "meanfield":
        return _parse_scaled_payload(
            payload, protocol_spec, topology_spec, run_spec, rounds, method
        )
    if rounds > MAX_CONCRETE_ROUNDS:
        raise RequestError(
            f"rounds must be <= {MAX_CONCRETE_ROUNDS}, got {rounds}"
        )
    if run_spec.partition(":")[0] == "file":
        raise RequestError(
            f"run spec {run_spec!r} is not served: the server opens no file "
            "a request names (evaluate it with `repro simulate --run file:PATH`)"
        )
    # The CLI's parsers are the single source of truth for the
    # mini-language; SpecError subclasses ValueError, so both spec and
    # structural failures surface as RequestError to the HTTP layer.
    from ..cli import parse_protocol, parse_run, topology_size

    try:
        num_processes = topology_size(topology_spec)
    except ValueError as error:
        raise RequestError(str(error)) from error
    if num_processes > MAX_CONCRETE_PROCESSES:
        raise RequestError(
            f"topology {topology_spec!r} has {num_processes} processes; "
            f"concrete evaluation takes at most {MAX_CONCRETE_PROCESSES} "
            "(send \"backend\": \"meanfield\" to evaluate complete:M "
            "at any size)"
        )
    try:
        topology = _topology(topology_spec)
        protocol = parse_protocol(protocol_spec, rounds)
        run = parse_run(run_spec, topology, rounds)
    except ValueError as error:
        raise RequestError(str(error)) from error
    return EvaluateRequest(
        protocol_spec=protocol_spec,
        topology_spec=topology_spec,
        run_spec=run_spec,
        rounds=rounds,
        method=method,
        trials=trials,
        seed=seed,
        protocol=protocol,
        topology=topology,
        run=run,
    )


def evaluate_response(
    request: EvaluateRequest, result: EventProbabilities
) -> Dict[str, Any]:
    """The JSON body served for one evaluated request."""
    levels = level_profile(request.run, request.topology.num_processes)
    mlevels = modified_level_profile(
        request.run, request.topology.num_processes
    )
    level = levels.run_level()
    modified_level = mlevels.run_level()
    response: Dict[str, Any] = {
        "protocol": request.protocol.name,
        "topology": request.topology.describe(),
        "run": request.run.describe(),
        "rounds": request.rounds,
        "method": result.method,
        "unsafety": result.pr_partial_attack,
        "liveness": result.pr_total_attack,
        "pr_no_attack": result.pr_no_attack,
        "pr_attack": list(result.pr_attack),
        "level": level,
        "modified_level": modified_level,
    }
    if result.trials is not None:
        response["trials"] = result.trials
    if isinstance(request.protocol, ProtocolS):
        # Theorem 6.8's floor on served liveness, reported next to the
        # measured value so clients can check the tradeoff per query.
        response["epsilon"] = request.protocol.epsilon
        response["liveness_lower_bound"] = min(
            1.0, request.protocol.epsilon * modified_level
        )
    return response


def scaled_evaluate_response(
    request: ScaledEvaluateRequest, evaluation: CounterEvaluation
) -> Dict[str, Any]:
    """The JSON body for one scaled (counter-abstraction) request.

    Per-process quantities come back per *class* — a million-entry
    ``pr_attack`` array would defeat the point of never materializing
    the graph — with ``class_sizes`` carrying the occupancies.
    """
    response: Dict[str, Any] = {
        "protocol": request.protocol.name,
        "topology": f"complete:{request.num_processes}",
        "run": request.run_spec,
        "rounds": request.rounds,
        "method": evaluation.method,
        "backend": "meanfield",
        "num_processes": evaluation.num_processes,
        "unsafety": evaluation.pr_partial_attack,
        "liveness": evaluation.pr_total_attack,
        "pr_no_attack": evaluation.pr_no_attack,
        "class_sizes": list(evaluation.class_sizes),
        "pr_attack_by_class": list(evaluation.pr_attack_by_class),
        "level": evaluation.level,
        "modified_level": evaluation.modified_level,
    }
    if isinstance(request.protocol, ProtocolS):
        response["epsilon"] = request.protocol.epsilon
        if evaluation.modified_level is not None:
            response["liveness_lower_bound"] = min(
                1.0, request.protocol.epsilon * evaluation.modified_level
            )
    return response
