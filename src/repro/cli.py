"""Command-line interface: explore the model without writing code.

Subcommands:

* ``simulate`` — evaluate a protocol on a run (exact probabilities);
* ``search``   — worst-run search (the unsafety maximum);
* ``level``    — level / modified-level tables for a run;
* ``validity`` — check the validity condition on input-free probes;
* ``scale-sweep`` — counter-abstraction sweep over process counts
  (``m`` up to 10**6 and beyond; complete graphs, class-uniform
  runs — see DESIGN.md section 15);
* ``experiments`` — delegate to the experiment runner (same as
  ``python -m repro.experiments``);
* ``profile`` — run one experiment with tracing and metrics enabled
  and print the span tree plus a metrics snapshot;
* ``serve`` — run the asyncio evaluation server (JSON endpoints,
  micro-batching, bounded admission queue; see DESIGN.md section 10);
* ``bench-serve`` — drive a server with the load generator and write
  the ``BENCH_serve.json`` latency/throughput artifact;
* ``audit`` — stitch the audit log a traced server wrote
  (``repro serve --audit-dir DIR``) into one request's span tree.

Observability flags (see DESIGN.md section 8): every evaluating
subcommand takes ``--backend`` / ``--engine-stats`` plus ``--trace
FILE.jsonl`` (span export), ``--metrics FILE.json`` (metrics
snapshot), and ``--log-level LEVEL`` (stdlib logging under the
``repro.*`` hierarchy, to stderr).

Specification mini-language (shared by the flags):

* topology: ``pair``, ``path:M``, ``ring:M``, ``star:M``,
  ``complete:M``, ``grid:RxC``;
* run: ``good``, ``silent``, ``cut:R`` (deliver rounds < R),
  ``chain:B`` (two-general chain broken at B), ``tree``
  (the Lemma A.6 spanning-tree run), ``loss:P:SEED`` (i.i.d. loss);
* protocol: ``S:EPS``, ``A``, ``W:K``, ``M:Q`` (simple-majority
  consensus with quorum fraction Q), ``repeatedA:COPIES:COMBINER``,
  ``never``, ``input-attack``.

Examples::

    python -m repro simulate --topology pair --rounds 10 \
        --protocol S:0.1 --run cut:5
    python -m repro search --topology path:3 --rounds 5 --protocol S:0.2
    python -m repro level --topology star:4 --rounds 4 --run tree
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional, Tuple, Union

from .adversary.search import worst_case_unsafety
from .analysis.report import Table
from .core.measures import level_profile, modified_level_profile
from .core.metrics import check_validity, validity_probe_runs
from .core.seeding import spawn_random
from .core.run import (
    Run,
    bernoulli_run,
    chain_run,
    good_run,
    round_cut_run,
    silent_run,
    spanning_tree_run,
)
from .core.topology import Topology
from .core.types import Round
from .engine import BACKENDS, Engine
from .obs import (
    LOG_LEVELS,
    MetricsRegistry,
    Obs,
    Tracer,
    render_span_tree,
    set_obs,
    setup_logging,
)
from .protocols.deterministic import InputAttack, NeverAttack
from .protocols.protocol_a import ProtocolA
from .protocols.protocol_m import ProtocolM
from .protocols.protocol_s import ProtocolS
from .protocols.repeated_a import RepeatedA
from .protocols.weak_adversary import ProtocolW
from .staticcheck.cli import add_lint_arguments, run_lint


class SpecError(ValueError):
    """A malformed --topology/--run/--protocol specification."""


def _topology_arguments(spec: str) -> Tuple[str, Tuple[int, ...]]:
    """The argument step of the topology grammar: builds nothing."""
    name, _, argument = spec.partition(":")
    try:
        if name == "pair":
            return name, ()
        if name in ("path", "ring", "star", "complete"):
            return name, (int(argument),)
        if name == "grid":
            rows, _, cols = argument.partition("x")
            return name, (int(rows), int(cols))
    except ValueError as error:
        raise SpecError(f"bad topology spec {spec!r}: {error}") from error
    raise SpecError(
        f"unknown topology {spec!r} (try pair, path:M, ring:M, star:M, "
        "complete:M, grid:RxC)"
    )


def topology_size(spec: str) -> int:
    """The process count a topology spec asks for, without building it."""
    _, arguments = _topology_arguments(spec)
    return math.prod(arguments) if arguments else 2


def parse_topology(spec: str) -> Topology:
    """Parse the topology mini-language (see module docstring)."""
    name, arguments = _topology_arguments(spec)
    try:
        # Every name the grammar accepts is a Topology constructor.
        return getattr(Topology, name)(*arguments)
    except (ValueError, TypeError) as error:
        raise SpecError(f"bad topology spec {spec!r}: {error}") from error


def parse_run(spec: str, topology: Topology, num_rounds: Round) -> Run:
    """Parse the run mini-language (see module docstring)."""
    name, _, argument = spec.partition(":")
    try:
        if name == "good":
            return good_run(topology, num_rounds)
        if name == "silent":
            return silent_run(topology, num_rounds, list(topology.processes))
        if name == "cut":
            return round_cut_run(topology, num_rounds, int(argument))
        if name == "chain":
            if topology.num_processes != 2:
                raise SpecError("chain runs need the pair topology")
            break_round = None if argument in ("", "none") else int(argument)
            return chain_run(num_rounds, break_round)
        if name == "tree":
            return spanning_tree_run(topology, num_rounds)
        if name == "loss":
            probability_text, _, seed_text = argument.partition(":")
            rng = spawn_random(
                int(seed_text) if seed_text else 0, "cli", "loss-run"
            )
            return bernoulli_run(
                topology, num_rounds, float(probability_text), rng
            )
        if name == "file":
            from .core.serialization import run_from_json

            with open(argument) as handle:
                run = run_from_json(handle.read())
            if run.num_rounds != num_rounds:
                raise SpecError(
                    f"run in {argument!r} has N={run.num_rounds}, "
                    f"but --rounds is {num_rounds}"
                )
            run.validate_for(topology)
            return run
    except SpecError:
        raise
    except (ValueError, TypeError) as error:
        raise SpecError(f"bad run spec {spec!r}: {error}") from error
    raise SpecError(
        f"unknown run {spec!r} (try good, silent, cut:R, chain:B, tree, "
        "loss:P[:SEED], file:PATH)"
    )


def parse_protocol(spec: str, num_rounds: Round):
    """Parse the protocol mini-language (see module docstring)."""
    name, _, argument = spec.partition(":")
    try:
        if name in ("S", "s"):
            return ProtocolS(epsilon=float(argument) if argument else 1.0 / num_rounds)
        if name in ("A", "a"):
            return ProtocolA(num_rounds)
        if name in ("W", "w"):
            threshold = int(argument) if argument else max(1, num_rounds // 3)
            return ProtocolW(threshold)
        if name in ("M", "m"):
            return ProtocolM(quorum=float(argument) if argument else 0.5)
        if name == "repeatedA":
            copies_text, _, combiner = argument.partition(":")
            return RepeatedA(
                num_rounds,
                copies=int(copies_text),
                combiner=combiner or "any",
            )
        if name == "never":
            return NeverAttack()
        if name == "input-attack":
            return InputAttack()
    except SpecError:
        raise
    except (ValueError, TypeError) as error:
        raise SpecError(f"bad protocol spec {spec!r}: {error}") from error
    raise SpecError(
        f"unknown protocol {spec!r} (try S:EPS, A, W:K, M:Q, "
        "repeatedA:COPIES:COMBINER, never, input-attack)"
    )


def print_engine_stats(engine: Engine) -> None:
    """Render the engine instrumentation table."""
    stats = engine.stats
    table = Table(
        title="Engine statistics",
        columns=["quantity", "value"],
        caption=f"backend: {engine.backend}",
    )
    table.add_row("runs evaluated", stats.runs_evaluated)
    table.add_row("reference evaluations", stats.reference_evaluations)
    table.add_row("vectorized evaluations", stats.vectorized_evaluations)
    table.add_row("meanfield evaluations", stats.meanfield_evaluations)
    table.add_row("batch calls", stats.batch_calls)
    table.add_row("cache hits", stats.cache_hits)
    table.add_row("cache misses", stats.cache_misses)
    table.add_row("cache hit rate", stats.cache_hit_rate)
    table.add_row("wall time (s)", stats.wall_time_seconds)
    print(table.render())


def _print_engine_stats(args, engine: Engine) -> None:
    """Render the engine instrumentation table when requested."""
    if getattr(args, "engine_stats", False):
        print_engine_stats(engine)


def _setup_obs(args, exec_trace: bool = False) -> Obs:
    """A fresh per-invocation observability bundle from the flags.

    Installed process-wide so module-level consumers (the fast
    estimators, the default engine) report into the same registry the
    exports drain.
    """
    if getattr(args, "log_level", None):
        setup_logging(args.log_level)
    obs = Obs(
        metrics=MetricsRegistry(),
        tracer=Tracer(enabled=getattr(args, "trace", None) is not None),
        exec_trace=exec_trace and getattr(args, "trace", None) is not None,
    )
    set_obs(obs)
    return obs


def _finish_obs(args, obs: Obs) -> None:
    """Write the --trace / --metrics exports, if requested."""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        obs.tracer.export_jsonl(trace_path)
        print(f"trace written to {trace_path}")
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        obs.metrics.export_json(metrics_path)
        print(f"metrics written to {metrics_path}")


def _metrics_table(registry: MetricsRegistry) -> Table:
    """A compact rendering of a metrics snapshot."""
    table = Table(title="Metrics snapshot", columns=["metric", "value"])
    for name, payload in registry.snapshot().items():
        if payload["type"] == "histogram":
            table.add_row(
                name,
                "count={count} sum={sum:.4f}s min={min} max={max}".format(
                    count=payload["count"],
                    sum=payload["sum"],
                    min=_format_seconds(payload["min"]),
                    max=_format_seconds(payload["max"]),
                ),
            )
        else:
            table.add_row(name, payload["value"])
    return table


def _format_seconds(value) -> str:
    return "-" if value is None else f"{value:.2e}s"


def _cmd_simulate(args) -> int:
    topology = parse_topology(args.topology)
    protocol = parse_protocol(args.protocol, args.rounds)
    run = parse_run(args.run, topology, args.rounds)
    # For a single run the interesting trace is the per-round protocol
    # events (levels, deliveries, fire decisions), so --trace implies
    # the execution trace here.
    obs = _setup_obs(args, exec_trace=True)
    engine = Engine(backend=args.backend, obs=obs)
    result = engine.evaluate(protocol, topology, run)
    table = Table(
        title=f"{protocol.name} on {run.describe()}",
        columns=["quantity", "value"],
        caption=f"backend: {result.method}",
    )
    table.add_row("P[total attack]  (liveness)", result.pr_total_attack)
    table.add_row("P[partial attack] (unsafety)", result.pr_partial_attack)
    table.add_row("P[no attack]", result.pr_no_attack)
    for process in topology.processes:
        table.add_row(f"P[process {process} attacks]", result.pr_attack_by(process))
    print(table.render())
    _print_engine_stats(args, engine)
    _finish_obs(args, obs)
    return 0


def _cmd_search(args) -> int:
    topology = parse_topology(args.topology)
    protocol = parse_protocol(args.protocol, args.rounds)
    obs = _setup_obs(args)
    engine = Engine(backend=args.backend, obs=obs)
    result = worst_case_unsafety(
        protocol, topology, args.rounds, engine=engine
    )
    if args.save_witness and result.run is not None:
        from .core.serialization import run_to_json

        with open(args.save_witness, "w") as handle:
            handle.write(run_to_json(result.run) + "\n")
    table = Table(
        title=f"Worst-run search: {protocol.name} on {topology.describe()}",
        columns=["quantity", "value"],
    )
    table.add_row("worst P[partial attack]", result.value)
    table.add_row("runs examined", result.runs_examined)
    table.add_row("certification", result.certification)
    table.add_row("worst run", result.run.describe() if result.run else "-")
    if args.save_witness:
        table.add_row("witness saved to", args.save_witness)
    print(table.render())
    _print_engine_stats(args, engine)
    _finish_obs(args, obs)
    return 0


def _cmd_level(args) -> int:
    topology = parse_topology(args.topology)
    run = parse_run(args.run, topology, args.rounds)
    levels = level_profile(run, topology.num_processes)
    mlevels = modified_level_profile(run, topology.num_processes)
    table = Table(
        title=f"Information levels on {run.describe()}",
        columns=["process", "L_i(R)", "ML_i(R)"],
        caption=(
            f"L(R) = {levels.run_level()}, ML(R) = {mlevels.run_level()}"
        ),
    )
    for process in topology.processes:
        table.add_row(
            process, levels.final_level(process), mlevels.final_level(process)
        )
    print(table.render())
    return 0


def _cmd_validity(args) -> int:
    topology = parse_topology(args.topology)
    protocol = parse_protocol(args.protocol, args.rounds)
    obs = _setup_obs(args)
    rng = spawn_random(args.seed, "cli", "validity")
    probes = validity_probe_runs(topology, args.rounds, rng)
    with obs.tracer.span(
        "cli.validity", protocol=protocol.name, probes=len(probes)
    ):
        ok, witness = check_validity(protocol, topology, probes, rng=rng)
        # Complementary probabilistic check through the engine: on an
        # input-free run validity is exactly Pr[no attack] = 1, so the
        # worst probe's Pr[any attack] should be 0.
        engine = Engine(backend=args.backend, obs=obs)
        results = engine.evaluate_many(protocol, topology, probes)
    worst_attack = max(1.0 - result.pr_no_attack for result in results)
    if ok:
        print(f"{protocol.name}: validity holds on {len(probes)} probe runs")
        print(f"max P[any attack] over probes: {worst_attack:g} (exact)")
        _print_engine_stats(args, engine)
        _finish_obs(args, obs)
        return 0
    print(f"{protocol.name}: VALIDITY VIOLATED on {witness.describe()}")
    _print_engine_stats(args, engine)
    _finish_obs(args, obs)
    return 1


def _parse_process_counts(text: str) -> List[int]:
    """Parse a comma-separated list of process counts (``10^K`` ok)."""
    counts: List[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if "^" in token:
                base_text, _, exponent_text = token.partition("^")
                counts.append(int(base_text) ** int(exponent_text))
            else:
                counts.append(int(token))
        except ValueError as error:
            raise SpecError(
                f"bad process count {token!r}: {error}"
            ) from error
    if not counts:
        raise SpecError(f"no process counts in {text!r}")
    return counts


def _cmd_scale_sweep(args) -> int:
    from .meanfield import (
        CounterAbstractionError,
        scaled_spec,
        unsafety_family,
    )

    protocol = parse_protocol(args.protocol, args.rounds)
    counts = _parse_process_counts(args.processes)
    obs = _setup_obs(args)
    engine = Engine(backend=args.backend, obs=obs)
    table = Table(
        title=(
            f"{protocol.name} on K_m, N={args.rounds} "
            f"(counter abstraction)"
        ),
        columns=[
            "m",
            "P[TA] good",
            "max P[PA] (family)",
            "L(R_good)",
            "ML(R_good)",
            "wall (ms)",
        ],
        caption=(
            "parametric counter kernels: cost is independent of m "
            "(run `repro simulate --backend meanfield` for concrete runs)"
        ),
    )
    needs_coordinator = type(protocol) is ProtocolS
    # The class-uniform family cannot straddle W's threshold, so its
    # maximum (0) says nothing about U_s(W) = 1 (DESIGN.md section 15).
    certified = type(protocol) is not ProtocolW
    with obs.tracer.span(
        "cli.scale_sweep", protocol=protocol.name, points=len(counts)
    ):
        for num_processes in counts:
            started = time.perf_counter()
            try:
                good = engine.evaluate_scaled(
                    protocol,
                    scaled_spec(
                        num_processes,
                        args.rounds,
                        "good",
                        distinguished=needs_coordinator,
                    ),
                )
                worst: Union[float, str] = "not certified"
                if certified:
                    worst, _ = unsafety_family(
                        protocol, num_processes, args.rounds, engine=engine
                    )
            except CounterAbstractionError as error:
                print(f"m={num_processes}: {error}", file=sys.stderr)
                return 1
            elapsed_ms = (time.perf_counter() - started) * 1e3
            table.add_row(
                num_processes,
                good.pr_total_attack,
                worst,
                good.level,
                good.modified_level if needs_coordinator else "-",
                f"{elapsed_ms:.2f}",
            )
    print(table.render())
    _print_engine_stats(args, engine)
    _finish_obs(args, obs)
    return 0


def _cmd_experiments(args) -> int:
    from .experiments.__main__ import main as experiments_main

    forwarded: List[str] = list(args.ids)
    if args.all:
        forwarded.append("--all")
    forwarded.extend(["--scale", args.scale, "--seed", str(args.seed)])
    forwarded.extend(["--backend", args.backend])
    if args.engine_stats:
        forwarded.append("--engine-stats")
    if args.trace:
        forwarded.extend(["--trace", args.trace])
    if args.metrics:
        forwarded.extend(["--metrics", args.metrics])
    if args.log_level:
        forwarded.extend(["--log-level", args.log_level])
    return experiments_main(forwarded)


def _cmd_profile(args) -> int:
    from .experiments import run_experiment
    from .experiments.common import Config

    if args.log_level:
        setup_logging(args.log_level)
    config = Config(
        scale=args.scale,
        seed=args.seed,
        backend=args.backend,
        tracing=True,
        trace_path=args.trace,
        metrics_path=args.metrics,
        exec_trace=args.exec_trace,
    )
    obs = config.obs()
    set_obs(obs)
    started = time.perf_counter()
    try:
        report = run_experiment(args.experiment, config)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    status = "PASS" if report.passed else "FAIL"
    print(
        f"== Profile: [{report.experiment_id}] {report.title} — {status} "
        f"in {elapsed:.2f}s ==\n"
    )
    print(render_span_tree(obs.tracer))
    print()
    print(_metrics_table(obs.metrics).render())
    _print_engine_stats(args, config.engine())
    _finish_obs(args, obs)
    return 0 if report.passed else 1


def _cmd_serve(args) -> int:
    import asyncio

    from .service import ServiceConfig
    from .service.server import serve as serve_async

    if args.log_level:
        setup_logging(args.log_level)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        seed=args.seed,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        workers=args.workers,
        deadline_ms=args.deadline_ms,
        drain_timeout_s=args.drain_timeout,
        debug=args.debug_endpoints,
        trace_path=args.trace,
        metrics_path=args.metrics,
        audit_dir=args.audit_dir,
        trace_sample_rate=args.trace_sample_rate,
        slow_request_ms=args.slow_request_ms,
    )
    obs = Obs(
        metrics=MetricsRegistry(),
        tracer=Tracer(enabled=args.trace is not None),
    )
    set_obs(obs)
    try:
        asyncio.run(serve_async(config, obs=obs))
    except KeyboardInterrupt:
        pass  # SIGINT before the loop installed its handler
    return 0


def _cmd_bench_serve(args) -> int:
    from .service import LoadgenOptions, ServiceConfig
    from .service.loadgen import run_bench

    options = LoadgenOptions(
        requests=args.requests,
        concurrency=args.concurrency,
        rounds=args.rounds,
        protocol=args.protocol,
        spread=args.spread,
        groups=args.groups,
        seed=args.seed,
    )
    server_config = None
    sample_rate: Optional[float] = None
    if args.host is None or args.port is None:
        server_config = ServiceConfig(
            port=0,
            backend=args.backend,
            workers=args.workers,
            max_batch=args.max_batch,
            queue_limit=args.queue_limit,
            seed=args.seed,
        )
        if args.trace_sample_rate > 0:
            sample_rate = args.trace_sample_rate
    payload = run_bench(
        options,
        host=args.host,
        port=args.port,
        output=args.output,
        server_config=server_config,
        trace_sample_rate=sample_rate,
    )
    result = payload["result"]
    latency = result["latency_seconds"]
    table = Table(
        title="Serving benchmark",
        columns=["quantity", "value"],
        caption=f"target: {payload['target']}",
    )
    table.add_row("requests (ok/shed/failed)", "{}/{}/{}".format(
        result["requests_ok"],
        result["requests_rejected"],
        result["requests_failed"],
    ))
    table.add_row("duration (s)", result["duration_seconds"])
    table.add_row("throughput (req/s)", result["throughput_rps"])
    table.add_row("shed rate", result["shed_rate"])
    for name in ("p50", "p95", "p99", "mean", "max"):
        if name in latency:
            table.add_row(f"served latency {name} (s)", latency[name])
    if result.get("batch_size_max") is not None:
        table.add_row("max coalesced batch", result["batch_size_max"])
    print(table.render())
    print()
    tracing = payload.get("tracing")
    if tracing is not None:
        ratio = tracing.get("p99_overhead_ratio")
        print(
            "tracing overhead at sample rate "
            f"{tracing['sample_rate']:g}: "
            + (f"{ratio * 100:+.1f}% p99" if ratio is not None else "n/a")
            + f" ({tracing['audit_records']} audit records)"
        )
    if args.output:
        print(f"artifact written to {args.output}")
    return 0


def _cmd_audit(args) -> int:
    import json

    from .obs.audit import (
        load_audit_dir,
        missing_stages,
        render_request_tree,
        stitch_request,
    )

    try:
        records = load_audit_dir(args.log_dir)
    except OSError as error:
        print(f"cannot read audit logs in {args.log_dir!r}: {error}",
              file=sys.stderr)
        return 1
    tree = stitch_request(records, args.request_id)
    if not tree.spans:
        print(
            f"no audit records for request {args.request_id!r} under "
            f"{args.log_dir!r} ({len(records)} records scanned)",
            file=sys.stderr,
        )
        return 1
    missing = missing_stages(tree)
    if args.json:
        print(
            json.dumps(
                {
                    "request_id": tree.request_id,
                    "status": tree.status,
                    "missing_stages": missing,
                    "spans": tree.spans,
                },
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
    else:
        print(render_request_tree(tree))
    if args.expect_complete and missing:
        print(
            f"request tree incomplete: missing {', '.join(missing)}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Randomized coordinated attack (Varghese & Lynch, PODC 1992) "
            "— reproduction toolkit."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, run_flag=True, protocol_flag=True):
        sub.add_argument("--topology", default="pair", help="topology spec")
        sub.add_argument(
            "--rounds", type=int, default=8, help="message rounds N"
        )
        if run_flag:
            sub.add_argument("--run", default="good", help="run spec")
        if protocol_flag:
            sub.add_argument(
                "--protocol", default="S", help="protocol spec"
            )

    def add_engine_flags(sub):
        sub.add_argument(
            "--backend",
            choices=list(BACKENDS),
            default="auto",
            help="evaluation engine backend (default: auto)",
        )
        sub.add_argument(
            "--engine-stats",
            action="store_true",
            help="print engine instrumentation after the results",
        )

    def add_obs_flags(sub):
        sub.add_argument(
            "--trace",
            metavar="FILE.jsonl",
            default=None,
            help="record spans and export them as JSONL to FILE",
        )
        sub.add_argument(
            "--metrics",
            metavar="FILE.json",
            default=None,
            help="export the metrics snapshot as JSON to FILE",
        )
        sub.add_argument(
            "--log-level",
            choices=list(LOG_LEVELS),
            default=None,
            help="enable repro.* logging at this level (stderr)",
        )

    simulate = subparsers.add_parser(
        "simulate", help="evaluate a protocol on a run"
    )
    add_common(simulate)
    add_engine_flags(simulate)
    add_obs_flags(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    search = subparsers.add_parser(
        "search", help="worst-run search for unsafety"
    )
    add_common(search, run_flag=False)
    search.add_argument(
        "--save-witness",
        metavar="PATH",
        default=None,
        help="write the worst run found as JSON to PATH",
    )
    add_engine_flags(search)
    add_obs_flags(search)
    search.set_defaults(handler=_cmd_search)

    level = subparsers.add_parser(
        "level", help="level / modified-level tables for a run"
    )
    add_common(level, protocol_flag=False)
    level.set_defaults(handler=_cmd_level)

    validity = subparsers.add_parser(
        "validity", help="check validity on input-free probe runs"
    )
    add_common(validity, run_flag=False)
    validity.add_argument("--seed", type=int, default=0)
    add_engine_flags(validity)
    add_obs_flags(validity)
    validity.set_defaults(handler=_cmd_validity)

    scale_sweep = subparsers.add_parser(
        "scale-sweep",
        help=(
            "counter-abstraction sweep over process counts "
            "(complete graphs; m up to 10^6 and beyond)"
        ),
    )
    scale_sweep.add_argument(
        "--processes",
        default="10^3,10^4,10^5,10^6",
        help="comma-separated process counts (10^K accepted)",
    )
    scale_sweep.add_argument(
        "--rounds", type=int, default=8, help="message rounds N"
    )
    scale_sweep.add_argument(
        "--protocol", default="S:0.015625", help="protocol spec (S/W/M)"
    )
    add_engine_flags(scale_sweep)
    add_obs_flags(scale_sweep)
    scale_sweep.set_defaults(handler=_cmd_scale_sweep)

    experiments = subparsers.add_parser(
        "experiments", help="run reproduction experiments (E1..E17)"
    )
    experiments.add_argument("ids", nargs="*", help="experiment ids")
    experiments.add_argument("--all", action="store_true")
    experiments.add_argument(
        "--scale", choices=["quick", "full"], default="quick"
    )
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument(
        "--backend", choices=list(BACKENDS), default="auto"
    )
    experiments.add_argument(
        "--engine-stats",
        action="store_true",
        help="print engine instrumentation after each report",
    )
    add_obs_flags(experiments)
    experiments.set_defaults(handler=_cmd_experiments)

    profile = subparsers.add_parser(
        "profile",
        help=(
            "run one experiment with tracing + metrics and print the "
            "span tree"
        ),
    )
    profile.add_argument("experiment", help="experiment id (e.g. e3)")
    profile.add_argument(
        "--scale", choices=["quick", "full"], default="quick"
    )
    profile.add_argument(
        "--quick",
        dest="scale",
        action="store_const",
        const="quick",
        help="shorthand for --scale quick (the default)",
    )
    profile.add_argument(
        "--full",
        dest="scale",
        action="store_const",
        const="full",
        help="shorthand for --scale full",
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--exec-trace",
        action="store_true",
        help="also record per-round protocol events (expensive)",
    )
    add_engine_flags(profile)
    add_obs_flags(profile)
    profile.set_defaults(handler=_cmd_profile)

    def add_service_knobs(sub):
        sub.add_argument(
            "--backend", choices=list(BACKENDS), default="auto"
        )
        sub.add_argument(
            "--max-batch",
            type=int,
            default=32,
            help="micro-batcher: flush once this many requests coalesce",
        )
        sub.add_argument(
            "--queue-limit",
            type=int,
            default=64,
            help="admission queue bound (overflow answers 429)",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=0,
            help=(
                "process-pool workers for Monte-Carlo/experiment "
                "requests (0 = inline thread)"
            ),
        )
        sub.add_argument("--seed", type=int, default=0)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the asyncio evaluation server (see DESIGN.md section 10)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="listen port (0 picks a free one and prints it)",
    )
    add_service_knobs(serve_parser)
    serve_parser.add_argument(
        "--deadline-ms",
        type=float,
        default=30_000.0,
        help="per-request deadline (expiry answers 504)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    serve_parser.add_argument(
        "--debug-endpoints",
        action="store_true",
        help="enable the /v1/_sleep test hook (never in production)",
    )
    serve_parser.add_argument(
        "--audit-dir",
        default=None,
        help=(
            "directory for the request audit log "
            "(audit-server.jsonl; stitch it with `repro audit`)"
        ),
    )
    serve_parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=1.0,
        help=(
            "fraction of requests audited, decided by a deterministic "
            "hash of the request id (client-supplied ids are always "
            "audited); default 1.0"
        ),
    )
    serve_parser.add_argument(
        "--slow-request-ms",
        type=float,
        default=1_000.0,
        help="log requests slower than this at WARNING with their id",
    )
    add_obs_flags(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    bench_serve = subparsers.add_parser(
        "bench-serve",
        help=(
            "load-test a server and write the BENCH_serve.json artifact "
            "(self-contained unless --host/--port target a live one)"
        ),
    )
    bench_serve.add_argument(
        "--host", default=None, help="target a running server"
    )
    bench_serve.add_argument("--port", type=int, default=None)
    bench_serve.add_argument("--requests", type=int, default=200)
    bench_serve.add_argument("--concurrency", type=int, default=16)
    bench_serve.add_argument("--rounds", type=int, default=8)
    bench_serve.add_argument(
        "--protocol", default="S:0.25", help="evaluated protocol spec"
    )
    bench_serve.add_argument(
        "--spread",
        action="store_true",
        help="vary the protocol per request (defeats coalescing)",
    )
    bench_serve.add_argument(
        "--groups",
        type=int,
        default=1,
        help=(
            "rotate across this many distinct batch groups (coalescable "
            "within each)"
        ),
    )
    add_service_knobs(bench_serve)
    bench_serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.1,
        help=(
            "also measure tracing overhead: a tracing-off vs tracing-on "
            "pair of runs at this sample rate lands in the artifact's "
            "'tracing' block (self-contained benches only; 0 skips it)"
        ),
    )
    bench_serve.add_argument(
        "--output",
        default="benchmarks/results/BENCH_serve.json",
        help="artifact path (empty string skips writing)",
    )
    bench_serve.set_defaults(handler=_cmd_bench_serve)

    audit = subparsers.add_parser(
        "audit",
        help=(
            "stitch the audit log into one request's span tree "
            "(request, batch -> engine or worker)"
        ),
    )
    audit.add_argument("request_id", help="the request id to reconstruct")
    audit.add_argument(
        "--log-dir",
        default="audit",
        help="the --audit-dir the server wrote (default: audit)",
    )
    audit.add_argument(
        "--json",
        action="store_true",
        help="emit the stitched spans as JSON instead of the tree",
    )
    audit.add_argument(
        "--expect-complete",
        action="store_true",
        help="exit 1 unless the request span and its execution are present",
    )
    audit.set_defaults(handler=_cmd_audit)

    lint = subparsers.add_parser(
        "lint",
        help="run the repo-aware static analyzer (rules RC001-RC005)",
    )
    add_lint_arguments(lint)
    lint.set_defaults(handler=run_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpecError as error:
        parser.error(str(error))
        return 2  # unreachable; parser.error exits
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (head,
        # less q): not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
