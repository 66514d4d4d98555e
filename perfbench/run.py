"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Run from the checkout root.  With ``--trace 0`` the last stdout line is
a JSON object holding the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  The lines before it
repeat the metrics with units and sample counts, plus the error rate
and the host's noise readings.  The exit code is non-zero if any
answer was wrong or any request failed.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("search-exhaustive", "search-heuristic", "serve-hot", "serve-cold")

#: Cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: The server drains for at most 10 s (``repro serve --drain-timeout``).
SHUTDOWN_TIMEOUT_S = 20

#: ``PYTHONPATH`` of the benchmark's own child processes.
BENCH_PATH = [SRC, ROOT]


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


class Child:
    """A child process whose stderr is drained in the background."""

    def __init__(self, command: List[str], pythonpath: Sequence[Path]) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(path) for path in pythonpath))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self.stderr: Deque[bytes] = collections.deque(maxlen=40)
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr.append(line)

    def readline(self) -> bytes:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            self.finish()
            raise BenchmarkError(
                f"{self.proc.args} ended early:\n"
                + b"".join(self.stderr).decode(errors="replace")
            )
        return line

    def finish(self, terminate: bool = False) -> bytes:
        """Stop the process (SIGTERM if asked), wait for it to end (SIGKILL
        after ``SHUTDOWN_TIMEOUT_S``), return its leftover stdout."""
        if terminate and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        stdout, stdin = self.proc.stdout, self.proc.stdin
        assert stdout is not None and stdin is not None
        stdin.close()
        # Read stdout while waiting: a child blocked on a full pipe never ends.
        rest: List[bytes] = []
        reader = threading.Thread(target=lambda: rest.append(stdout.read()))
        reader.start()
        try:
            self.proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        reader.join()
        self._drain.join()
        return b"".join(rest)


def _probe() -> float:
    """The host speed probe's median of three runs, for a cold start."""
    from perfbench.measure import median, probe_host

    return median([probe_host() for _ in range(3)])


# -- search workloads -------------------------------------------------------


def _spawn_worker(job: Dict[str, Any]) -> Tuple[Child, float]:
    """Start a search worker; return it and its set-up time at nominal speed."""
    from perfbench.measure import nominal

    probe = _probe()
    child = Child([sys.executable, "-m", "perfbench.worker"], BENCH_PATH)
    try:
        assert child.proc.stdin is not None
        child.proc.stdin.write((json.dumps(job) + "\n").encode())
        child.proc.stdin.flush()
        if child.readline().strip() != b"ready":
            raise BenchmarkError("search worker did not report ready")
    except BaseException:
        child.finish(terminate=True)
        raise
    return child, nominal(time.perf_counter() - child.started, probe)


def run_search(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from perfbench import check, inputs
    from perfbench.measure import NoiseMeter

    instances = inputs.search_instances(workload, seed)
    job = {"instances": instances, "seconds": seconds, "trace": trace, "run": False}
    setups = []
    for _ in range((1 if trace else COLD_STARTS) - 1):
        child, setup = _spawn_worker(job)
        child.finish()
        setups.append(setup)
    child, setup = _spawn_worker(dict(job, run=True))
    try:
        setups.append(setup)
        meter = NoiseMeter()
        output = json.loads(child.readline())
    finally:
        child.finish(terminate=True)
    windows = [output[name] for name in ("untraced", "traced") if name in output]
    noise = meter.stop(sum(window["cpu_s"] for window in windows))
    golden = check.load_golden(seed)
    problems = []
    for window in windows:
        problems += check.check_search(instances, window["ops"], window["witnesses"], golden)
    # One answered op per distinct instance (ops that raised carry no answer).
    distinct = list({op[0]: op for op in windows[-1]["ops"] if op[1] is not None}.values())
    return {
        "setups": setups,
        "windows": windows,
        "peak_rss_mb": output["peak_rss_mb"],
        "noise": noise,
        "problems": problems,
        "attempted": sum(len(window["latencies"]) for window in windows),
        "spans": output.get("spans"),
        "search": {
            "adversary.search.runs_examined": sum(op[3] for op in distinct) / max(1, len(distinct)),
            "adversary.search.orbit_reduction": _orbit_reduction(distinct),
        },
    }


def _orbit_reduction(ops: Any) -> float:
    """Run space / runs examined over the orbit-reduced instances."""
    reduced = [op for op in ops if op[4] is not None]
    if not reduced:
        return 1.0
    return sum(op[4] * op[3] for op in reduced) / sum(op[3] for op in reduced)


# -- serve workloads --------------------------------------------------------


async def _serve_boot(
    command: List[str],
    pythonpath: List[Path],
    warmup: List[bytes],
    body_for: Callable[[int], bytes],
    seconds: Optional[float],
) -> Dict[str, Any]:
    from perfbench.client import Connection, closed_loop
    from perfbench.measure import NoiseMeter, nominal, peak_rss_mb, process_cpu_s

    probe = _probe()
    child = Child(command, pythonpath)
    boot: Dict[str, Any] = {}
    connections: List[Connection] = []
    try:
        ready = child.readline().decode().strip()
        if not ready.startswith("serving on http://"):
            raise BenchmarkError(f"unexpected readiness line {ready!r}")
        port = int(ready.rsplit(":", 1)[1])
        for _ in range(min(2, os.cpu_count() or 1)):
            connections.append(await Connection.open(port))
        for body in warmup:
            status, _ = await connections[0].post(body)
            if status != 200:
                raise BenchmarkError(f"warm-up request answered HTTP {status}")
        boot["setup_s"] = nominal(time.perf_counter() - child.started, probe)
        if seconds is not None:
            server_cpu = process_cpu_s(child.proc.pid)
            meter = NoiseMeter()
            boot["exchanges"] = await closed_loop(connections, body_for, seconds)
            boot["noise"] = meter.stop(process_cpu_s(child.proc.pid) - server_cpu)
            boot["peak_rss_mb"] = peak_rss_mb(child.proc.pid)
    finally:
        for connection in connections:
            await connection.close()
        rest = child.finish(terminate=True)
    boot["stdout"] = rest
    return boot


def run_serve(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from perfbench import check, inputs

    if workload == "serve-hot":
        requests = inputs.hot_set(seed)
        warmup = [inputs.encode(request) for request in requests]

        def request_for(index: int) -> Dict[str, Any]:
            return requests[index % len(requests)]

    else:
        request_for = inputs.ColdRequests(seed)
        warmup = [inputs.encode(inputs.WARMUP_REQUEST)]

    def body_for(index: int) -> bytes:
        return inputs.encode(request_for(index))

    serve = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    traced = [sys.executable, "-m", "perfbench.traced_server", "--port", "0"]
    boots = []
    if trace:
        for command, path in ((serve, [SRC]), (traced, BENCH_PATH)):
            boots.append(
                asyncio.run(_serve_boot(command, path, warmup, body_for, seconds / 2))
            )
    else:
        for index in range(COLD_STARTS):
            last = index == COLD_STARTS - 1
            boots.append(
                asyncio.run(
                    _serve_boot(serve, [SRC], warmup, body_for, seconds if last else None)
                )
            )
    timed = [boot for boot in boots if "exchanges" in boot]
    exchanges = [exchange for boot in timed for exchange in boot["exchanges"]]
    checker = check.ServedChecker(check.load_golden(seed))
    checker.prepare([request_for(exchange.index) for exchange in exchanges])
    problems = [
        problem
        for exchange in exchanges
        if (problem := checker.problem(request_for(exchange.index), exchange.status, exchange.body))
    ]
    windows = [
        {
            "starts": [exchange.started for exchange in boot["exchanges"]],
            "latencies": [exchange.latency for exchange in boot["exchanges"]],
        }
        for boot in timed
    ]
    noises = [boot["noise"] for boot in timed]
    result = {
        "setups": [boot["setup_s"] for boot in boots],
        "windows": windows,
        "peak_rss_mb": timed[0]["peak_rss_mb"],
        "noise": {key: sum(noise[key] for noise in noises) for key in noises[0]},
        "problems": problems,
        "attempted": sum(len(window["latencies"]) for window in windows),
        "spans": None,
        "warmup_ops": len(warmup),
    }
    if trace:
        result["spans"] = json.loads(timed[-1]["stdout"].decode().strip().splitlines()[-1])
    return result


# -- reporting --------------------------------------------------------------


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    from perfbench.measure import median, summarize

    window = result["windows"][0]
    metrics = {"setup_s": median(result["setups"])}
    metrics.update(summarize(window["starts"], window["latencies"], window.get("probes")))
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    return metrics


def per_layer(workload: str, result: Dict[str, Any]) -> Dict[str, float]:
    from perfbench.layers import PER_LAYER_UNITS, layer_metrics
    from perfbench.measure import summarize

    untraced, traced = result["windows"]
    latencies = traced["latencies"]
    if workload.startswith("serve"):
        first = result["warmup_ops"]
        timed_ops = range(first, first + len(latencies))
    else:
        timed_ops = range(len(latencies))
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update(layer_metrics(result["spans"], timed_ops, latencies))
    metrics.update(result.get("search", {}))
    traced_p50, untraced_p50 = (
        summarize(window["starts"], window["latencies"], window.get("probes"))["latency_p50_ms"]
        for window in (traced, untraced)
    )
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    metrics["host.steal_s"] = result["noise"]["steal_s"]
    metrics["host.other_cpu_s"] = result["noise"]["other_cpu_s"]
    return metrics


def report(workload: str, seed: int, trace: bool, result: Dict[str, Any]) -> Dict[str, Any]:
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.measure import NOMINAL_PROBE_MS, SLICES, median

    attempted = result["attempted"]
    failed = len(result["problems"])
    if trace:
        values, units = per_layer(workload, result), PER_LAYER_UNITS
    else:
        values, units = end_to_end(result), END_TO_END_UNITS
    ops = f"{len(result['windows'][-1]['latencies'])} ops"
    if not trace:
        ops += f", median of {SLICES} slices"
    print(f"# {workload} seed={seed} trace={int(trace)}")
    for name, value in values.items():
        samples = f"{len(result['setups'])} cold starts" if name == "setup_s" else ops
        print(f"{name:36s} {value:14.4f} {units[name]:6s} n={samples}")
    print(f"{'error_rate':36s} {failed / attempted:14.4f} {'ratio':6s} n={attempted} ops")
    noise = result["noise"]
    print(
        f"# noise: steal {noise['steal_s']:.3f} CPU-s, other {noise['other_cpu_s']:.3f} "
        "CPU-s (other processes and kernel interrupt work) during the timed window"
    )
    probes = result["windows"][0].get("probes")
    if probes:
        probe_ms = median([seconds for _, seconds in probes]) * 1e3
        print(
            f"# host probe: median {probe_ms:.3f} ms in the timed window, nominal "
            f"{NOMINAL_PROBE_MS} ms; the op timings above are scaled to nominal speed"
        )
    for problem in result["problems"][:10]:
        print(f"# WRONG: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Turn SIGTERM into SystemExit so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from perfbench import inputs

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    trace = bool(args.trace)
    runner = run_search if args.workload.startswith("search") else run_serve
    try:
        result = runner(args.workload, seed, args.seconds, trace)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    summary = report(args.workload, seed, trace, result)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
