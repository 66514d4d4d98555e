"""The search worker: one process running ``worst_case_unsafety``.

Run as ``python3 -m perfbench.worker`` with ``src`` and the checkout
root on ``PYTHONPATH``.  It reads one JSON job line from stdin,
imports the program, warms up, prints ``ready`` and, if the job says
so, runs the closed loop: one caller, one search per op, a fresh
default ``Engine()`` per op, each op preceded (untimed) by a host
speed probe in the same thread.  It ends by printing one JSON result
line.  With ``trace`` set, the first half of the window runs untraced
and the second half under the layer wrappers.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from hashlib import blake2b
from typing import Any, Dict, List

from perfbench.measure import peak_rss_mb, probe_host


def _window(
    seconds: float, instances: List[Dict[str, Any]], recorder: Any = None
) -> Dict[str, Any]:
    from repro.adversary import search
    from repro.core.serialization import run_to_dict
    from repro.engine import Engine

    starts: List[float] = []
    latencies: List[float] = []
    probes: List[List[float]] = []
    ops: List[list] = []
    witnesses: Dict[int, Any] = {}
    cpu = time.process_time()
    deadline = time.perf_counter() + seconds
    index = 0
    while not latencies or time.perf_counter() < deadline:
        position = index % len(instances)
        instance = instances[position]
        if recorder is not None:
            recorder.current_op.set(index)
        probes.append([time.perf_counter(), probe_host()])
        started = time.perf_counter()
        try:
            result = search.worst_case_unsafety(
                instance["parsed_protocol"],
                instance["parsed_topology"],
                instance["rounds"],
                rng=random.Random(instance["rng"]),
                engine=Engine(),
            )
        except Exception as error:  # a failed op is counted, not fatal
            result = None
            failure = f"{type(error).__name__}: {error}"
        last = time.perf_counter()
        starts.append(started)
        latencies.append(last - started)
        index += 1
        if result is None:
            ops.append([position, None, failure, None, None, None])
            continue
        witness = run_to_dict(result.run) if result.run is not None else None
        digest = blake2b(json.dumps(witness).encode(), digest_size=16).hexdigest()
        ops.append(
            [
                position,
                result.value,
                result.certification,
                result.runs_examined,
                result.reduction_factor,
                digest,
            ]
        )
        witnesses.setdefault(position, witness)
    return {
        "starts": starts,
        "latencies": latencies,
        "probes": probes,
        "cpu_s": time.process_time() - cpu,
        "ops": ops,
        "witnesses": {str(key): value for key, value in witnesses.items()},
    }


def main() -> int:
    job = json.loads(sys.stdin.readline())
    from repro.adversary import search
    from repro.cli import parse_protocol, parse_topology
    from repro.engine import Engine

    instances = job["instances"]
    for instance in instances:
        instance["parsed_topology"] = parse_topology(instance["topology"])
        instance["parsed_protocol"] = parse_protocol(instance["protocol"], instance["rounds"])
    # Warm-up: a search far below the parity limit loads every lazily
    # imported module (numpy, the vectorized kernel) before timing.
    search.worst_case_unsafety(
        parse_protocol("S", 3), parse_topology("pair"), 3, engine=Engine()
    )
    print("ready", flush=True)
    if not job["run"]:
        return 0
    seconds = job["seconds"]
    output: Dict[str, Any] = {}
    if job["trace"]:
        from perfbench.layers import install_search
        from perfbench.spans import Recorder

        output["untraced"] = _window(seconds / 2, instances)
        recorder = Recorder()
        install_search(recorder)
        output["traced"] = _window(seconds / 2, instances, recorder)
        output["spans"] = recorder.export()
    else:
        output["untraced"] = _window(seconds, instances)
    output["peak_rss_mb"] = peak_rss_mb(os.getpid())
    sys.stdout.write(json.dumps(output) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
