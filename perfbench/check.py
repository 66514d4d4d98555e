"""Correctness checks: golden answers and reference re-evaluation.

Every search witness is re-evaluated once with the reference backend,
and every served answer is compared with the reference engine's
answer for the same spec.  For :data:`~perfbench.inputs.DEFAULT_SEED`
the answers are also compared with ``golden.json``, generated with the
reference backend by ``python3 -m perfbench.check`` (run from the
checkout root with ``src`` and the root on ``PYTHONPATH``).  All checks
run outside the timed window.
"""

from __future__ import annotations

import json
import random
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import inputs

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: How many serve-cold requests of the default seed have golden answers.
COLD_GOLDEN = 256

SERVED_FIELDS = ("unsafety", "liveness", "level", "modified_level")


def instance_key(instance: Dict[str, Any]) -> str:
    return "{protocol}|{topology}|{rounds}|{rng}".format(**instance)


def load_golden(seed: int) -> Optional[Dict[str, Any]]:
    if seed != inputs.DEFAULT_SEED:
        return None
    golden: Dict[str, Any] = json.loads(GOLDEN_PATH.read_text())
    if golden["seed"] != seed:
        raise ValueError(f"{GOLDEN_PATH} holds answers for seed {golden['seed']}")
    return golden


def _parsed(instance: Dict[str, Any]) -> Any:
    from repro.cli import parse_protocol, parse_topology

    return (
        parse_protocol(instance["protocol"], instance["rounds"]),
        parse_topology(instance["topology"]),
    )


def check_search(
    instances: List[Dict[str, Any]],
    ops: Sequence[list],
    witnesses: Dict[str, Any],
    golden: Optional[Dict[str, Any]],
) -> List[str]:
    """Problems with one window's search answers, one per failed op.

    ``ops`` rows are ``[position, value, certification, runs_examined,
    reduction_factor, witness_digest]``, or ``[position, None, error,
    ...]`` for an op that raised.  Every op of an instance must repeat
    its first answer, whose witness must score ``value`` under the
    reference backend (and match the golden answer, if given).
    """
    from repro.core.serialization import run_from_dict
    from repro.engine import Engine

    reference = Engine(backend="reference")
    by_position: Dict[int, List[list]] = defaultdict(list)
    for op in ops:
        by_position[op[0]].append(op)
    problems: List[str] = []
    for position, all_rows in by_position.items():
        instance = instances[position]
        key = instance_key(instance)
        problems += [f"{key}: {row[2]}" for row in all_rows if row[1] is None]
        rows = [row for row in all_rows if row[1] is not None]
        if not rows:
            continue
        first = rows[0]
        witness = witnesses[str(position)]
        reasons = []
        if witness is None:
            reasons.append("no witness")
        else:
            protocol, topology = _parsed(instance)
            scored = reference.evaluate(protocol, topology, run_from_dict(witness))
            if scored.pr_partial_attack != first[1]:
                reasons.append(
                    f"witness scores {scored.pr_partial_attack!r} under the "
                    f"reference backend, search reported {first[1]!r}"
                )
        if golden is not None:
            expected = golden["search"][key]
            got = {
                "value": first[1],
                "certification": first[2],
                "runs_examined": first[3],
                "witness": witness,
            }
            for field, value in expected.items():
                if got[field] != value:
                    reasons.append(f"{field} {got[field]!r} != golden {value!r}")
        if reasons:
            problems += [f"{key}: {'; '.join(reasons)}"] * len(rows)
            continue
        problems += [
            f"{key}: op answer {row[1:]} differs from the first {first[1:]}"
            for row in rows[1:]
            if row[1:] != first[1:]
        ]
    return problems


def reference_answers(requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The reference engine's response body for each request."""
    from repro.engine import Engine
    from repro.service.specs import evaluate_response, parse_evaluate_payload

    engine = Engine(backend="reference")
    answers = []
    for request in requests:
        spec = parse_evaluate_payload(dict(request))
        result = engine.evaluate(spec.protocol, spec.topology, spec.run)
        answers.append(json.loads(json.dumps(evaluate_response(spec, result))))
    return answers


class ServedChecker:
    """Compares served bodies with the reference engine's responses.

    Served requests differ only in their run spec, which keys the
    answers.  The answers are computed in this process: a process pool
    would leave its resource-tracker process running after the
    benchmark exits.
    """

    def __init__(self, golden: Optional[Dict[str, Any]]) -> None:
        self._golden = golden["served"] if golden is not None else {}
        self._expected: Dict[str, Any] = {}

    def prepare(self, requests: Sequence[Dict[str, Any]]) -> None:
        """Compute the reference answers of the requests not seen yet."""
        missing = list({request["run"]: request for request in requests
                        if request["run"] not in self._expected}.values())
        for request, answer in zip(missing, reference_answers(missing)):
            self._expected[request["run"]] = answer

    def expected(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if request["run"] not in self._expected:
            self.prepare([request])
        answer: Dict[str, Any] = self._expected[request["run"]]
        return answer

    def problem(self, request: Dict[str, Any], status: int, body: bytes) -> Optional[str]:
        """Why one served answer is wrong, or ``None`` if it is right."""
        if status != 200:
            return f"{request['run']}: HTTP {status}"
        try:
            served = json.loads(body)
        except ValueError:
            return f"{request['run']}: malformed body {body[:80]!r}"
        if served != self.expected(request):
            return f"{request['run']}: served {served} != reference {self.expected(request)}"
        golden = self._golden.get(request["run"])
        if golden is not None:
            for field in SERVED_FIELDS:
                if served[field] != golden[field]:
                    return f"{request['run']}: {field} {served[field]!r} != golden {golden[field]!r}"
        return None


def generate(seed: int) -> Dict[str, Any]:
    """Golden answers for ``seed``, computed with the reference backend."""
    from repro.adversary.search import worst_case_unsafety
    from repro.core.serialization import run_to_dict
    from repro.engine import Engine

    search: Dict[str, Any] = {}
    for workload in ("search-exhaustive", "search-heuristic"):
        for instance in inputs.search_instances(workload, seed):
            protocol, topology = _parsed(instance)
            result = worst_case_unsafety(
                protocol,
                topology,
                instance["rounds"],
                rng=random.Random(instance["rng"]),
                engine=Engine(backend="reference"),
            )
            search[instance_key(instance)] = {
                "value": result.value,
                "certification": result.certification,
                "runs_examined": result.runs_examined,
                "witness": run_to_dict(result.run) if result.run is not None else None,
            }
    cold = inputs.ColdRequests(seed)
    requests = inputs.hot_set(seed) + [cold(index) for index in range(COLD_GOLDEN)]
    served = {
        request["run"]: {field: answer[field] for field in SERVED_FIELDS}
        for request, answer in zip(requests, reference_answers(requests))
    }
    return {"seed": seed, "backend": "reference", "search": search, "served": served}


def _dump(golden: Dict[str, Any]) -> str:
    """JSON with one answer per line, so a changed answer is one diff line."""
    sections = []
    for name in ("search", "served"):
        entries = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(golden[name].items())
        )
        sections.append(f' "{name}": {{\n{entries}\n }}')
    header = f' "backend": {json.dumps(golden["backend"])},\n "seed": {golden["seed"]},\n'
    return "{\n" + header + ",\n".join(sections) + "\n}\n"


def main() -> int:
    golden = generate(inputs.DEFAULT_SEED)
    GOLDEN_PATH.write_text(_dump(golden))
    print(f"wrote {GOLDEN_PATH} for seed {inputs.DEFAULT_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
