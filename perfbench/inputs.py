"""Seeded workload inputs.

``--seed`` draws the instance parameters and their order, the rng
seed handed to each ``worst_case_unsafety`` call, the serve-hot hot
set and the serve-cold runs.  The shapes below are fixed, so every
seed yields the same mix of work: a seed changes which instances run,
not how much each costs.  The program receives only these inputs.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List

#: The seed the committed golden answers were generated for.
DEFAULT_SEED = 1
#: Never used while the benchmark was written; reserve it for
#: confirming a claimed gain.
HELD_OUT_SEED = 7919

#: A run space of 16,384, between ``SYMMETRY_PARITY_LIMIT`` (4,096)
#: and the 70,000-run exhaustive budget: the packed, orbit-reduced
#: exact path.  Larger spaces (complete:3 N=2, star:4 N=2) take
#: 250-560 ms a search, too slow for 100 ops in one window.  W weighs
#: double so that p50 and p90 each fall inside one shape's cluster.
EXHAUSTIVE_SHAPES = (("S", "pair", 6), ("W", "pair", 6), ("W", "pair", 6))

#: Run spaces far above the budget: family + greedy + random search.
#: Three shapes whose costs (about 70, 150 and 260 ms at nominal host
#: speed) are far apart; W weighs double so that p50 falls in the
#: middle of its cluster and p90 inside the ring's.
HEURISTIC_SHAPES = (
    ("S", "pair", 12),
    ("W", "path:4", 8),
    ("W", "path:4", 8),
    ("S", "ring:6", 6),
)

SERVE_PROTOCOL = "S:0.25"
SERVE_TOPOLOGY = "grid:3x3"
SERVE_ROUNDS = 10
HOT_SET_SIZE = 16
LOSS_CHOICES = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
EPSILON_CHOICES = (0.125, 0.2, 0.25, 0.3)

#: Hot-set run seeds stay below this; cold run seeds start above it,
#: so no cold request repeats a hot one.
COLD_SEED_BASE = 10**7


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def search_instances(workload: str, seed: int) -> List[Dict[str, Any]]:
    """The instances one search run cycles through, in seeded order."""
    shapes = EXHAUSTIVE_SHAPES if workload == "search-exhaustive" else HEURISTIC_SHAPES
    rng = _rng(workload, seed)
    instances = []
    for family, topology, rounds in shapes:
        if family == "S":
            protocol = f"S:{rng.choice(EPSILON_CHOICES)}"
        else:
            protocol = f"W:{rng.randint(1, max(1, rounds // 2))}"
        instances.append(
            {
                "protocol": protocol,
                "topology": topology,
                "rounds": rounds,
                "rng": rng.randrange(2**31),
            }
        )
    rng.shuffle(instances)
    return instances


def _request(run: str) -> Dict[str, Any]:
    return {
        "protocol": SERVE_PROTOCOL,
        "topology": SERVE_TOPOLOGY,
        "rounds": SERVE_ROUNDS,
        "run": run,
    }


def hot_set(seed: int) -> List[Dict[str, Any]]:
    """The distinct requests serve-hot cycles through."""
    rng = _rng("serve-hot", seed)
    seeds = rng.sample(range(1, COLD_SEED_BASE), HOT_SET_SIZE)
    return [_request(f"loss:{rng.choice(LOSS_CHOICES)}:{run_seed}") for run_seed in seeds]


class ColdRequests:
    """Serve-cold's request ``i``: a distinct seeded ``loss:P:SEED`` run."""

    def __init__(self, seed: int) -> None:
        self._base = COLD_SEED_BASE + _rng("serve-cold", seed).randrange(10**9)

    def __call__(self, index: int) -> Dict[str, Any]:
        run_seed = self._base + index
        loss = LOSS_CHOICES[random.Random(run_seed).randrange(len(LOSS_CHOICES))]
        return _request(f"loss:{loss}:{run_seed}")


#: A request outside both sets, sent once per boot before timing so
#: serve-cold's first timed request does not pay for lazy imports.
WARMUP_REQUEST = _request("good")


def encode(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()
