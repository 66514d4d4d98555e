"""Coalescing behavior of the micro-batcher."""

import asyncio
import dataclasses
import threading

from repro.core.probability import evaluate
from repro.core.topology import Topology
from repro.engine import Engine, InProcessCache
from repro.obs import MetricsRegistry
from repro.obs.audit import AuditLogger, TraceContext
from repro.protocols.protocol_s import ProtocolS
from repro.service.batcher import MicroBatcher
from repro.service.specs import parse_evaluate_payload


def requests_for(runs, topology="pair"):
    return [
        parse_evaluate_payload(
            {"protocol": "S:0.25", "topology": topology, "rounds": 8, "run": run}
        )
        for run in runs
    ]


def assert_own_answers(requests, results):
    """Each waiter got the answer for its own run."""
    for request, result in zip(requests, results):
        expected = evaluate(request.protocol, request.topology, request.run)
        assert result.pr_partial_attack == expected.pr_partial_attack
        assert result.pr_total_attack == expected.pr_total_attack


def counting_engine():
    """An Engine whose evaluate_many calls are tallied."""
    engine = Engine()
    calls = []
    original = engine.evaluate_many

    def spy(protocol, topology, runs, **kwargs):
        calls.append(len(runs))
        return original(protocol, topology, runs, **kwargs)

    engine.evaluate_many = spy
    return engine, calls


def test_concurrent_submits_coalesce_into_one_batch():
    engine, calls = counting_engine()
    metrics = MetricsRegistry()
    batcher = MicroBatcher(engine, metrics, max_batch=32)
    requests = requests_for([f"cut:{k}" for k in range(1, 7)])

    async def go():
        try:
            return await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
        finally:
            await batcher.drain()
            batcher.shutdown()

    results = asyncio.run(go())
    assert calls == [6], "six concurrent submits should make one batch call"
    snapshot = metrics.snapshot()
    assert snapshot["service.batch.size"]["max"] == 6
    assert snapshot["service.batch.flushes"]["value"] == 1
    assert snapshot["service.batch.coalesced"]["value"] == 6
    assert_own_answers(requests, results)


def test_max_batch_caps_a_batch():
    engine, calls = counting_engine()
    batcher = MicroBatcher(engine, MetricsRegistry(), max_batch=2)
    requests = requests_for(["cut:1", "cut:2", "cut:3", "cut:4"])

    async def go():
        try:
            await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
        finally:
            await batcher.drain()
            batcher.shutdown()

    asyncio.run(go())
    # Four requests ready in one loop pass: the size cap splits them
    # into pairs.
    assert sorted(calls) == [2, 2]


def test_sequential_submits_are_scalar_batches():
    engine, calls = counting_engine()
    batcher = MicroBatcher(engine, MetricsRegistry(), max_batch=32)
    requests = requests_for(["cut:1", "cut:2"])

    async def go():
        try:
            for request in requests:
                await batcher.submit(request)
        finally:
            await batcher.drain()
            batcher.shutdown()

    asyncio.run(go())
    assert calls == [1, 1]


def test_batch_errors_reach_every_waiter():
    engine, _ = counting_engine()

    def explode(*args, **kwargs):
        raise RuntimeError("backend fell over")

    engine.evaluate_many = explode
    batcher = MicroBatcher(engine, MetricsRegistry(), max_batch=32)
    requests = requests_for(["cut:1", "cut:2"])

    async def go():
        try:
            return await asyncio.gather(
                *(batcher.submit(request) for request in requests),
                return_exceptions=True,
            )
        finally:
            await batcher.drain()
            batcher.shutdown()

    results = asyncio.run(go())
    assert len(results) == 2
    assert all(isinstance(result, RuntimeError) for result in results)


def test_idle_batcher_dispatches_without_a_timer():
    engine, calls = counting_engine()
    batcher = MicroBatcher(engine, MetricsRegistry())
    requests = requests_for(["cut:3"])

    async def go():
        def no_timer(*args, **kwargs):
            raise AssertionError("the batcher armed a timer")

        loop = asyncio.get_running_loop()
        loop.call_later = no_timer
        try:
            return [await batcher.submit(requests[0])]
        finally:
            del loop.call_later
            await batcher.drain()
            batcher.shutdown()

    results = asyncio.run(go())
    assert calls == [1]
    assert_own_answers(requests, results)


def test_requests_arriving_during_a_batch_ride_the_next_one():
    engine = Engine()
    calls = []
    started, release = threading.Event(), threading.Event()
    original = engine.evaluate_many

    def blocking_spy(protocol, topology, runs, **kwargs):
        calls.append(len(runs))
        if len(calls) == 1:
            started.set()
            assert release.wait(timeout=30)
        return original(protocol, topology, runs, **kwargs)

    engine.evaluate_many = blocking_spy
    batcher = MicroBatcher(engine, MetricsRegistry())
    requests = requests_for([f"cut:{k}" for k in range(1, 6)])

    async def go():
        loop = asyncio.get_running_loop()
        try:
            first = asyncio.ensure_future(batcher.submit(requests[0]))
            assert await loop.run_in_executor(None, started.wait, 30)
            rest = [
                asyncio.ensure_future(batcher.submit(request))
                for request in requests[1:]
            ]
            await asyncio.sleep(0)  # r2-r5 join the forming batch
            release.set()
            return await asyncio.gather(first, *rest)
        finally:
            release.set()
            await batcher.drain()
            batcher.shutdown()

    results = asyncio.run(go())
    assert calls == [1, 4]
    assert_own_answers(requests, results)


def test_a_batch_chained_from_a_sampled_one_keeps_its_own_verdict():
    """The batch that forms while a sampled batch computes is
    dispatched from that batch's task, in a context copied from the
    sampled request.  All its members are unsampled, so its engine
    span must not join the request's tree or reach the audit sink."""
    engine = Engine()
    calls = []
    started, release = threading.Event(), threading.Event()
    original = engine.evaluate_many

    def blocking_spy(protocol, topology, runs, **kwargs):
        calls.append(len(runs))
        if len(calls) == 1:
            started.set()
            assert release.wait(timeout=30)
        return original(protocol, topology, runs, **kwargs)

    engine.evaluate_many = blocking_spy
    audit = AuditLogger()
    batcher = MicroBatcher(engine, MetricsRegistry(), audit=audit)
    tracer = engine.obs.tracer
    requests = requests_for(["cut:1", "cut:2", "cut:3"])
    sampled = TraceContext("client", sampled=True, client_supplied=True)
    unsampled = TraceContext("generated", sampled=False, client_supplied=False)

    async def sampled_request():
        with tracer.root("service.request", audit, request_id="client"):
            return await batcher.submit(requests[0], trace=sampled)

    async def go():
        loop = asyncio.get_running_loop()
        try:
            first = asyncio.ensure_future(sampled_request())
            assert await loop.run_in_executor(None, started.wait, 30)
            rest = [
                asyncio.ensure_future(batcher.submit(request, trace=unsampled))
                for request in requests[1:]
            ]
            await asyncio.sleep(0)  # both join the forming batch
            release.set()
            return await asyncio.gather(first, *rest)
        finally:
            release.set()
            await batcher.drain()
            batcher.shutdown()

    results = asyncio.run(go())
    assert calls == [1, 2]
    assert_own_answers(requests, results)
    assert sorted(record["name"] for record in audit.recent()) == [
        "engine.evaluate_many",
        "service.batch",
        "service.request",
    ]


class _UnhashableS(ProtocolS):
    __hash__ = None


def test_unhashable_specs_are_batches_of_their_own():
    engine, calls = counting_engine()
    batcher = MicroBatcher(engine, MetricsRegistry())
    requests = [
        dataclasses.replace(request, protocol=_UnhashableS(epsilon=0.25))
        for request in requests_for(["cut:2", "cut:5"])
    ]
    assert engine.batch_key(requests[0].protocol, requests[0].topology) is None

    async def go():
        try:
            return await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
        finally:
            await batcher.drain()
            batcher.shutdown()

    results = asyncio.run(go())
    assert calls == [1, 1]
    assert_own_answers(requests, results)


class _KeyRecordingCache(InProcessCache):
    """An in-process cache that keeps every key it was handed."""

    def __init__(self):
        super().__init__(max_size=1024)
        self.keys = []

    def put(self, key, result):
        self.keys.append(key)
        super().put(key, result)


def test_cached_batches_share_one_topology_object():
    cache = _KeyRecordingCache()
    engine = Engine(cache=cache)
    batcher = MicroBatcher(engine, MetricsRegistry())
    requests = requests_for(
        [f"loss:0.3:{seed}" for seed in range(6)], topology="grid:3x3"
    )

    async def go():
        try:
            for request in requests:
                await batcher.submit(request)
        finally:
            await batcher.drain()
            batcher.shutdown()

    asyncio.run(go())
    assert len(cache) == len(requests)
    shared = requests[0].topology
    for key in cache.keys:
        topologies = [part for part in key if isinstance(part, Topology)]
        assert topologies and all(part is shared for part in topologies)
