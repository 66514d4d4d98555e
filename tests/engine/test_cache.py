"""The pluggable :mod:`repro.engine.cache` layer.

Covers the :class:`EngineCache` interface contract (injection, FIFO
bounds, disabled storage) and the :class:`EngineBusyError` guard that
keeps cache maintenance off a cache with evaluations in flight.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.core.probability import EventProbabilities
from repro.core.run import good_run
from repro.core.topology import Topology
from repro.engine import Engine, EngineBusyError, EngineCache, InProcessCache
from repro.protocols.protocol_s import ProtocolS

PAIR = Topology.pair()


class TestInProcessCache:
    def test_fifo_eviction_at_max_size(self):
        cache = InProcessCache(max_size=2)
        result = object()
        cache.put(("a",), result)
        cache.put(("b",), result)
        cache.put(("c",), result)
        assert len(cache) == 2
        assert cache.get(("a",)) is None  # oldest entry evicted first
        assert cache.get(("b",)) is result
        assert cache.get(("c",)) is result

    def test_overwriting_existing_key_does_not_evict(self):
        cache = InProcessCache(max_size=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("a",), 3)
        assert len(cache) == 2
        assert cache.get(("a",)) == 3
        assert cache.get(("b",)) == 2

    def test_zero_size_disables_storage(self):
        cache = InProcessCache(max_size=0)
        cache.put(("a",), 1)
        assert len(cache) == 0
        assert cache.get(("a",)) is None

    def test_clear(self):
        cache = InProcessCache(max_size=4)
        cache.put(("a",), 1)
        cache.clear()
        assert len(cache) == 0


class _RecordingCache(EngineCache):
    """Minimal injected implementation proving the seam is real."""

    def __init__(self) -> None:
        self.calls: List[Tuple[str, tuple]] = []
        self._data: dict = {}

    def get(self, key: tuple) -> Optional[EventProbabilities]:
        self.calls.append(("get", key))
        return self._data.get(key)

    def put(self, key: tuple, result: EventProbabilities) -> None:
        self.calls.append(("put", key))
        self._data[key] = result

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class TestEngineCacheInjection:
    def test_engine_routes_through_injected_cache(self):
        cache = _RecordingCache()
        engine = Engine(backend="reference", cache=cache)
        protocol = ProtocolS(epsilon=0.25)
        run = good_run(PAIR, 4)
        first = engine.evaluate(protocol, PAIR, run)
        second = engine.evaluate(protocol, PAIR, run)
        assert first == second
        assert engine.stats.cache_hits == 1
        assert len(cache) == 1
        kinds = [kind for kind, _ in cache.calls]
        assert kinds == ["get", "put", "get"]
        expected = Engine.cache_key(protocol, PAIR, run)
        assert all(key == expected for _, key in cache.calls)

    def test_default_cache_is_bounded_in_process(self):
        engine = Engine(backend="reference", cache_size=7)
        assert isinstance(engine.cache, InProcessCache)
        assert engine.cache.max_size == 7


class TestBusyGuard:
    def test_cache_maintenance_refused_while_evaluating(self):
        """The thread-affinity contract is enforced: with an
        evaluation in flight, every cache-mutating entry point raises
        instead of pulling entries out from under the reader."""
        engine = Engine(backend="reference", cache_size=16)
        engine.evaluate(ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, 4))
        with engine._evaluating():
            with pytest.raises(EngineBusyError, match="in flight"):
                engine.clear_cache()
            with pytest.raises(EngineBusyError, match="in flight"):
                engine.reset()
            # Reads stay safe under the same condition.
            assert engine.cache_len == 1
        engine.clear_cache()  # guard releases once evaluations finish
        assert engine.cache_len == 0
