"""Pluggable memo caches for the evaluation :class:`~repro.engine.Engine`.

The engine memoizes exact evaluation results keyed on
:meth:`Engine.cache_key <repro.engine.Engine.cache_key>` — the
hashable ``(protocol, topology, run, method, trials)`` tuple.  This
module makes that cache an explicit, swappable component instead of a
private dict inside one engine:

* :class:`EngineCache` — the interface every cache implements
  (``get`` / ``put`` / ``clear`` / ``__len__``).  Implementations must
  treat keys and results as immutable shared values: the engine hands
  the same objects to every caller, and a cache hit replays the stored
  result verbatim.  Rule RC005 of :mod:`repro.staticcheck` enforces
  that contract statically over :data:`CACHE_SURFACE_QUALNAMES`.
* :class:`InProcessCache` — the bounded FIFO dict cache the engine has
  always used, now behind the interface.

Thread-affinity: like the engine itself, a cache instance belongs to
one evaluation thread at a time.  The engine serializes its own access
(the service tier runs one engine thread); the cache does not lock.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Optional, Tuple

from ..core.probability import EventProbabilities

#: Cache-surface methods RC005 verifies: they may mutate the cache's
#: own state (that is their job) but must not mutate keys or results,
#: touch module globals, or consume RNG/clock — a hit replays the
#: stored value, so anything impure would be silently frozen into it.
CACHE_SURFACE_QUALNAMES: Tuple[str, ...] = (
    "repro.engine.cache.InProcessCache.get",
    "repro.engine.cache.InProcessCache.put",
)


class EngineCache(ABC):
    """The memo-cache interface the engine evaluates against.

    Keys are ``Engine.cache_key`` tuples (never ``None`` — the engine
    skips the cache for unhashable specs before calling in here).
    Values are exact :class:`EventProbabilities` results; the engine
    never asks a cache to store a Monte-Carlo estimate.
    """

    @abstractmethod
    def get(self, key: tuple) -> Optional[EventProbabilities]:
        """The stored result for ``key``, or ``None`` on a miss."""

    @abstractmethod
    def put(self, key: tuple, result: EventProbabilities) -> None:
        """Store one exact result (evicting per policy if full)."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry."""

    @abstractmethod
    def __len__(self) -> int:
        """The number of stored entries."""


class InProcessCache(EngineCache):
    """Bounded FIFO dict cache: the engine's historical default.

    ``max_size <= 0`` disables storage entirely (every ``put`` is a
    no-op), matching the old ``Engine(cache_size=0)`` behavior.
    """

    def __init__(self, max_size: int) -> None:
        self.max_size = max_size
        self._data: "OrderedDict[tuple, EventProbabilities]" = OrderedDict()

    def get(self, key: tuple) -> Optional[EventProbabilities]:
        return self._data.get(key)

    def put(self, key: tuple, result: EventProbabilities) -> None:
        if self.max_size <= 0:
            return
        if key not in self._data and len(self._data) >= self.max_size:
            self._data.popitem(last=False)
        self._data[key] = result

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)
