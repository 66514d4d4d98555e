"""Batched evaluation engine: one front door for ``Pr[X | R]``.

Public surface:

* :class:`Engine` — the facade with pluggable backends (``auto`` /
  ``reference`` / ``vectorized`` / ``meanfield``), a pluggable memo
  cache over exact results, and instrumentation counters
  (:class:`EngineStats`);
* :mod:`repro.engine.cache` — the :class:`EngineCache` interface with
  the in-process FIFO default (:class:`InProcessCache`);
* :func:`default_engine` — the process-wide engine that
  :func:`repro.core.probability.evaluate_many` delegates to;
* :mod:`repro.engine.vectorized` — the numpy batch kernels, including
  the two-general fast paths that ``analysis.fast_mc`` now wraps.
"""

from .cache import EngineCache, InProcessCache
from .engine import (
    BACKENDS,
    DEFAULT_CACHE_SIZE,
    Engine,
    EngineBusyError,
    EngineStats,
    MIN_VECTORIZED_BATCH,
    default_engine,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_CACHE_SIZE",
    "Engine",
    "EngineBusyError",
    "EngineCache",
    "EngineStats",
    "InProcessCache",
    "MIN_VECTORIZED_BATCH",
    "default_engine",
]
