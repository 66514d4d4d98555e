# repro: path=src/repro/engine/cache.py
"""Fixture impersonating the cache surface with impure bodies."""

import random
import time

_EPOCH = {}


class InProcessCache:
    def __init__(self, max_size):
        self.max_size = max_size
        self._data = {}

    def get(self, key):
        global _EPOCH
        _EPOCH[key] = time.time()
        return self._data.get(key)

    def put(self, key, result):
        result.append(random.random())
        key["stamp"] = time.monotonic()
        self._data[key] = result
