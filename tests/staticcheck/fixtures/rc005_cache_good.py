# repro: path=src/repro/engine/cache.py
"""Fixture impersonating the cache surface with compliant bodies."""


class InProcessCache:
    def __init__(self, max_size):
        self.max_size = max_size
        self._data = {}

    def get(self, key):
        return self._data.get(key)

    def put(self, key, result):
        if self.max_size <= 0:
            return
        if key not in self._data and len(self._data) >= self.max_size:
            self._data.popitem()
        self._data[key] = result
