# repro: path=src/repro/service/fixture_async_super_bad.py
"""Fixture: blocking work in a base constructor reached via super()."""


class Base:
    def __init__(self, path):
        self.handle = open(path)


class Child(Base):
    def __init__(self, path):
        super().__init__(path)


async def handle_request(path):
    return Child(path)
