# repro: path=src/repro/obs/audit.py
"""Fixture: audit timestamps via the runtime clock facade."""

from repro.obs.runtime import monotonic, utc_now_isoformat


def record_span(write):
    started = monotonic()
    write()
    return {"stamped": utc_now_isoformat(), "duration": monotonic() - started}
