"""Order statistics and process/host readings shared by the harness."""

from __future__ import annotations

import bisect
import math
import os
import time
from typing import Dict, List, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``%
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The nearest-rank 50th percentile."""
    return percentile(values, 50)


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5); the split above
    # drops the first two (pid, comm), so they sit at 11 and 12.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_cpu() -> Dict[str, float]:
    """Aggregate CPU seconds from ``/proc/stat``: busy and stolen."""
    with open("/proc/stat") as handle:
        fields = [int(field) for field in handle.readline().split()[1:]]
    tick = float(os.sysconf("SC_CLK_TCK"))
    user, nice, system, _idle, _iowait, irq, softirq = fields[:7]
    steal = fields[7] if len(fields) > 7 else 0
    return {
        "busy_s": (user + nice + system + irq + softirq) / tick,
        "steal_s": steal / tick,
    }


class NoiseMeter:
    """CPU steal and other processes' CPU over one timed window.

    The caller reports the CPU its worker process (search worker or
    server) used in the window; with this process's own CPU subtracted
    too, what kept a CPU busy is other processes and kernel interrupt
    work (loopback networking included).  Both readings let a noisy
    run be told apart from a regression.
    """

    def __init__(self) -> None:
        self._host = host_cpu()
        self._own = time.process_time()

    def stop(self, worker_cpu_s: float) -> Dict[str, float]:
        host = host_cpu()
        own = time.process_time() - self._own + worker_cpu_s
        return {
            "steal_s": host["steal_s"] - self._host["steal_s"],
            "other_cpu_s": max(0.0, host["busy_s"] - self._host["busy_s"] - own),
        }


#: Iterations of :func:`probe_host`'s loop.
PROBE_ITERATIONS = 30_000

#: The probe time, in ms, that defines the host's nominal speed: about
#: the probe's median on the 2-vCPU VM the benchmark was written on.
#: Set-up and search op timings are reported at this speed.
NOMINAL_PROBE_MS = 2.5


def probe_host() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed.

    The loop uses nothing from the program, so no change to the program
    can move it.  On a shared host its time swings by half or more from
    one stretch of seconds or minutes to the next, and a CPU-bound op's
    time swings with it.
    """
    started = time.perf_counter()
    total = 0
    for index in range(PROBE_ITERATIONS):
        total += index * index % 7
    return time.perf_counter() - started


#: A timed window is cut into this many equal slices; each end-to-end
#: timing is the median over the slices, so a burst of CPU steal that
#: spoils one slice does not move the reported figure.
SLICES = 5


def nominal(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while :func:`probe_host` took ``probe_s``,
    scaled to the nominal host speed."""
    return seconds * NOMINAL_PROBE_MS / (probe_s * 1e3)


#: An op's host speed is the median of the probes taken within this
#: many seconds of its start (the nearest probe, if none was).
PROBE_SPAN_S = 2.0


def local_probes(starts: Sequence[float], probes: Sequence[Sequence[float]]) -> List[float]:
    """The probe time (s) that stands for the host speed at each start."""
    if not probes:
        raise ValueError("no host speed probes")
    ordered = sorted((moment, seconds) for moment, seconds in probes)
    times = [moment for moment, _ in ordered]
    values = [seconds for _, seconds in ordered]
    local = []
    for start in starts:
        low = bisect.bisect_left(times, start - PROBE_SPAN_S)
        high = bisect.bisect_right(times, start + PROBE_SPAN_S)
        if low == high:
            nearest = min(range(max(0, low - 1), min(len(times), low + 1)),
                          key=lambda index: abs(times[index] - start))
            low, high = nearest, nearest + 1
        local.append(median(values[low:high]))
    return local


def summarize(
    starts: Sequence[float],
    latencies_s: Sequence[float],
    probes: Optional[Sequence[Sequence[float]]] = None,
) -> Dict[str, float]:
    """p50/p90 latency (ms) and throughput of one timed window.

    Ops are grouped by start time into :data:`SLICES` equal slices of
    the window; each figure is the median of its per-slice values.  A
    slice's throughput is its ops divided by the time from its first
    start to its last finish.  ``probes``, if given, holds ``(time,
    seconds)`` pairs of :func:`probe_host` runs taken during the window:
    each op's latency is then scaled to the nominal host speed by its
    :func:`local_probes` time, and each slice's throughput by the median
    of its ops' probe times.
    """
    if not starts:
        raise ValueError("no ops in the window")
    if probes is None:
        speeds = [NOMINAL_PROBE_MS / 1e3] * len(starts)
    else:
        speeds = local_probes(starts, probes)
    begin = min(starts)
    width = (max(starts) - begin) / SLICES or 1.0
    slices: List[List[int]] = [[] for _ in range(SLICES)]
    for index, start in enumerate(starts):
        slices[min(int((start - begin) / width), SLICES - 1)].append(index)
    per_slice = []
    for members in filter(None, slices):
        latencies = [nominal(latencies_s[index], speeds[index]) for index in members]
        first = min(starts[index] for index in members)
        last = max(starts[index] + latencies_s[index] for index in members)
        elapsed = nominal(last - first, median([speeds[index] for index in members]))
        per_slice.append(
            (
                percentile(latencies, 50) * 1e3,
                percentile(latencies, 90) * 1e3,
                len(members) / elapsed,
            )
        )
    return {
        name: median([values[position] for values in per_slice])
        for position, name in enumerate(
            ("latency_p50_ms", "latency_p90_ms", "throughput_per_s")
        )
    }
