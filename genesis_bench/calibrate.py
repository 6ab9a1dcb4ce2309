"""The calibration loop that turns measured intervals into calibrated time.

The host the bounds were set on shares its CPUs with other tenants; its
speed drifts by up to ~2x over minutes.  Every interval the benchmark
reports is therefore divided by the time of this fixed pure-Python loop,
timed right next to the interval, and multiplied by the loop's nominal
time :data:`NOMINAL_S`.  The result reads as seconds on that host at
its undisturbed speed.  The loop mixes what the program under test
does most (object creation, attribute access, dict and set traffic,
small function calls, sorting) and never touches the program, so a
change to the program cannot move it.  The collector is paused while
it runs, so heap size does not leak into the calibration.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

#: median time of one :func:`sample` on the host the bounds were set
#: on (2 CPUs, Python 3.11) in a quiet period
NOMINAL_S = 0.0034

_SIZE = 4000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: str):
        self.key = key
        self.value = value

    def score(self, other: "_Item") -> int:
        return (self.key * 31 + other.key) % 97


def _loop() -> int:
    items = [_Item((i * 7919) % 1009, str(i)) for i in range(_SIZE)]
    buckets: dict[int, list[_Item]] = {}
    for item in items:
        buckets.setdefault(item.key % 61, []).append(item)
    total = 0
    for bucket in buckets.values():
        bucket.sort(key=lambda item: (item.key, item.value))
        seen = set()
        for left, right in zip(bucket, bucket[1:]):
            score = left.score(right)
            if score not in seen:
                seen.add(score)
                total += score
    return total


def sample() -> float:
    """Seconds one calibration loop takes right now."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


def sample_each_cpu() -> float:
    """Mean of one sample pinned to each CPU this process may use, for
    work that runs on all of them at once (the service's workers)."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(sample())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def factor(samples) -> float:
    """Multiply a measured interval by this to calibrate it."""
    return NOMINAL_S / statistics.median(samples)
