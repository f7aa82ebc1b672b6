"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
import time
from typing import Sequence, Tuple

#: A reported percentile needs at least this many samples above it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def samples_needed(percent: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples above ``percent``."""
    if not 0 < percent < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    return math.ceil(beyond / (1.0 - percent / 100.0) - 1e-9)


def percentile(values: Sequence[float], percent: float, beyond: int = MIN_BEYOND) -> float:
    """The ``percent``-th percentile, refused without ``beyond`` samples above it.

    Uses the nearest-rank definition: the value at rank
    ``ceil(percent/100 * n)``, so exactly ``n - rank`` samples lie beyond it.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n < samples_needed(percent, beyond):
        raise ValueError(
            "p%g needs %d samples for %d beyond it; got %d"
            % (percent, samples_needed(percent, beyond), beyond, n)
        )
    rank = max(1, math.ceil(percent / 100.0 * n - 1e-9))
    return ordered[rank - 1]


def cpu_ticks() -> Tuple[int, int]:
    """(stolen, total) CPU ticks of the host so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:9]
    except OSError:
        return 0, 0
    return int(fields[7]), sum(int(f) for f in fields)


class Stopwatch:
    """Wall time with the hypervisor's steal taken out.

    On a shared VM the hypervisor takes a varying share of the CPUs
    ("steal"); it swings from 0 to over 20% within minutes and is not
    the program's doing.  :meth:`stop` scales the wall time by one
    minus the CPUs' stolen share over the interval.
    """

    def __init__(self) -> None:
        self._ticks = cpu_ticks()
        self._start = time.perf_counter()

    def stop(self) -> Tuple[float, float]:
        """(wall time without steal, stolen share) since construction."""
        wall = time.perf_counter() - self._start
        stolen, total = (a - b for a, b in zip(cpu_ticks(), self._ticks))
        share = stolen / total if total > 0 else 0.0
        return wall * (1.0 - share), share
