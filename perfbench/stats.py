"""Order statistics, the calibration spin, and host-speed normalization.

Pure functions with no program imports, so the benchmark's own tests can
check the arithmetic without building any workload.
"""

from __future__ import annotations

import math
import statistics
import time

SPIN_ITERATIONS = 60_000

# A tail percentile is reported only when at least this many samples lie
# strictly beyond it; with fewer, one outlier decides the figure.
MIN_BEYOND = 10


def median(samples) -> float:
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def tail_percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` when it is not supported.

    The value is the sample of rank ``ceil(q/100 * n)`` in sorted order; it is
    supported when at least :data:`MIN_BEYOND` samples rank above it, so the
    90th percentile needs 100 samples and the median 20.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    n = len(samples)
    if n == 0:
        return None
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        return None
    return float(sorted(samples)[rank - 1])


def normalize(raw: float, spin: float, reference_spin: float) -> float:
    """Scale a wall-clock figure to the reference host speed.

    ``spin`` is the calibration spin measured over the same stretch of time as
    ``raw``; a host that runs the spin ``r`` times slower than the reference is
    assumed to run the op ``r`` times slower too, so ``raw`` is divided by
    ``spin / reference``.
    """
    if spin <= 0 or reference_spin <= 0:
        raise ValueError("spin times must be positive")
    return raw * reference_spin / spin


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), the
    definition the steadiness check applies to the ten runs of a workload.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def spin() -> float:
    """A fixed pure-Python workload; returns its wall time in seconds."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(SPIN_ITERATIONS):
        table[i & 1023] = acc
        acc = (acc * 31 + i + table.get((i * 7) & 1023, 0)) & 0xFFFFFF
    return time.perf_counter() - started
