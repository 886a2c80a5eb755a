"""Percentiles of latency samples."""

from __future__ import annotations

__all__ = ["MIN_TAIL_SAMPLES", "percentile", "tail_percentile"]

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail_percentile(samples, q: float) -> float | None:
    """``percentile(samples, q)``, or None with too few samples beyond it.

    A tail figure read off fewer than :data:`MIN_TAIL_SAMPLES` samples
    above it is mostly noise, so callers report it as missing instead.
    """
    value = percentile(samples, q)
    beyond = sum(1 for s in samples if s > value)
    return value if beyond >= MIN_TAIL_SAMPLES else None

