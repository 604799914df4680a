"""Summary statistics the benchmark reports, with its sampling rules."""

from __future__ import annotations

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MIN_BEYOND = 10  # a reported percentile needs at least this many samples above it


def median(values) -> float:
    return float(statistics.median(values))


def samples_needed(q: float) -> int:
    """Fewest samples for which percentile ``q`` has MIN_BEYOND samples beyond it."""
    n = 1
    while n - math.ceil(q * n / 100.0) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; refuses when fewer than MIN_BEYOND samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} beyond it; "
            f"at least {samples_needed(q)} samples are needed"
        )
    return float(ordered[rank - 1])


def window_percentiles(values, q: float, window: int) -> list[float]:
    """Percentile ``q`` of each run of ``window`` consecutive samples; a partial last window is left out.

    Each window still needs MIN_BEYOND samples beyond its percentile.
    """
    values = list(values)
    if len(values) < window:
        raise ValueError(f"windows of {window} samples need at least {window}, got {len(values)}")
    return [percentile(values[i : i + window], q) for i in range(0, len(values) - window + 1, window)]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def check_name(name: str) -> str:
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"metric name {name!r} must match {NAME_RE.pattern}")
    return name
