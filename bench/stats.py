"""Summaries of repeated measurements: median, quartiles and sample count."""

from __future__ import annotations

import statistics

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def summarize(values: list[float]) -> dict:
    """Median, first and third quartile, sample count, and the highest of
    p90/p99 that has TAIL_SAMPLES samples beyond it (if any)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        q1 = q3 = ordered[0]
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    out = {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": n}
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= TAIL_SAMPLES:
            out[f"p{pct}"] = statistics.quantiles(ordered, n=100)[pct - 1]
            break
    return out
