"""The ledger's estimators: one definition of median, percentile and spread.

A round's value is a median (or a rate) over its operations; which round a
run reports is decided in ``run.summarise``, and ``round_spread`` says how
far the rounds disagree.
"""

from __future__ import annotations

import statistics


def median(values) -> float:
    """Median, 0.0 for no samples (a workload that does not feed a metric)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, share: float) -> float:
    """Linear-interpolated percentile; ``share`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def round_spread(values) -> float:
    """``(max - min) / median`` of per-round values; 0.0 for fewer than two."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0
