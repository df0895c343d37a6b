"""Summary statistics for the end-to-end metrics."""

from __future__ import annotations

import math

# A reported percentile needs at least this many samples beyond it.
MIN_TAIL = 10


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    It is the mean of all order statistics, weighted by a Beta((n+1)q,
    (n+1)(1-q)) distribution over their ranks.  It varies much less from run
    to run than the single sample at rank q*n, which is what makes the
    latency metrics steady on a noisy machine.
    """
    from scipy.stats import beta

    if not values:
        raise ValueError("no samples")
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile {q} outside (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    cdf = beta.cdf([k / n for k in range(n + 1)], (n + 1) * q, (n + 1) * (1 - q))
    return float(sum((cdf[k + 1] - cdf[k]) * x for k, x in enumerate(ordered)))


def samples_beyond(count: int, q: float) -> int:
    """How many of `count` samples lie beyond rank ceil(q * count)."""
    return count - max(1, math.ceil(q * count))


def latency_summary(samples_ms) -> dict:
    """Median and p75 of per-item latency, with the sample count.

    Raises ValueError when fewer than MIN_TAIL samples lie beyond p75, so a
    reported p75 always rests on a tail of at least ten items.
    """
    count = len(samples_ms)
    if samples_beyond(count, 0.75) < MIN_TAIL:
        raise ValueError(
            f"{count} samples leave fewer than {MIN_TAIL} beyond p75"
        )
    return {
        "p50": percentile(samples_ms, 0.5),
        "p75": percentile(samples_ms, 0.75),
        "samples": count,
    }


def fail_frac(outcomes) -> float:
    """Share of attempted items whose check failed; `outcomes` holds one
    (ok, reason) pair per attempted item."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no attempted items")
    return sum(1 for ok, _ in outcomes if not ok) / len(outcomes)
