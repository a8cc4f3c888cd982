"""Order statistics shared by the runner and the compare tool.

Percentiles and quartiles are numpy's default, linear interpolation
between closest ranks: the p-th percentile of n sorted samples sits at
rank p/100 * (n - 1).
"""

from __future__ import annotations

import math

import numpy as np

# A tail percentile is only reported where at least this many samples lie
# beyond it; fewer and one slow task decides the figure.
TAIL_SAMPLES = 10
TAIL_PERCENTILE = 90.0


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the p-th percentile rank."""
    return n - 1 - math.floor(p / 100.0 * (n - 1))


def tail_percentile(n: int) -> float:
    """The highest percentile, capped at p90, with TAIL_SAMPLES samples beyond it.

    With n >= 100 this is p90; a shorter run falls back to a lower
    percentile, which the result reports next to the sample count.
    """
    if n < TAIL_SAMPLES + 1:
        raise ValueError(
            "need at least %d samples for a tail percentile, got %d"
            % (TAIL_SAMPLES + 1, n)
        )
    p = TAIL_PERCENTILE
    while samples_beyond(n, p) < TAIL_SAMPLES:
        p -= 1.0
    return p


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)
