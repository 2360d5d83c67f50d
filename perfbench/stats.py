"""Summary statistics with the benchmark's sample-size rules.

A median is reported whenever there is at least one sample.  A tail
percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it; with fewer samples the highest percentile that has that many
beyond it is reported instead, and with too few for any tail above the
median nothing is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """A percentile as reported: the value, the rank actually used, and
    the sample count (``used < wanted`` when the sample was too small)."""

    value: float
    wanted: float
    used: float
    n: int


def median(values: Sequence[float]) -> Optional[float]:
    if not values:
        return None
    s = sorted(values)
    mid = len(s) // 2
    if len(s) % 2:
        return float(s[mid])
    return (s[mid - 1] + s[mid]) / 2.0


def tail(values: Sequence[float], wanted: float) -> Optional[Percentile]:
    """Nearest-rank percentile ``wanted`` (a fraction, e.g. 0.99) under the
    ten-beyond rule.

    The value at sorted index ``k`` has ``n - 1 - k`` samples beyond it.
    If the wanted rank leaves fewer than ``MIN_BEYOND`` beyond, the rank
    drops to ``n - 1 - MIN_BEYOND``; if that is not above the median, no
    tail is reported (``None``).
    """
    n = len(values)
    if not 0.5 < wanted < 1.0:
        raise ValueError("a tail percentile lies strictly between 0.5 and 1")
    if n == 0:
        return None
    s = sorted(values)
    k = max(0, math.ceil(wanted * n) - 1)
    if n - 1 - k < MIN_BEYOND:
        k = n - 1 - MIN_BEYOND
    used = (k + 1) / n
    if k < 0 or used <= 0.5:
        return None
    return Percentile(float(s[k]), wanted, min(used, wanted), n)


def linear_fit(
    xs: Sequence[Sequence[float]], ys: Sequence[float]
) -> Optional[Tuple[List[float], float]]:
    """Least-squares ``y = c0 + c1*x1 + ...``; returns ``(coeffs, rms
    residual)`` or ``None`` when the system is under-determined."""
    import numpy as np

    if not ys:
        return None
    a = np.column_stack([np.ones(len(ys))] + [np.asarray(col, float) for col in zip(*xs)])
    y = np.asarray(ys, dtype=float)
    if len(ys) <= a.shape[1] or np.linalg.matrix_rank(a) < a.shape[1]:
        return None
    coeffs, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coeffs
    return [float(c) for c in coeffs], float(np.sqrt(np.mean(resid**2)))
