"""Scalar root finding and array-objective 1-D minimization for the package."""

from __future__ import annotations

from typing import Callable

import numpy as np

GRID_CELLS = 10_000


def bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a sign-changing continuous function on [lo, hi].

    Halves the bracket for at most 200 steps or until it reaches float
    resolution, keeping the endpoint ordering given by the caller.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def minimize_grid_refine(f: Callable[[np.ndarray], np.ndarray], lo: float,
                         hi: float) -> float:
    """Minimum of a unimodal ``f``, which maps an array of points to values.

    One call scans ``GRID_CELLS + 1`` points ``lo + span * i / n`` (rounded
    as a scalar loop would), whose values must all be finite, and keeps the
    first minimum; 90 ternary steps of one call on ``[m1, m2]`` shrink the
    bracket around it by 2/3 each.  Returns the lower of the bracket
    midpoint's value and the scan's minimum.
    """
    span = hi - lo
    if span <= 0.0:
        raise ValueError("need lo < hi")
    n = GRID_CELLS
    scan = f(lo + span * np.arange(n + 1) / n)
    if not np.isfinite(scan).all():
        raise ValueError(f"objective is not finite on the scan of [{lo}, {hi}]")
    best_i = int(np.argmin(scan))
    a = lo + span * max(best_i - 1, 0) / n
    b = lo + span * min(best_i + 1, n) / n
    for _ in range(90):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        v1, v2 = f(np.array([m1, m2]))
        if v1 <= v2:
            b = m2
        else:
            a = m1
    x = 0.5 * (a + b)
    return min(float(f(np.array([x]))[0]), float(scan[best_i]))
