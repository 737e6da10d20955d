"""Scalar root finding and 1-D minimization used across the package."""

from __future__ import annotations

from typing import Callable

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
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def minimize_grid_refine(f: Callable[[float], float], lo: float,
                         hi: float) -> tuple[float, float]:
    """Minimize a unimodal function: coarse grid scan, then ternary refine.

    Returns ``(argmin, min_value)``.  The scan evaluates ``GRID_CELLS + 1``
    evenly spaced points and keeps the first minimum; 90 ternary steps then
    shrink the bracket around it by 2/3 each.
    """
    span = hi - lo
    if span <= 0.0:
        raise ValueError("need lo < hi")
    n = GRID_CELLS
    best_i, best_v = 0, f(lo)
    for i in range(1, n + 1):
        x = lo + span * i / n
        v = f(x)
        if v < best_v:
            best_i, best_v = i, v
    a = lo + span * max(best_i - 1, 0) / n
    b = lo + span * min(best_i + 1, n) / n
    for _ in range(90):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if f(m1) <= f(m2):
            b = m2
        else:
            a = m1
        if b - a <= 0.0:
            break
    x = 0.5 * (a + b)
    v = f(x)
    if best_v < v:
        return lo + span * best_i / n, best_v
    return x, v
