"""The array grid search and the scalar bisection that ``voi`` and ``bregman``
build on.

The call count pins the grid: one scan call on ``GRID_CELLS + 1`` points,
90 ternary calls on two points each and one final call on one point, so a
change to the grid or the refinement shows here before it moves a ``lemma``
or ``voi`` digest.
"""

import numpy as np
import pytest

from dualsig._search import GRID_CELLS, bisect, minimize_grid_refine


def counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def test_grid_refine_finds_the_quadratic_minimum_in_10182_points():
    f, calls = counted(lambda x: (x - 0.3) ** 2)
    assert minimize_grid_refine(f, 0.0, 1.0) == 0.0
    assert len(calls) == 92 == 1 + 90 + 1
    assert sum(x.size for x in calls) == 10_182 == GRID_CELLS + 1 + 2 * 90 + 1


def test_grid_refine_on_a_constant_keeps_the_first_grid_point():
    f, calls = counted(np.ones_like)
    assert minimize_grid_refine(f, 0.0, 1.0) == 1.0
    # ties go to the first point, and every ternary step keeps the left part
    assert calls[-1].tolist() == [7.09180342944885e-21]
    assert len(calls) == 92


def test_grid_refine_scans_the_points_a_scalar_loop_would():
    f, calls = counted(np.ones_like)
    minimize_grid_refine(f, 0.1, 0.7)
    span = 0.7 - 0.1
    assert calls[0].tolist() == [0.1 + span * i / GRID_CELLS for i in range(GRID_CELLS + 1)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grid_refine_rejects_a_scan_value_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="not finite"):
        minimize_grid_refine(lambda x: np.where(x < 0.5, x, bad), 0.0, 1.0)


def test_grid_refine_needs_an_interval():
    with pytest.raises(ValueError):
        minimize_grid_refine(lambda x: x, 1.0, 1.0)


def test_bisect_runs_to_float_resolution():
    assert bisect(lambda x: x - 1.0 / 3.0, 0.0, 1.0) == 1.0 / 3.0


def test_bisect_returns_an_endpoint_root():
    assert bisect(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_needs_a_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)
