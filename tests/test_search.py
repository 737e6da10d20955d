"""The scalar grid search and bisection that ``voi`` and ``bregman`` build on.

The call count pins the grid: ``GRID_CELLS + 1`` scan points, 90 ternary
steps of two calls each and one final call, so a change to the grid or the
refinement shows here before it moves a ``lemma`` or ``voi`` digest.
"""

import pytest

from dualsig._search import GRID_CELLS, bisect, minimize_grid_refine


def counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def test_grid_refine_finds_the_quadratic_minimum_in_10182_calls():
    f, calls = counted(lambda x: (x - 0.3) ** 2)
    assert minimize_grid_refine(f, 0.0, 1.0) == (0.3, 0.0)
    assert len(calls) == 10_182 == GRID_CELLS + 1 + 2 * 90 + 1


def test_grid_refine_on_a_constant_keeps_the_first_grid_point():
    f, calls = counted(lambda x: 1.0)
    x, v = minimize_grid_refine(f, 0.0, 1.0)
    # ties go to the first point, and every ternary step keeps the left part
    assert (x, v) == (7.09180342944885e-21, 1.0)
    assert len(calls) == 10_182


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
