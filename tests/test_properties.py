"""Property tests of the paper's invariants over the feasible region.

A point is ``(tau0, tau_h, tau_a, lam)`` with ``0 <= lam <= min(tau_h/tau_a, 1)``,
drawn at ``lam = 0``, in the interior, and on the boundary (which is
``lam == 1`` whenever ``tau_a <= tau_h``).  The precisions come from
``[1e-3, 1e3]``, or log-uniformly from ``[1e-12, 1e12]`` for the invariants
that hold at every scale; the thresholds meet at ``lambda_bar`` only up to
the rounding of ``lambda_bar`` itself, so that property stays on the
conditioned range.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsig.core import SignalSpec, feasible, loss_profile
from dualsig.regimes import Regime, classify, lambda_bar, phase_sweep, tau_auto, tau_aug

PRECISIONS = st.floats(1e-3, 1e3)
EXTREME_PRECISIONS = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


@st.composite
def feasible_points(draw, precisions=PRECISIONS):
    tau0, tau_h, tau_a = draw(precisions), draw(precisions), draw(precisions)
    bound = min(tau_h / tau_a, 1.0)
    lam = draw(st.one_of(st.just(0.0), st.just(bound), st.floats(0.0, bound)))
    return tau0, SignalSpec(tau_h=tau_h, tau_a=tau_a, lam=lam)


FULL_OVERLAP = (1.0, SignalSpec(1.0, 1.0, 1.0))
BOUNDARY = (0.5, SignalSpec(1.0, 4.0, 0.25))
# losses near 1e-12 and near 1e12, on the boundary lam = tau_h/tau_a and at lam = 1
TINY_LOSSES = (1e12, SignalSpec(1e-12, 1e12, 1e-24))
HUGE_LOSSES = (1e-12, SignalSpec(1e-12, 1e-12, 1.0))


def argmin_regime(p):
    """The regime of the first least loss in the tie order own, assistant, combination."""
    losses = (p.l_human, p.l_ai, p.l_joint_cn)
    first_min = min(range(3), key=losses.__getitem__)
    return (Regime.IMPAIRMENT, Regime.AUTOMATION, Regime.COMPLEMENTARITY)[first_min]


@settings(max_examples=150, deadline=None)
@given(point=feasible_points())
@example(point=FULL_OVERLAP)
@example(point=BOUNDARY)
def test_bayes_is_never_worse_and_the_marginal_value_is_nonnegative(point):
    tau0, spec = point
    p = loss_profile(tau0, spec)
    assert p.l_joint_bayes <= p.l_human
    assert p.l_joint_bayes <= p.l_joint_cn * (1.0 + 1e-12)
    assert p.v_marginal == p.l_human - p.l_joint_bayes >= 0.0
    if spec.lam == 1.0:
        assert p.l_joint_bayes == p.l_human and p.v_marginal == 0.0


@settings(max_examples=150, deadline=None)
@given(point=feasible_points())
@example(point=FULL_OVERLAP)  # own and assistant tie: own signal wins
@example(point=BOUNDARY)
def test_classify_is_the_argmin_with_the_simpler_system_winning_ties(point):
    p = loss_profile(*point)
    assert classify(p) is argmin_regime(p)


@settings(max_examples=300, deadline=None)
@given(point=feasible_points(EXTREME_PRECISIONS))
@example(point=TINY_LOSSES)
@example(point=HUGE_LOSSES)
def test_invariants_hold_over_extreme_precisions(point):
    tau0, spec = point
    p = loss_profile(tau0, spec)
    assert p.l_joint_bayes <= p.l_joint_cn * (1.0 + 1e-12)
    assert p.l_joint_bayes <= p.l_human
    assert p.v_marginal >= 0.0
    assert classify(p) is argmin_regime(p)


@settings(max_examples=150, deadline=None)
@given(tau0=PRECISIONS, tau_h=PRECISIONS)
def test_thresholds_meet_at_tau_h_at_the_critical_overlap(tau0, tau_h):
    lam = lambda_bar(tau0, tau_h)
    assert math.isclose(tau_aug(tau0, tau_h, lam), tau_h, rel_tol=1e-8)
    assert math.isclose(tau_auto(tau0, tau_h, lam), tau_h, rel_tol=1e-8)


def axis(size):
    return st.lists(PRECISIONS, min_size=1, max_size=size, unique=True).map(sorted)


LAMBDAS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8, unique=True).map(sorted)
LOSSES = ("l_human", "l_ai", "l_joint_cn", "l_joint_bayes", "v_marginal")


@settings(max_examples=100, deadline=None)
@given(tau0=PRECISIONS, tau_h=PRECISIONS, tau_a_axis=axis(8), lambda_axis=LAMBDAS)
@example(tau0=1.0, tau_h=1.0, tau_a_axis=[0.5, 1.0, 2.0], lambda_axis=[0.0, 0.5, 1.0])
def test_phase_sweep_cells_equal_the_scalar_closed_forms(tau0, tau_h, tau_a_axis,
                                                         lambda_axis):
    grid = phase_sweep(tau0, tau_h, tau_a_axis, lambda_axis)
    assert grid.cells.shape == (len(lambda_axis), len(tau_a_axis))
    for cell in grid.cells.ravel():
        lam, tau_a = float(cell["lam"]), float(cell["tau_a"])
        assert cell["feasible"] == feasible(tau_h, tau_a, lam)
        if not cell["feasible"]:
            assert all(math.isnan(cell[name]) for name in LOSSES)
            assert cell["regime"] is None
            continue
        spec = SignalSpec(tau_h=tau_h, tau_a=tau_a, lam=lam)
        p = loss_profile(tau0, spec)
        assert [float(cell[name]) for name in LOSSES] == [getattr(p, name) for name in LOSSES]
        assert cell["regime"] is classify(p)


@settings(max_examples=100, deadline=None)
@given(tau0=PRECISIONS, tau_h=PRECISIONS,
       lam=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=20))
@example(tau0=2.5, tau_h=0.4, lam=[0.0, 0.5, 1.0])
def test_thresholds_broadcast_over_lambda_bit_for_bit(tau0, tau_h, lam):
    lam = np.array(lam)
    assert tau_aug(tau0, tau_h, lam).tolist() == [tau_aug(tau0, tau_h, x) for x in lam.tolist()]
    positive = lam[lam > 0.0]
    assert (tau_auto(tau0, tau_h, positive).tolist()
            == [tau_auto(tau0, tau_h, x) for x in positive.tolist()])
