"""Property tests of the paper's invariants over the feasible region.

A point is ``(tau0, tau_h, tau_a, lam)`` with ``0 <= lam <= min(tau_h/tau_a, 1)``,
drawn at ``lam = 0``, in the interior, and on the boundary (which is
``lam == 1`` whenever ``tau_a <= tau_h``).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsig.core import Environment, SignalSpec, loss_profile
from dualsig.regimes import Regime, classify, lambda_bar, tau_auto, tau_aug

PRECISIONS = st.floats(1e-3, 1e3)


@st.composite
def feasible_points(draw):
    tau0, tau_h, tau_a = draw(PRECISIONS), draw(PRECISIONS), draw(PRECISIONS)
    bound = min(tau_h / tau_a, 1.0)
    lam = draw(st.one_of(st.just(0.0), st.just(bound), st.floats(0.0, bound)))
    return Environment(mu0=0.0, tau0=tau0), SignalSpec(tau_h=tau_h, tau_a=tau_a, lam=lam)


FULL_OVERLAP = (Environment(0.0, 1.0), SignalSpec(1.0, 1.0, 1.0))
BOUNDARY = (Environment(0.0, 0.5), SignalSpec(1.0, 4.0, 0.25))


@settings(max_examples=150, deadline=None)
@given(point=feasible_points())
@example(point=FULL_OVERLAP)
@example(point=BOUNDARY)
def test_bayes_is_never_worse_and_the_marginal_value_is_nonnegative(point):
    env, spec = point
    p = loss_profile(env, spec)
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
    env, spec = point
    p = loss_profile(env, spec)
    losses = (p.l_human, p.l_ai, p.l_joint_cn)
    first_min = min(range(3), key=losses.__getitem__)
    expected = (Regime.IMPAIRMENT, Regime.AUTOMATION, Regime.COMPLEMENTARITY)[first_min]
    assert classify(env, spec) is expected


@settings(max_examples=150, deadline=None)
@given(tau0=PRECISIONS, tau_h=PRECISIONS)
def test_thresholds_meet_at_tau_h_at_the_critical_overlap(tau0, tau_h):
    env = Environment(mu0=0.0, tau0=tau0)
    lam = lambda_bar(env, tau_h)
    assert math.isclose(tau_aug(env, tau_h, lam), tau_h, rel_tol=1e-8)
    assert math.isclose(tau_auto(env, tau_h, lam), tau_h, rel_tol=1e-8)
