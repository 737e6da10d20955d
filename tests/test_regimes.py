import math

import numpy as np
import pytest

from dualsig.core import Environment, SignalSpec, ValidationError, loss_ai, loss_human, loss_joint_cn
from dualsig.regimes import (
    PhaseGrid,
    Regime,
    ThresholdReport,
    classify,
    lambda_bar,
    phase_sweep,
    tau_aug,
    tau_auto,
    thresholds,
)

from helpers import bisect_root

ENV = Environment(mu0=0.0, tau0=1.0)

# Root of the assistant-alone vs naive-joint crossing at tau0 = tau_h = 1,
# lam = 0.67, frozen from the independent bisection oracle below.
TAU_AUTO_067 = 1.1013982299990406


def cn_loss(tau_a, lam, tau0=1.0, tau_h=1.0):
    T = tau0 + tau_h + tau_a
    return 1.0 / T + 2.0 * lam * tau_a / T ** 2


class TestTauAug:
    def test_examples(self):
        assert abs(tau_aug(ENV, 1.0, 0.67) - 0.68) < 1e-12
        assert tau_aug(ENV, 1.0, 0.5) == 0.0
        assert abs(tau_aug(ENV, 1.0, 0.85) - 1.4) < 1e-12

    def test_negative_below_half(self):
        assert tau_aug(ENV, 1.0, 0.2) < 0.0

    def test_bisection_oracle_agreement(self):
        for lam in (0.55, 0.67, 0.8, 0.95):
            root = bisect_root(lambda t: cn_loss(t, lam) - 0.5, 1e-9, 5.0)
            assert abs(tau_aug(ENV, 1.0, lam) - root) < 1e-9

    def test_domain(self):
        with pytest.raises(ValidationError):
            tau_aug(ENV, 1.0, 1.5)
        with pytest.raises(ValidationError):
            tau_aug(ENV, 0.0, 0.5)


@pytest.mark.parametrize("tau_h", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda tau_h: tau_aug(ENV, tau_h, 0.5),
    lambda tau_h: tau_auto(ENV, tau_h, 0.5),
    lambda tau_h: lambda_bar(ENV, tau_h),
    lambda tau_h: phase_sweep(ENV, tau_h, [0.5], [0.1]),
], ids=["tau_aug", "tau_auto", "lambda_bar", "phase_sweep"])
def test_tau_h_must_be_finite_and_positive(call, tau_h):
    with pytest.raises(ValidationError, match="tau_h"):
        call(tau_h)


class TestTauAuto:
    def test_examples(self):
        assert abs(tau_auto(ENV, 1.0, 0.5) - math.sqrt(2.0)) < 1e-12
        assert abs(tau_auto(ENV, 1.0, 0.67) - TAU_AUTO_067) < 1e-12
        # at the critical overlap the two thresholds meet at tau_h
        assert abs(tau_auto(ENV, 1.0, 0.75) - 1.0) < 1e-12

    def test_bisection_oracle_agreement(self):
        for lam in (0.3, 0.5, 0.67, 0.75, 0.9):
            root = bisect_root(lambda t: 1.0 / (1.0 + t) - cn_loss(t, lam), 0.05, 8.0)
            assert abs(tau_auto(ENV, 1.0, lam) - root) < 1e-9

    def test_strictly_decreasing_in_overlap(self):
        grid = np.linspace(0.02, 1.0, 50)
        values = [tau_auto(ENV, 1.0, lam) for lam in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_lam_zero_is_domain_error(self):
        with pytest.raises(ValidationError):
            tau_auto(ENV, 1.0, 0.0)

    def test_diverges_for_small_overlap(self):
        assert tau_auto(ENV, 1.0, 1e-9) > 1e6


class TestLambdaBar:
    def test_examples_and_limits(self):
        assert lambda_bar(ENV, 1.0) == 0.75
        assert abs(lambda_bar(ENV, 1e-9) - 0.5) < 1e-9
        assert abs(lambda_bar(ENV, 1e9) - 1.0) < 1e-8

    def test_report_invariants(self):
        rep = thresholds(ENV, 1.0, 0.6)
        assert isinstance(rep, ThresholdReport)
        assert rep.tau_aug < rep.tau_auto
        for lam in (0.05, 0.3, 0.55, 0.7, 0.74):
            rep = thresholds(ENV, 1.0, lam)
            assert rep.tau_aug < rep.tau_auto


class TestClassify:
    def test_examples(self):
        assert classify(ENV, SignalSpec(1.0, 0.3, 0.67)) is Regime.IMPAIRMENT
        assert classify(ENV, SignalSpec(1.0, 0.9, 0.67)) is Regime.COMPLEMENTARITY
        assert classify(ENV, SignalSpec(1.0, 2.0, 0.45)) is Regime.AUTOMATION

    def test_tie_breaks_prefer_simpler_system(self):
        # own vs assistant tie at tau_a = tau_h resolves to the own signal
        assert classify(ENV, SignalSpec(1.0, 1.0, 0.85)) is Regime.IMPAIRMENT
        # own vs joint tie at the augmentation boundary resolves to the own signal
        assert classify(ENV, SignalSpec(1.0, 0.68, 0.67)) is Regime.IMPAIRMENT

    def test_low_overlap_never_impairs(self):
        for lam in (0.0, 0.2, 0.4, 0.49):
            for tau_a in np.linspace(0.05, 2.0, 40):
                if lam <= min(1.0, 1.0 / tau_a):
                    spec = SignalSpec(1.0, float(tau_a), lam)
                    assert classify(ENV, spec) is not Regime.IMPAIRMENT

    def test_high_overlap_never_complements(self):
        for lam in (0.76, 0.8, 0.9):
            for tau_a in np.linspace(0.05, 1.3, 60):
                if lam <= min(1.0, 1.0 / tau_a):
                    spec = SignalSpec(1.0, float(tau_a), lam)
                    assert classify(ENV, spec) is not Regime.COMPLEMENTARITY

    def test_intermediate_overlap_complement_window(self):
        lam = 0.6
        lo, hi = tau_aug(ENV, 1.0, lam), tau_auto(ENV, 1.0, lam)
        for tau_a in np.linspace(0.02, 1.6, 160):
            spec = SignalSpec(1.0, float(tau_a), lam)
            expected = Regime.COMPLEMENTARITY if lo < tau_a < hi else (
                Regime.IMPAIRMENT if tau_a <= lo else Regime.AUTOMATION)
            assert classify(ENV, spec) is expected

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            tau0, tau_h, tau_a = rng.uniform(0.2, 2.5, size=3)
            lam = rng.uniform(0.0, 1.0) * min(tau_h / tau_a, 1.0)
            base = classify(Environment(0.0, tau0), SignalSpec(tau_h, tau_a, lam))
            for c in (0.1, 3.0, 17.5):
                scaled = classify(Environment(0.0, c * tau0),
                                  SignalSpec(c * tau_h, c * tau_a, lam))
                assert scaled is base


class TestPhaseSweep:
    def test_slice_intermediate_overlap(self):
        # three regions with boundaries {0.68, tau_auto(0.67)}
        axis = np.linspace(0.02, 1.7, 400)
        grid = phase_sweep(ENV, 1.0, axis, [0.67])
        feasible = [c for c in grid.cells[0] if c.feasible]
        for cell in feasible:
            expected = (Regime.IMPAIRMENT if cell.tau_a <= 0.68 + 1e-12 else
                        Regime.COMPLEMENTARITY if cell.tau_a < TAU_AUTO_067 else
                        Regime.AUTOMATION)
            assert cell.regime is expected
        tags = {c.regime for c in feasible}
        assert tags == {Regime.IMPAIRMENT, Regime.COMPLEMENTARITY, Regime.AUTOMATION}

    def test_slice_low_overlap_two_regions(self):
        grid = phase_sweep(ENV, 1.0, np.linspace(0.02, 2.2, 300), [0.45])
        tags = [c.regime for c in grid.cells[0] if c.feasible]
        assert Regime.IMPAIRMENT not in tags
        assert tags == sorted(tags, key=[Regime.COMPLEMENTARITY, Regime.AUTOMATION].index)

    def test_slice_high_overlap_boundary_at_tau_h(self):
        axis = [0.5, 0.9, 0.999999, 1.0, 1.000001, 1.1]
        grid = phase_sweep(ENV, 1.0, axis, [0.85])
        tags = [c.regime for c in grid.cells[0] if c.feasible]
        expected = [Regime.IMPAIRMENT] * 4 + [Regime.AUTOMATION] * 2
        assert tags == expected

    def test_infeasible_cells_flagged_not_raised(self):
        grid = phase_sweep(ENV, 1.0, [0.5, 2.0], [0.3, 0.6, 1.0])
        flags = {(c.lam, c.tau_a): c.feasible for row in grid.cells for c in row}
        assert flags[(0.3, 2.0)] is True
        assert flags[(0.6, 2.0)] is False  # 0.6 > 1/2
        assert flags[(1.0, 2.0)] is False
        assert flags[(1.0, 0.5)] is True
        infeasible = [c for row in grid.cells for c in row if not c.feasible]
        assert all(c.profile is None and c.regime is None for c in infeasible)

    def test_full_overlap_cells_have_zero_marginal_value(self):
        grid = phase_sweep(ENV, 1.0, [0.4, 0.8, 1.0], [1.0])
        for cell in grid.cells[0]:
            assert cell.feasible
            assert cell.profile.v_marginal == 0.0
            assert cell.profile.l_joint_bayes == cell.profile.l_human

    def test_deterministic_and_ordered(self):
        axis_t = np.linspace(0.1, 2.0, 7)
        axis_l = np.linspace(0.0, 1.0, 5)
        a = phase_sweep(ENV, 1.0, axis_t, axis_l)
        b = phase_sweep(ENV, 1.0, axis_t, axis_l)
        assert isinstance(a, PhaseGrid)
        assert a == b
        assert a.lambda_axis == tuple(float(x) for x in axis_l)

    def test_cells_match_direct_losses(self):
        grid = phase_sweep(ENV, 1.0, [0.3, 0.9], [0.2, 0.67])
        for row in grid.cells:
            for cell in row:
                spec = SignalSpec(1.0, cell.tau_a, cell.lam)
                assert cell.profile.l_human == loss_human(ENV, spec)
                assert cell.profile.l_ai == loss_ai(ENV, spec)
                assert cell.profile.l_joint_cn == loss_joint_cn(ENV, spec)

    def test_axis_validation(self):
        with pytest.raises(ValidationError):
            phase_sweep(ENV, 1.0, [0.5, 0.4], [0.1])
        with pytest.raises(ValidationError):
            phase_sweep(ENV, 1.0, [], [0.1])
        with pytest.raises(ValidationError):
            phase_sweep(ENV, 1.0, [-0.5, 0.5], [0.1])
