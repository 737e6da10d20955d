import math

import numpy as np
import pytest

from dualsig.core import Environment, SignalSpec, ValidationError, loss_profile
from dualsig.regimes import (
    PhaseGrid,
    Regime,
    classify,
    lambda_bar,
    phase_sweep,
    tau_aug,
    tau_auto,
)

from helpers import bisect_root

ENV = Environment(tau0=1.0)

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


TAU_H_CALLS = pytest.mark.parametrize("call", [
    lambda tau_h: tau_aug(ENV, tau_h, 0.5),
    lambda tau_h: tau_auto(ENV, tau_h, 0.5),
    lambda tau_h: lambda_bar(ENV, tau_h),
    lambda tau_h: phase_sweep(ENV, tau_h, [0.5], [0.1]),
], ids=["tau_aug", "tau_auto", "lambda_bar", "phase_sweep"])


@pytest.mark.parametrize("tau_h", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@TAU_H_CALLS
def test_tau_h_must_be_finite_and_positive(call, tau_h):
    with pytest.raises(ValidationError, match="tau_h"):
        call(tau_h)


@pytest.mark.parametrize("tau_h", [None, "one", object()], ids=["None", "str", "object"])
@TAU_H_CALLS
def test_tau_h_must_be_a_real_number(call, tau_h):
    # these raised a bare TypeError from math.isfinite
    with pytest.raises(ValidationError, match="tau_h must be a real number"):
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
        # below lambda_bar the augmentation threshold lies under the automation one
        for lam in (0.05, 0.3, 0.55, 0.6, 0.7, 0.74):
            assert 0.0 < tau_auto(ENV, 1.0, lam)
            assert tau_aug(ENV, 1.0, lam) < tau_auto(ENV, 1.0, lam)
        assert 0.5 < lambda_bar(ENV, 1.0) < 1.0


class TestThresholdArrays:
    def test_array_domain_errors_name_one_value(self):
        with pytest.raises(ValidationError, match=r"\(0, 1\], got 0.0$"):
            tau_auto(ENV, 1.0, np.array([0.5, 0.0, 0.0]))
        with pytest.raises(ValidationError, match=r"\[0, 1\], got 1.5$"):
            tau_aug(ENV, 1.0, np.array([0.5, 1.5, 2.0]))

    @pytest.mark.parametrize("tau0, tau_h, call", [
        (1e-300, 1e-300, "tau_auto"),   # the discriminant underflows: the root reads 0
        (1.0, 1e200, "tau_auto"),       # the discriminant overflows: the root reads inf
        (1e308, 1e308, "tau_aug"),      # tau0 + tau_h overflows: tau_aug reads nan
        (1e308, 1e308, "lambda_bar"),   # ... and lambda_bar reads 1/2
        (1.0, 1.7e308, "lambda_bar"),   # 2*(tau0 + tau_h) overflows
    ])
    def test_out_of_range_precisions_raise(self, tau0, tau_h, call):
        env = Environment(tau0=tau0)
        fn = {"tau_aug": lambda lam: tau_aug(env, tau_h, lam),
              "tau_auto": lambda lam: tau_auto(env, tau_h, lam),
              "lambda_bar": lambda lam: lambda_bar(env, tau_h)}[call]
        for lam in (0.5, np.array([0.25, 0.5])):
            with pytest.raises(ValidationError, match="finite"):
                fn(lam)

    def test_tiny_overlap_root_overflow_raises(self):
        with pytest.raises(ValidationError, match="tau_auto = inf"):
            tau_auto(ENV, 1.0, 1e-310)  # 2 / 4e-310 overflows


class TestClassify:
    def test_examples(self):
        assert classify(loss_profile(ENV, SignalSpec(1.0, 0.3, 0.67))) is Regime.IMPAIRMENT
        assert classify(loss_profile(ENV, SignalSpec(1.0, 0.9, 0.67))) is Regime.COMPLEMENTARITY
        assert classify(loss_profile(ENV, SignalSpec(1.0, 2.0, 0.45))) is Regime.AUTOMATION

    def test_tie_breaks_prefer_simpler_system(self):
        # own vs assistant tie at tau_a = tau_h resolves to the own signal
        assert classify(loss_profile(ENV, SignalSpec(1.0, 1.0, 0.85))) is Regime.IMPAIRMENT
        # own vs joint tie at the augmentation boundary resolves to the own signal
        assert classify(loss_profile(ENV, SignalSpec(1.0, 0.68, 0.67))) is Regime.IMPAIRMENT

    def test_low_overlap_never_impairs(self):
        for lam in (0.0, 0.2, 0.4, 0.49):
            for tau_a in np.linspace(0.05, 2.0, 40):
                if lam <= min(1.0, 1.0 / tau_a):
                    spec = SignalSpec(1.0, float(tau_a), lam)
                    assert classify(loss_profile(ENV, spec)) is not Regime.IMPAIRMENT

    def test_high_overlap_never_complements(self):
        for lam in (0.76, 0.8, 0.9):
            for tau_a in np.linspace(0.05, 1.3, 60):
                if lam <= min(1.0, 1.0 / tau_a):
                    spec = SignalSpec(1.0, float(tau_a), lam)
                    assert classify(loss_profile(ENV, spec)) is not Regime.COMPLEMENTARITY

    def test_intermediate_overlap_complement_window(self):
        lam = 0.6
        lo, hi = tau_aug(ENV, 1.0, lam), tau_auto(ENV, 1.0, lam)
        for tau_a in np.linspace(0.02, 1.6, 160):
            spec = SignalSpec(1.0, float(tau_a), lam)
            expected = Regime.COMPLEMENTARITY if lo < tau_a < hi else (
                Regime.IMPAIRMENT if tau_a <= lo else Regime.AUTOMATION)
            assert classify(loss_profile(ENV, spec)) is expected

    def test_array_spec_gives_array_of_regimes(self):
        # the tie cases above and one cell of each regime, classified together
        tau_a = np.array([0.3, 0.9, 2.0, 1.0, 0.68])
        lam = np.array([0.67, 0.67, 0.45, 0.85, 0.67])
        tags = classify(loss_profile(ENV, SignalSpec(np.ones(5), tau_a, lam)))
        assert tags.dtype == object and tags.shape == (5,)
        assert list(tags) == [Regime.IMPAIRMENT, Regime.COMPLEMENTARITY, Regime.AUTOMATION,
                              Regime.IMPAIRMENT, Regime.IMPAIRMENT]
        assert list(tags) == [classify(loss_profile(ENV, SignalSpec(1.0, float(t), float(x))))
                              for t, x in zip(tau_a, lam)]

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            tau0, tau_h, tau_a = rng.uniform(0.2, 2.5, size=3)
            lam = rng.uniform(0.0, 1.0) * min(tau_h / tau_a, 1.0)
            base = classify(loss_profile(Environment(tau0), SignalSpec(tau_h, tau_a, lam)))
            for c in (0.1, 3.0, 17.5):
                scaled = classify(loss_profile(Environment(c * tau0),
                                  SignalSpec(c * tau_h, c * tau_a, lam)))
                assert scaled is base


def feasible_cells(grid, row=0):
    cells = grid.cells[row]
    return cells[cells["feasible"]]


class TestPhaseSweep:
    def test_slice_intermediate_overlap(self):
        # three regions with boundaries {0.68, tau_auto(0.67)}
        axis = np.linspace(0.02, 1.7, 400)
        grid = phase_sweep(ENV, 1.0, axis, [0.67])
        feasible = feasible_cells(grid)
        for cell in feasible:
            expected = (Regime.IMPAIRMENT if cell["tau_a"] <= 0.68 + 1e-12 else
                        Regime.COMPLEMENTARITY if cell["tau_a"] < TAU_AUTO_067 else
                        Regime.AUTOMATION)
            assert cell["regime"] is expected
        tags = set(feasible["regime"])
        assert tags == {Regime.IMPAIRMENT, Regime.COMPLEMENTARITY, Regime.AUTOMATION}

    def test_slice_low_overlap_two_regions(self):
        grid = phase_sweep(ENV, 1.0, np.linspace(0.02, 2.2, 300), [0.45])
        tags = list(feasible_cells(grid)["regime"])
        assert Regime.IMPAIRMENT not in tags
        assert tags == sorted(tags, key=[Regime.COMPLEMENTARITY, Regime.AUTOMATION].index)

    def test_slice_high_overlap_boundary_at_tau_h(self):
        axis = [0.5, 0.9, 0.999999, 1.0, 1.000001, 1.1]
        grid = phase_sweep(ENV, 1.0, axis, [0.85])
        tags = list(feasible_cells(grid)["regime"])
        expected = [Regime.IMPAIRMENT] * 4 + [Regime.AUTOMATION] * 2
        assert tags == expected

    def test_infeasible_cells_flagged_not_raised(self):
        grid = phase_sweep(ENV, 1.0, [0.5, 2.0], [0.3, 0.6, 1.0])
        flags = {(c["lam"], c["tau_a"]): c["feasible"] for c in grid.cells.ravel()}
        assert flags[(0.3, 2.0)]
        assert not flags[(0.6, 2.0)]  # 0.6 > 1/2
        assert not flags[(1.0, 2.0)]
        assert flags[(1.0, 0.5)]
        infeasible = grid.cells[~grid.cells["feasible"]]
        assert len(infeasible) == 2
        for name in ("l_human", "l_ai", "l_joint_cn", "l_joint_bayes", "v_marginal"):
            assert np.isnan(infeasible[name]).all()
        assert all(r is None for r in infeasible["regime"])

    def test_full_overlap_cells_have_zero_marginal_value(self):
        grid = phase_sweep(ENV, 1.0, [0.4, 0.8, 1.0], [1.0])
        for cell in grid.cells[0]:
            assert cell["feasible"]
            assert cell["v_marginal"] == 0.0
            assert cell["l_joint_bayes"] == cell["l_human"]

    def test_deterministic_and_ordered(self):
        axis_t = np.linspace(0.1, 2.0, 7)
        axis_l = np.linspace(0.0, 1.0, 5)
        a = phase_sweep(ENV, 1.0, axis_t, axis_l)
        b = phase_sweep(ENV, 1.0, axis_t, axis_l)
        assert isinstance(a, PhaseGrid)
        assert a.cells.shape == (5, 7)
        for name in a.cells.dtype.names:
            if name == "regime":
                assert (a.cells[name] == b.cells[name]).all()
            else:
                assert np.array_equal(a.cells[name], b.cells[name], equal_nan=True)
        assert np.array_equal(a.cells["lam"][:, 0], axis_l)
        assert np.array_equal(a.cells["tau_a"][0], axis_t)
        assert (a.cells["lam"] == a.cells["lam"][:, :1]).all()
        assert (a.cells["tau_a"] == a.cells["tau_a"][:1]).all()

    def test_cells_are_read_only_records_in_csv_column_order(self):
        grid = phase_sweep(ENV, 1.0, [0.3, 0.9], [0.2, 0.67])
        assert grid.cells.dtype.names == (
            "lam", "tau_a", "feasible", "l_human", "l_ai", "l_joint_cn",
            "l_joint_bayes", "v_marginal", "regime")
        assert sum(len(row) for row in grid.cells) == 4
        with pytest.raises(ValueError):
            grid.cells["l_human"][0, 0] = 0.0

    def test_cells_match_direct_losses(self):
        grid = phase_sweep(ENV, 1.0, [0.3, 0.9], [0.2, 0.67])
        for row in grid.cells:
            for cell in row:
                tau_a, lam = float(cell["tau_a"]), float(cell["lam"])
                p = loss_profile(ENV, SignalSpec(1.0, tau_a, lam))
                assert cell["l_human"] == p.l_human == 1.0 / 2.0
                assert cell["l_ai"] == p.l_ai == 1.0 / (1.0 + tau_a)
                T = 2.0 + tau_a
                assert cell["l_joint_cn"] == p.l_joint_cn == 1.0 / T + 2.0 * lam * tau_a / (T * T)

    def test_axis_validation(self):
        with pytest.raises(ValidationError):
            phase_sweep(ENV, 1.0, [0.5, 0.4], [0.1])
        with pytest.raises(ValidationError):
            phase_sweep(ENV, 1.0, [], [0.1])
        with pytest.raises(ValidationError):
            phase_sweep(ENV, 1.0, [-0.5, 0.5], [0.1])
