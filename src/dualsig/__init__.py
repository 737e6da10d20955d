"""Decision losses, regimes, and value of information for two-signal estimation.

A decision-maker estimates a Gaussian state from an own signal and a
partially redundant assistant signal.  This package provides the closed-form
expected losses (including the naive fusion that ignores the redundancy),
the capability thresholds and phase diagram of the best deployment, a
cue-pool micro-foundation of the overlap coefficient, exact discrete value
of information, Bregman-loss gap identities, and seeded Monte Carlo oracles
for every closed form.  The ``dualsig`` CLI emits all of it as CSV.
"""

from .core import (
    DegenerateDecompositionError,
    Environment,
    LossProfile,
    SignalSpec,
    ValidationError,
    innovation_precision,
    loss_ai,
    loss_human,
    loss_joint_bayes,
    loss_joint_cn,
    loss_profile,
    marginal_value,
)
from .regimes import (
    PhaseCell,
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
from .cueworld import (
    ConcentrationSummary,
    CueWorld,
    OverlapEstimate,
    SamplingPlan,
    aggregate_signals,
    build_world,
    concentration_experiment,
    covariance_lambda,
    domain_overlap_rate,
    empirical_lambda,
    overlap_estimates,
    sample_ai_set,
    signal_precision,
)
from .voi import (
    DiscreteProblem,
    LogLoss,
    NULL_SIGNAL,
    QuadraticLoss,
    TableLoss,
    VoiReport,
    bayes_risk,
    binary_entropy,
    brute_force_voi,
    erasure_construction,
    marginal_value_discrete,
    posterior_two_tests,
    problem_from_table,
    problem_to_table,
    ratio_construction,
    value_of_information,
    xor_construction,
)
from .bregman import (
    BregmanGenerator,
    GapReport,
    OptimalityReport,
    bregman_loss,
    conditional_mean_optimality,
    gap_check_discrete,
    gap_check_gaussian_cn,
)
from .montecarlo import (
    Estimate,
    accumulate,
    paired_loss_estimates,
    sample_triple,
    verify_closed_forms,
    verify_decomposition,
)
from .rng import RngHandle, derive_seed

__version__ = "0.1.0"
