"""Certified lower bounds on prior-predictive CVaR for two-point Gaussian
decision problems, with Monte Carlo and exact-law verification."""

from .bounds import (
    BoundResult,
    Branch,
    FactorEvaluation,
    Method,
    TwoPointSpec,
    balanced_bound,
    bandit_bound,
    bound_factor,
    estimation_bound,
    hinge_lower_bound,
    optimal_bound_constant,
    optimal_gap,
    optimal_separation,
    two_point_bound,
)
from .divergences import (
    DivergenceKind,
    HellingerBudget,
    bandit_budget,
    estimation_budget,
)
from .errors import DomainError
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentKind,
    ExperimentReport,
    ExperimentRow,
    OutputFormat,
    ReportIOError,
    emit_report,
    render_csv,
    render_json,
    run_experiment,
)
from .inversion import InversionResult, bernoulli_inverse
from .risk import (
    DiscreteLossDistribution,
    RiskLevel,
    SampleSet,
    empirical_cvar,
    exact_cvar,
)
from .sim import (
    BanditConfig,
    EstimationConfig,
    Estimator,
    ExploreThenCommit,
    Policy,
    ThompsonGaussian,
    UCB,
    UniformRandom,
    exact_loss_law,
    exact_sign_estimator_law,
    exact_uniform_bandit_law,
    normal_upper_tail,
    replicate_rng,
    run_bandit,
    run_estimation,
    simulate_shared,
)

__version__ = "0.1.0"
