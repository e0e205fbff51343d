"""Experiment orchestration: resolve a config into rows, render CSV/JSON.

Row schema is pinned for downstream tooling: columns
alpha, param_name, param_value, bound, t_star, empirical_cvar, exact_cvar,
stderr, mc_slack, dominated.  Numeric cells are rendered with 12 significant
digits, empty cells mean "not applicable", and `dominated` is the literal
true/false.  Rendering is a pure function of the row tuple, so a fixed
config and seed produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping, get_args

from .bounds import BoundResult, bandit_bound, bound_factor, estimation_bound, optimal_gap, optimal_separation
from .risk import RiskLevel, SampleSet, empirical_cvar, exact_cvar
from .sim import (
    BanditConfig,
    EstimationConfig,
    Estimator,
    ExploreThenCommit,
    Policy,
    UCB,
    _FIELD_PROBLEMS,
    _estimator_problem,
    _field_problems,
    _is_real,
    _policy_problem,
    exact_loss_law,
    simulate_shared,
)

__all__ = [
    "OPTIMAL",
    "ConfigError",
    "ReportIOError",
    "ExperimentKind",
    "OutputFormat",
    "ExperimentConfig",
    "ExperimentRow",
    "ExperimentReport",
    "CSV_COLUMNS",
    "parse_policy",
    "run_experiment",
    "render_csv",
    "render_json",
    "emit_report",
]

# sentinel accepted wherever a numeric separation/gap is expected
OPTIMAL = "optimal"

# exact-law comparisons get a pure rounding allowance, no Monte Carlo slack
_EXACT_SLACK = 1e-9

# multiplier turning a tail standard error into Monte Carlo slack
_SLACK_SIGMAS = 5.0

# most rho steps a psi table may take (the rows are built as a list)
_MAX_PSI_STEPS = 10**6

CSV_COLUMNS = (
    "alpha",
    "param_name",
    "param_value",
    "bound",
    "t_star",
    "empirical_cvar",
    "exact_cvar",
    "stderr",
    "mc_slack",
    "dominated",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; lists every offending field."""

    def __init__(self, problems: Mapping[str, str]):
        self.problems = dict(problems)
        detail = "; ".join(f"{name}: {why}" for name, why in sorted(self.problems.items()))
        super().__init__(f"invalid experiment config: {detail}")


class ReportIOError(OSError):
    """Report could not be written; carries the offending path."""

    def __init__(self, path: str, cause: Exception):
        self.path = str(path)
        super().__init__(f"cannot write report to {self.path}: {cause}")


class ExperimentKind(Enum):
    PSI = "psi"
    BOUND = "bound"
    SIMULATE_ESTIMATION = "simulate-estimation"
    SIMULATE_BANDIT = "simulate-bandit"
    VERIFY = "verify"


class OutputFormat(Enum):
    CSV = "csv"
    JSON = "json"


def parse_policy(name: str, tau: int | None = None, ucb_c: float = 1.0) -> Policy:
    """Policy from its name (uniform, etc, ucb, thompson); `tau` is passed to
    explore-then-commit and `ucb_c` to UCB."""
    for cls in get_args(Policy):
        if cls.name == name:
            settings = {ExploreThenCommit: {"tau": tau}, UCB: {"c_explore": ucb_c}}
            return cls(**settings.get(cls, {}))
    raise ConfigError({"policy": f"unknown policy {name!r}"})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment request; `validate` reports all problems at once."""

    kind: ExperimentKind
    alphas: tuple[float, ...]
    n: int | None = None
    delta: float | str | None = None
    horizon: int | None = None
    gap: float | str | None = None
    policies: tuple[Policy, ...] = ()
    estimators: tuple[Estimator, ...] = ()
    replicates: int = 10_000
    seed: int = 0
    scales: tuple[float, ...] = (1.0,)
    rho_max: float = 1.2
    rho_step: float = 0.01

    def validate(self) -> None:
        problems: dict[str, str] = {}
        if not isinstance(self.alphas, (tuple, list)):
            problems["alphas"] = f"must be a tuple of tail levels, got {self.alphas!r}"
        elif not self.alphas:
            problems["alphas"] = "at least one tail level is required"
        elif any(not (_is_real(a) and 0.0 <= a < 1.0) for a in self.alphas):
            problems["alphas"] = f"every alpha must lie in [0, 1), got {self.alphas!r}"
        if not isinstance(self.scales, (tuple, list)):
            problems["scales"] = f"must be a tuple of scales, got {self.scales!r}"
        elif not self.scales:
            problems["scales"] = "at least one scale is required"
        elif any(not (_is_real(s) and 0.0 < s < math.inf) for s in self.scales):
            problems["scales"] = f"scales must be finite and > 0, got {self.scales!r}"

        kind = self.kind
        if not isinstance(kind, ExperimentKind):
            # _subjects covers no subject for it, so no subject is checked
            problems["kind"] = f"must be an ExperimentKind, got {kind!r}"
        if kind is ExperimentKind.PSI:
            if not (_is_real(self.rho_max) and 0.0 < self.rho_max < math.inf):
                problems["rho_max"] = f"must be finite and > 0, got {self.rho_max!r}"
            if not (_is_real(self.rho_step) and 0.0 < self.rho_step < math.inf):
                problems["rho_step"] = f"must be finite and > 0, got {self.rho_step!r}"
            elif "rho_max" not in problems and self.rho_max / self.rho_step > _MAX_PSI_STEPS:
                steps = self.rho_max / self.rho_step
                problems["rho_step"] = f"rho_max / rho_step is {steps:.6g}, above {_MAX_PSI_STEPS} grid steps"
        subjects = _subjects(self)
        if kind is ExperimentKind.BOUND and len(subjects) != 1:
            problems["kind"] = "bound needs exactly one of (n, delta) or (horizon, gap)"
            subjects = ()
        sizes = {subject.size: getattr(self, subject.size) for subject in subjects}
        problems.update(_field_problems({"replicates": self.replicates, "seed": self.seed, **sizes}))
        for subject in subjects:
            raw = getattr(self, subject.field)
            why = None if raw == OPTIMAL else _FIELD_PROBLEMS[subject.field](raw)
            if why:
                problems[subject.field] = f"{why} or {OPTIMAL!r}, got {raw!r}"
        for subject in _SUBJECTS:
            variants = getattr(self, subject.variants)
            if not isinstance(variants, (tuple, list)):
                problems[subject.variants] = f"must be a tuple of {subject.variant} objects, got {variants!r}"
                continue
            size = getattr(self, subject.size)
            for variant in variants:
                why = subject.problem_of(size, variant)
                if why:
                    problems.setdefault(subject.variants, why)
            if subject not in subjects or kind is ExperimentKind.BOUND:
                continue
            if kind is ExperimentKind.VERIFY:
                if not variants:
                    problems.setdefault(subject.variants, f"verify needs at least one {subject.variant}")
            elif len(variants) != 1:
                problems.setdefault(subject.variants, f"{kind.value} takes exactly one {subject.variant}")
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class ExperimentRow:
    alpha: float
    param_name: str
    param_value: float
    problem_params: Mapping[str, Any] = field(default_factory=dict)
    bound: float = 0.0
    t_star: float | None = None
    empirical_cvar: float | None = None
    exact_cvar: float | None = None
    stderr: float | None = None
    mc_slack: float | None = None
    dominated: bool = True


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    metadata: Mapping[str, Any]

    @property
    def all_dominated(self) -> bool:
        return all(row.dominated for row in self.rows)


def _tail_stats(samples: SampleSet, level: RiskLevel) -> tuple[float, float, float]:
    """Empirical CVaR with a standard error over the averaged tail block."""
    emp = empirical_cvar(samples, level)
    m = math.ceil(level.tail_mass * samples.count)
    if m >= 2:
        stderr = float(samples.values[:m].std(ddof=1)) / math.sqrt(m)
    else:
        stderr = 0.0
    return emp, stderr, _SLACK_SIGMAS * stderr


def _dominated(bound: float, emp: float, slack: float, exact: float | None) -> bool:
    if emp < bound - slack:
        return False
    return exact is None or exact >= bound - _EXACT_SLACK


def _psi_rows(config: ExperimentConfig) -> list[ExperimentRow]:
    steps = int(round(config.rho_max / config.rho_step))
    rhos = [i * config.rho_step for i in range(steps + 1)]
    rows = []
    for alpha in config.alphas:
        level = RiskLevel(alpha)
        for rho in rhos:
            ev = bound_factor(level, rho)
            rows.append(
                ExperimentRow(
                    alpha=level.alpha,
                    param_name="rho",
                    param_value=rho,
                    problem_params={"branch": ev.branch.value},
                    bound=ev.value,
                )
            )
    return rows


@dataclass(frozen=True)
class _Subject:
    """One problem family as the row loop sees it.

    The callables reach the library through this module's global names when
    they are called, so a later rebinding of those names is honoured.
    """

    problem: str  # problem_params["problem"]
    param: str  # the varied parameter's row name, "g" or "delta"
    field: str  # its config field, a number or OPTIMAL
    size: str  # the config field fixing the problem size, "horizon" or "n"
    variants: str  # the config field of the simulated variants
    variant: str  # the variant's problem_params key
    variant_name: Callable[[Any], str]
    problem_of: Callable[[Any, Any], str | None]  # (size, variant) -> why it cannot run, or None
    optimum: Callable[[int, RiskLevel], float]  # (size, level) -> worst-case parameter
    bound: Callable[[int, float, RiskLevel], BoundResult]  # (size, parameter, level)
    sim_config: Callable[[ExperimentConfig, Any, float], BanditConfig | EstimationConfig]


_BANDIT = _Subject(
    problem="bandit",
    param="g",
    field="gap",
    size="horizon",
    variants="policies",
    variant="policy",
    variant_name=lambda policy: policy.name,
    problem_of=lambda horizon, policy: _policy_problem(policy, horizon),
    optimum=lambda horizon, level: optimal_gap(horizon, level)[0],
    bound=lambda horizon, g, level: bandit_bound(g, horizon, level),
    sim_config=lambda config, policy, g: BanditConfig(
        horizon=config.horizon,
        gap=g,
        policy=policy,
        replicates=config.replicates,
        seed=config.seed,
    ),
)

_ESTIMATION = _Subject(
    problem="estimation",
    param="delta",
    field="delta",
    size="n",
    variants="estimators",
    variant="estimator",
    variant_name=lambda estimator: estimator.value,
    problem_of=lambda n, estimator: _estimator_problem(estimator),
    optimum=lambda n, level: optimal_separation(n, level)[0],
    bound=lambda n, delta, level: estimation_bound(n, delta, level),
    sim_config=lambda config, estimator, delta: EstimationConfig(
        n=config.n,
        delta=delta,
        estimator=estimator,
        replicates=config.replicates,
        seed=config.seed,
    ),
)

_SUBJECTS = (_BANDIT, _ESTIMATION)


def _subjects(config: ExperimentConfig) -> tuple[_Subject, ...]:
    """The subjects a config's kind covers; for `bound`, those whose size or
    parameter field is set."""
    kind = config.kind
    if kind is ExperimentKind.BOUND:
        return tuple(
            subject
            for subject in _SUBJECTS
            if getattr(config, subject.size) is not None or getattr(config, subject.field) is not None
        )
    if kind is ExperimentKind.SIMULATE_BANDIT:
        return (_BANDIT,)
    if kind is ExperimentKind.SIMULATE_ESTIMATION:
        return (_ESTIMATION,)
    if kind is ExperimentKind.VERIFY:
        return _SUBJECTS
    return ()


def _subject_rows(config: ExperimentConfig, subject: _Subject) -> list[ExperimentRow]:
    """Rows of one subject, variant by variant, then by alpha, then by scale.

    `bound` rows carry the bound alone.  Simulated rows are drawn in one call
    to `simulate_shared`, which draws once for every variant whose draws
    coincide, and carry the Monte Carlo statistics and, where `exact_loss_law`
    knows one, the exact law's CVaR; in `verify` their parameter names are
    qualified by the variant.
    """
    simulate = config.kind is not ExperimentKind.BOUND
    qualify = config.kind is ExperimentKind.VERIFY
    size = getattr(config, subject.size)
    raw = getattr(config, subject.field)
    variants = getattr(config, subject.variants) if simulate else (None,)
    cases = []
    for variant in variants:
        for alpha in config.alphas:
            level = RiskLevel(alpha)
            for scale in config.scales:
                base = subject.optimum(size, level) if raw == OPTIMAL else float(raw)
                cases.append((variant, level, scale, scale * base))
    if simulate:
        sim_configs = [subject.sim_config(config, v, value) for v, _, _, value in cases]
        samples = simulate_shared(sim_configs)
    else:
        sim_configs = samples = [None] * len(cases)
    rows = []
    for (variant, level, scale, value), sim_config, case_samples in zip(cases, sim_configs, samples):
        result = subject.bound(size, value, level)
        params: dict[str, Any] = {subject.size: size, subject.param: value, "scale": scale}
        name = subject.param
        emp = stderr = slack = exact = None
        if simulate:
            vname = subject.variant_name(variant)
            params = {
                "problem": subject.problem,
                subject.variant: vname,
                **params,
                "replicates": config.replicates,
            }
            name = f"{vname}:{name}" if qualify else name
            emp, stderr, slack = _tail_stats(case_samples, level)
            law = exact_loss_law(sim_config)
            exact = None if law is None else exact_cvar(law, level)
        rows.append(
            ExperimentRow(
                alpha=level.alpha,
                param_name=name,
                param_value=value,
                problem_params=params,
                bound=result.value,
                t_star=result.t_star,
                empirical_cvar=emp,
                exact_cvar=exact,
                stderr=stderr,
                mc_slack=slack,
                dominated=not simulate or _dominated(result.value, emp, slack, exact),
            )
        )
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Validate, dispatch on kind, and assemble the report."""
    config.validate()
    started = time.perf_counter()
    if config.kind is ExperimentKind.PSI:
        rows = _psi_rows(config)
    else:
        rows = [row for subject in _subjects(config) for row in _subject_rows(config, subject)]
    metadata: dict[str, Any] = {
        "kind": config.kind.value,
        "alphas": list(config.alphas),
        "scales": list(config.scales),
        "seed": config.seed,
        "wall_time_s": time.perf_counter() - started,
    }
    if config.kind in (
        ExperimentKind.SIMULATE_BANDIT,
        ExperimentKind.SIMULATE_ESTIMATION,
        ExperimentKind.VERIFY,
    ):
        metadata["replicates"] = config.replicates
    if config.policies:
        metadata["policies"] = [p.name for p in config.policies]
    if config.estimators:
        metadata["estimators"] = [e.value for e in config.estimators]
    if config.horizon is not None:
        metadata["horizon"] = config.horizon
    if config.n is not None:
        metadata["n"] = config.n
    return ExperimentReport(rows=tuple(rows), metadata=metadata)


def _cell(value: float | None) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


def render_csv(report: ExperimentReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(
            ",".join(
                (
                    _cell(row.alpha),
                    row.param_name,
                    _cell(row.param_value),
                    _cell(row.bound),
                    _cell(row.t_star),
                    _cell(row.empirical_cvar),
                    _cell(row.exact_cvar),
                    _cell(row.stderr),
                    _cell(row.mc_slack),
                    "true" if row.dominated else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"


# metadata keys that vary across identical runs; dropped at render time so a
# fixed config and seed produce byte-identical files
_VOLATILE_METADATA = ("wall_time_s",)


def render_json(report: ExperimentReport) -> str:
    metadata = {k: v for k, v in report.metadata.items() if k not in _VOLATILE_METADATA}
    payload = {
        "metadata": metadata,
        "rows": [
            {
                "alpha": row.alpha,
                "param_name": row.param_name,
                "param_value": row.param_value,
                "problem_params": dict(row.problem_params),
                "bound": row.bound,
                "t_star": row.t_star,
                "empirical_cvar": row.empirical_cvar,
                "exact_cvar": row.exact_cvar,
                "stderr": row.stderr,
                "mc_slack": row.mc_slack,
                "dominated": row.dominated,
            }
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_report(
    report: ExperimentReport,
    output_format: OutputFormat = OutputFormat.CSV,
    output_path: str | None = None,
) -> str:
    """Render the report; write it to `output_path` when given.  Returns the
    rendered text either way.  Write failures raise ReportIOError."""
    text = render_csv(report) if output_format is OutputFormat.CSV else render_json(report)
    if output_path is not None:
        try:
            Path(output_path).write_text(text)
        except OSError as exc:
            raise ReportIOError(output_path, exc) from exc
    return text
