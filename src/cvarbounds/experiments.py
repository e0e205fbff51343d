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
from typing import Any, Callable, Mapping

from .bounds import BoundResult, bandit_bound, bound_factor, estimation_bound, optimal_gap, optimal_separation
from .risk import DiscreteLossDistribution, RiskLevel, SampleSet, empirical_cvar, exact_cvar
from .sim import (
    MAX_EXACT_HORIZON,
    BanditConfig,
    EstimationConfig,
    Estimator,
    ExploreThenCommit,
    Policy,
    ThompsonGaussian,
    UCB,
    UniformRandom,
    exact_sign_estimator_law,
    exact_uniform_bandit_law,
    policy_name,
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


_POLICY_FACTORIES: dict[str, Callable[..., Policy]] = {
    "uniform": lambda tau, ucb_c: UniformRandom(),
    "etc": lambda tau, ucb_c: ExploreThenCommit(tau=tau),
    "ucb": lambda tau, ucb_c: UCB(c_explore=ucb_c),
    "thompson": lambda tau, ucb_c: ThompsonGaussian(),
}


def parse_policy(name: str, tau: int | None = None, ucb_c: float = 1.0) -> Policy:
    """Policy from its CLI name (uniform, etc, ucb, thompson)."""
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise ConfigError({"policy": f"unknown policy {name!r}"}) from None
    return factory(tau, ucb_c)


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
    output_path: str | None = None
    output_format: OutputFormat = OutputFormat.CSV

    def validate(self) -> None:
        problems: dict[str, str] = {}
        if not self.alphas:
            problems["alphas"] = "at least one tail level is required"
        for a in self.alphas:
            if not 0.0 <= float(a) < 1.0:
                problems["alphas"] = f"every alpha must lie in [0, 1), got {a!r}"
                break
        if not self.scales:
            problems["scales"] = "at least one scale is required"
        elif any(not s > 0.0 for s in self.scales):
            problems["scales"] = f"scales must be > 0, got {self.scales!r}"
        if self.replicates < 1:
            problems["replicates"] = f"must be >= 1, got {self.replicates}"
        if not 0 <= int(self.seed) < 2**64:
            problems["seed"] = f"must be an unsigned 64-bit integer, got {self.seed}"

        kind = self.kind
        wants_estimation = kind in (
            ExperimentKind.SIMULATE_ESTIMATION,
            ExperimentKind.VERIFY,
        )
        wants_bandit = kind in (ExperimentKind.SIMULATE_BANDIT, ExperimentKind.VERIFY)
        if kind is ExperimentKind.BOUND:
            has_est = self.n is not None or self.delta is not None
            has_ban = self.horizon is not None or self.gap is not None
            if has_est == has_ban:
                problems["kind"] = "bound needs exactly one of (n, delta) or (horizon, gap)"
            wants_estimation, wants_bandit = has_est and not has_ban, has_ban and not has_est
        if kind is ExperimentKind.PSI:
            if not self.rho_max > 0.0:
                problems["rho_max"] = f"must be > 0, got {self.rho_max!r}"
            if not self.rho_step > 0.0:
                problems["rho_step"] = f"must be > 0, got {self.rho_step!r}"
        if wants_estimation:
            if self.n is None or int(self.n) < 1:
                problems["n"] = f"must be an integer >= 1, got {self.n!r}"
            if not _valid_param(self.delta):
                problems["delta"] = f"must be a positive number or {OPTIMAL!r}, got {self.delta!r}"
        if wants_bandit:
            if self.horizon is None or int(self.horizon) < 1:
                problems["horizon"] = f"must be an integer >= 1, got {self.horizon!r}"
            if not _valid_param(self.gap):
                problems["gap"] = f"must be a positive number or {OPTIMAL!r}, got {self.gap!r}"
        if kind is ExperimentKind.SIMULATE_BANDIT and len(self.policies) != 1:
            problems["policies"] = "simulate-bandit takes exactly one policy"
        if kind is ExperimentKind.SIMULATE_ESTIMATION and len(self.estimators) != 1:
            problems["estimators"] = "simulate-estimation takes exactly one estimator"
        if kind is ExperimentKind.VERIFY:
            if not self.policies:
                problems["policies"] = "verify needs at least one policy"
            if not self.estimators:
                problems["estimators"] = "verify needs at least one estimator"
        if problems:
            raise ConfigError(problems)


def _valid_param(value: float | str | None) -> bool:
    if value == OPTIMAL:
        return True
    try:
        return value is not None and math.isfinite(float(value)) and float(value) > 0.0
    except (TypeError, ValueError):
        return False


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


def _resolve_param(
    value: float | str, scale: float, optimal: Callable[[], float]
) -> float:
    base = optimal() if value == OPTIMAL else float(value)
    return scale * base


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


def _bound_rows(config: ExperimentConfig) -> list[ExperimentRow]:
    bandit = config.horizon is not None or config.gap is not None
    rows = []
    for alpha in config.alphas:
        level = RiskLevel(alpha)
        for scale in config.scales:
            if bandit:
                g = _resolve_param(config.gap, scale, lambda: optimal_gap(config.horizon, level)[0])
                result = bandit_bound(g, config.horizon, level)
                name, value = "g", g
                params: dict[str, Any] = {"horizon": config.horizon, "g": g, "scale": scale}
            else:
                d = _resolve_param(
                    config.delta, scale, lambda: optimal_separation(config.n, level)[0]
                )
                result = estimation_bound(config.n, d, level)
                name, value = "delta", d
                params = {"n": config.n, "delta": d, "scale": scale}
            rows.append(
                ExperimentRow(
                    alpha=level.alpha,
                    param_name=name,
                    param_value=value,
                    problem_params=params,
                    bound=result.value,
                    t_star=result.t_star,
                )
            )
    return rows


def _bandit_sim_rows(config: ExperimentConfig, qualify: bool) -> list[ExperimentRow]:
    rows = []
    for policy in config.policies:
        pname = policy_name(policy)
        cases = []
        for alpha in config.alphas:
            level = RiskLevel(alpha)
            for scale in config.scales:
                g = _resolve_param(config.gap, scale, lambda: optimal_gap(config.horizon, level)[0])
                sim = BanditConfig(
                    horizon=config.horizon,
                    gap=g,
                    policy=policy,
                    replicates=config.replicates,
                    seed=config.seed,
                )
                cases.append((level, scale, sim))
        samples = simulate_shared([sim for _, _, sim in cases])
        for (level, scale, sim), case_samples in zip(cases, samples):
            g = sim.gap
            result = bandit_bound(g, config.horizon, level)
            emp, stderr, slack = _tail_stats(case_samples, level)
            exact = None
            if isinstance(policy, UniformRandom) and config.horizon <= MAX_EXACT_HORIZON:
                exact = exact_cvar(exact_uniform_bandit_law(g, config.horizon), level)
            rows.append(
                ExperimentRow(
                    alpha=level.alpha,
                    param_name=f"{pname}:g" if qualify else "g",
                    param_value=g,
                    problem_params={
                        "problem": "bandit",
                        "policy": pname,
                        "horizon": config.horizon,
                        "g": g,
                        "scale": scale,
                        "replicates": config.replicates,
                    },
                    bound=result.value,
                    t_star=result.t_star,
                    empirical_cvar=emp,
                    exact_cvar=exact,
                    stderr=stderr,
                    mc_slack=slack,
                    dominated=_dominated(result.value, emp, slack, exact),
                )
            )
    return rows


def _estimation_sim_rows(config: ExperimentConfig, qualify: bool) -> list[ExperimentRow]:
    cases = []
    for estimator in config.estimators:
        for alpha in config.alphas:
            level = RiskLevel(alpha)
            for scale in config.scales:
                d = _resolve_param(
                    config.delta, scale, lambda: optimal_separation(config.n, level)[0]
                )
                sim = EstimationConfig(
                    n=config.n,
                    delta=d,
                    estimator=estimator,
                    replicates=config.replicates,
                    seed=config.seed,
                )
                cases.append((level, scale, sim))
    samples = simulate_shared([sim for _, _, sim in cases])
    rows = []
    for (level, scale, sim), case_samples in zip(cases, samples):
        d, ename = sim.delta, sim.estimator.value
        result = estimation_bound(config.n, d, level)
        emp, stderr, slack = _tail_stats(case_samples, level)
        exact = _exact_estimator_cvar(sim.estimator, config.n, d, level)
        rows.append(
            ExperimentRow(
                alpha=level.alpha,
                param_name=f"{ename}:delta" if qualify else "delta",
                param_value=d,
                problem_params={
                    "problem": "estimation",
                    "estimator": ename,
                    "n": config.n,
                    "delta": d,
                    "scale": scale,
                    "replicates": config.replicates,
                },
                bound=result.value,
                t_star=result.t_star,
                empirical_cvar=emp,
                exact_cvar=exact,
                stderr=stderr,
                mc_slack=slack,
                dominated=_dominated(result.value, emp, slack, exact),
            )
        )
    return rows


def _exact_estimator_cvar(
    estimator: Estimator, n: int, delta: float, level: RiskLevel
) -> float | None:
    if estimator is Estimator.SIGN_COMMIT:
        return exact_cvar(exact_sign_estimator_law(n, delta), level)
    if estimator is Estimator.ALWAYS_ZERO:
        # |0 - theta| = delta under either sign, with certainty
        return exact_cvar(DiscreteLossDistribution(((delta, 1.0),)), level)
    return None


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Validate, dispatch on kind, and assemble the report."""
    config.validate()
    started = time.perf_counter()
    if config.kind is ExperimentKind.PSI:
        rows = _psi_rows(config)
    elif config.kind is ExperimentKind.BOUND:
        rows = _bound_rows(config)
    elif config.kind is ExperimentKind.SIMULATE_BANDIT:
        rows = _bandit_sim_rows(config, qualify=False)
    elif config.kind is ExperimentKind.SIMULATE_ESTIMATION:
        rows = _estimation_sim_rows(config, qualify=False)
    else:
        rows = _bandit_sim_rows(config, qualify=True) + _estimation_sim_rows(config, qualify=True)
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
        metadata["policies"] = [policy_name(p) for p in config.policies]
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
