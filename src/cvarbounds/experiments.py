"""Experiment orchestration: resolve a config into rows, render CSV/JSON.

A `bound`, `simulate` or `verify` config becomes one battery of cases, one
per subject, variant, tail level and scale.  Its refusals are raised as one
`ConfigError` before any case is drawn, and simulated cases share one pass.

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
import sys
import time
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple, get_args

import numpy as np

from .bounds import (
    BoundResult, Branch, _bound_factor_runs, bandit_bound, estimation_bound, optimal_gap, optimal_separation
)
from .errors import _FIELD_PROBLEMS, _field_problems, _is_real
from .risk import DiscreteLossDistribution, RiskLevel, SampleSet, _tail_block, empirical_cvar, exact_cvar
from .sim import (
    BanditConfig,
    EstimationConfig,
    Estimator,
    RNG_CONTRACT,
    Policy,
    _estimator_problem,
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

# relative rounding allowance below a bound, for the empirical and the exact CVaR
_EXACT_SLACK = 1e-9

# multiplier turning a tail standard error into Monte Carlo slack
_SLACK_SIGMAS = 5.0

# most rho steps a psi table may take (the rows are built as a list)
_MAX_PSI_STEPS = 10**6

# a psi grid keeps an endpoint that rounding puts this little (relative)
# above rho_max: 1.2 / 1e-4 is 11999.999999999998, and 3 * 0.1 is
# 0.30000000000000004; such rounding is a few ulps, about 1e-16 each
_PSI_ENDPOINT_RTOL = 1e-12


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
    SIMULATE = "simulate"
    VERIFY = "verify"


# the kinds that simulate, and so report Monte Carlo statistics
_SIMULATED_KINDS = (ExperimentKind.SIMULATE, ExperimentKind.VERIFY)


class OutputFormat(Enum):
    CSV = "csv"
    JSON = "json"


# parse_policy's settings, each by the policy field it sets
_SETTING_FIELDS = {"tau": "tau", "ucb_c": "c_explore"}


def _readers(setting: str) -> list[str]:
    """Names of the policies that read a `parse_policy` setting: those whose
    class has the field it sets."""
    field = _SETTING_FIELDS[setting]
    return [cls.name for cls in get_args(Policy) if field in {f.name for f in fields(cls)}]


def parse_policy(name: str, tau: int | None = None, ucb_c: float | None = None) -> Policy:
    """Policy from its name (uniform, etc, ucb, thompson).  A setting given,
    one that is not None, sets its field (`tau`, and `ucb_c` as `c_explore`)
    where the policy reads it (`_readers`); the policy's own defaults hold
    for the rest."""
    for cls in get_args(Policy):
        if cls.name == name:
            given = {"tau": tau, "ucb_c": ucb_c}
            return cls(**{
                _SETTING_FIELDS[setting]: value
                for setting, value in given.items()
                if value is not None and name in _readers(setting)
            })
    raise ConfigError({"policy": f"unknown policy {name!r}"})


def _is_default(value: object, default: object) -> bool:
    """Whether a field holds its default: None, a real, or a tuple of
    reals.  Only a real is compared with a real, so an array is never asked
    for its truth value."""
    if isinstance(default, tuple):
        same_length = isinstance(value, (tuple, list)) and len(value) == len(default)
        return same_length and all(map(_is_default, value, default))
    return value is default or (_is_real(value) and value == default)


def _is_optimal(raw: object) -> bool:
    """Whether a gap or separation field asks for the worst case; only a
    string is compared, so an array there is refused by the field rules."""
    return isinstance(raw, str) and raw == OPTIMAL


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment request; `validate` refuses, all at once, what `run_experiment` would."""

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
        """Refuse, as one `ConfigError`, exactly what `run_experiment` refuses."""
        _cases(self)


# the config fields each kind's rows read, besides kind and alphas: the cli
# offers a flag for each
_BOUND_FIELDS = ("scales", "n", "delta", "horizon", "gap")
_READ_FIELDS = {
    ExperimentKind.PSI: ("rho_max", "rho_step"),
    ExperimentKind.BOUND: _BOUND_FIELDS,
    **dict.fromkeys(_SIMULATED_KINDS, (*_BOUND_FIELDS, "estimators", "policies", "replicates", "seed")),
}
# the rest, with their defaults: validate refuses one set away from its
# default, which would change nothing but the report's metadata
_UNREAD_FIELDS = {
    kind: tuple((f.name, f.default) for f in fields(ExperimentConfig) if f.name not in ("kind", "alphas", *reads))
    for kind, reads in _READ_FIELDS.items()
}


class ExperimentRow(NamedTuple):
    """One report row: an immutable tuple, so `row._asdict()` and
    `row._replace(...)` read and vary it.  Without `problem_params` a row
    holds an empty read-only mapping, which no row can change for another."""

    alpha: float
    param_name: str
    param_value: float
    problem_params: Mapping[str, Any] = MappingProxyType({})
    bound: float = 0.0
    t_star: float | None = None
    empirical_cvar: float | None = None
    exact_cvar: float | None = None
    stderr: float | None = None
    mc_slack: float | None = None
    dominated: bool = True


# where each CSV column sits in a row, and its name: every field but
# problem_params, in row order
_CSV_FIELDS = [i for i, name in enumerate(ExperimentRow._fields) if name != "problem_params"]
CSV_COLUMNS = tuple(ExperimentRow._fields[i] for i in _CSV_FIELDS)


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    metadata: Mapping[str, Any]

    @property
    def all_dominated(self) -> bool:
        return all(row.dominated for row in self.rows)


def _tail_stats(
    samples: SampleSet, level: RiskLevel, law: DiscreteLossDistribution | None, l_max: float
) -> tuple[float, float, float]:
    """Empirical CVaR with its influence-function standard error
    sd((L - VaR)+) / ((1 - alpha) sqrt(N)), VaR being the last sample of the
    tail block (Manistre and Hancock, NAAJ 2005); `_cases` keeps that block
    at 2 samples or more.  The sd is taken of the excess
    scaled by a power of two near the largest loss, so its squares neither
    underflow nor overflow, and the scaling is exact.

    A sample that holds one value shows no spread, whatever its law's.  An
    sd of L then stands in for the sample's: it bounds sd((L - VaR)+) from
    above at any VaR, as x -> (x - VaR)+ is 1-Lipschitz, so the slack errs
    wide and never reads 0 for a law that has spread.  It is the exact
    `law`'s where that is known, else l_max / 2, which bounds the sd of any
    loss in [0, l_max] (Popoviciu's inequality)."""
    emp = empirical_cvar(samples, level)
    values = samples.values
    if values[0] != values[-1]:
        e = math.frexp(values[0])[1]
        excess = np.maximum(values - values[_tail_block(level, samples.count) - 1], 0.0)
        sd = math.ldexp(float(np.ldexp(excess, -e).std(ddof=1)), e)
    elif law is None:
        sd = 0.5 * l_max
    else:
        e = math.frexp(law.values[-1])[1]
        scaled = [math.ldexp(value, -e) for value in law.values]
        mean = math.fsum(p * x for p, x in zip(law.probs, scaled))
        sd = math.ldexp(math.sqrt(math.fsum(p * (x - mean) ** 2 for p, x in zip(law.probs, scaled))), e)
    stderr = sd / (level.tail_mass * math.sqrt(samples.count))
    return emp, stderr, _SLACK_SIGMAS * stderr


def _dominated(bound: float, emp: float, slack: float, exact: float | None) -> bool:
    floor = bound - _EXACT_SLACK * bound
    return emp >= floor - slack and (exact is None or exact >= floor)


def _psi_steps(rho_max: float, rho_step: float) -> int:
    """Steps in the psi grid 0, rho_step, 2 rho_step, ...: to the last point
    not above rho_max, or a hair above it (`_PSI_ENDPOINT_RTOL`).  Any count
    above `_MAX_PSI_STEPS` reads as one more, so an overflowing ratio is
    never floored."""
    ratio = rho_max / rho_step * (1.0 + _PSI_ENDPOINT_RTOL)
    return math.floor(min(ratio, _MAX_PSI_STEPS + 1))


# every psi row's problem_params: one read-only mapping per branch, shared
# by all the rows on it
_BRANCH_PARAMS = {branch: MappingProxyType({"branch": branch.value}) for branch in Branch}


def _psi_rows(config: ExperimentConfig) -> list[ExperimentRow]:
    # exactly i * rho_step: each product of an index and the step rounds once
    rhos = np.arange(_psi_steps(config.rho_max, config.rho_step) + 1) * config.rho_step
    rho_values = rhos.tolist()  # one float per point, shared by every level's rows
    rows: list[ExperimentRow] = []
    for alpha in config.alphas:
        level = RiskLevel(alpha)
        start = 0
        for branch, values in _bound_factor_runs(level, rhos):
            params, stop = _BRANCH_PARAMS[branch], start + len(values)
            # positional: keyword arguments would add about a third to a row's cost
            rows += [
                ExperimentRow(level.alpha, "rho", rho, params, value)
                for rho, value in zip(rho_values[start:stop], values.tolist())
            ]
            start = stop
    return rows


@dataclass(frozen=True)
class _Subject:
    """One problem family as the row loop sees it.

    The lambdas reach the library through this module's global names when
    they are called, so a later rebinding of those names is honoured.
    `sim_config` is the subject's config class, whose fields run (size,
    parameter, variant, replicates, seed).
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
    sim_config: type[BanditConfig] | type[EstimationConfig]


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
    sim_config=BanditConfig,
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
    sim_config=EstimationConfig,
)

_SUBJECTS = (_BANDIT, _ESTIMATION)


def _subjects(config: ExperimentConfig) -> tuple[_Subject, ...]:
    """The subjects a config's kind covers: every one for `verify`; for
    `bound` and `simulate`, each whose size or parameter field is set, and
    for `simulate` each given a variant too, so that a stray one is refused.
    A variants field that is no tuple or list gives none; `validate` refuses it."""
    kind = config.kind
    if kind not in (ExperimentKind.BOUND, ExperimentKind.SIMULATE):
        return _SUBJECTS if kind is ExperimentKind.VERIFY else ()
    return tuple(
        subject
        for subject in _SUBJECTS
        if getattr(config, subject.size) is not None
        or getattr(config, subject.field) is not None
        or kind is ExperimentKind.SIMULATE
        and isinstance(variants := getattr(config, subject.variants), (tuple, list))
        and len(variants) > 0
    )


def _refusal(config: ExperimentConfig, subject: _Subject, scale: float, exc: ValueError) -> tuple[str, str]:
    """One case's refusal, as (field, why), under the config field the user
    set.  A sim config names that field itself: "horizon: why".  A closed
    form names the parameter times scale by its own argument, "g: why, got
    value"; that goes under the parameter's field, naming the value given
    and the scale, or under `scales` when the parameter is the worst case."""
    name, _, why = str(exc).partition(": ")
    if name != subject.param:
        return name, why
    why = why.rpartition(", got ")[0]
    raw = getattr(config, subject.field)
    optimal = _is_optimal(raw)
    what = f"{subject.param} is the {OPTIMAL if optimal else 'given'} {subject.field} times scale"
    if optimal:
        return "scales", f"{why}, where {what}, got {scale!r}"
    return subject.field, f"{why}, where {what} = {scale!r}, got {raw!r}"


def _cases(config: ExperimentConfig) -> list[tuple]:
    """The one refusal phase: a config's cases, or one `ConfigError` naming
    every field the field rules refuse, else every field whose cases the
    closed forms refuse, or whose simulated parameter is subnormal, each
    under the field the user set (`_refusal`).  A case is
    one future row, bounded and with its sim config built: subject by
    subject, variant by variant, then by alpha, then by scale; psi has none.
    """
    problems: dict[str, str] = {}
    for name, item in (("alphas", "alpha"), ("scales", "scale")):
        values = getattr(config, name)
        if not isinstance(values, (tuple, list)):
            problems[name] = f"must be a tuple of {item} values, got {values!r}"
        elif not values:
            problems[name] = f"at least one {item} is required"
        elif why := next(filter(None, map(_FIELD_PROBLEMS[item], values)), None):
            problems[name] = f"every {item} {why}, got {values!r}"

    kind = config.kind
    if not isinstance(kind, ExperimentKind):
        # _subjects covers no subject for it, so no subject is checked
        problems["kind"] = f"must be an ExperimentKind, got {kind!r}"
    if kind is ExperimentKind.PSI:
        grid_problems = _field_problems({"rho_max": config.rho_max, "rho_step": config.rho_step})
        problems.update(grid_problems)
        if not grid_problems and _psi_steps(config.rho_max, config.rho_step) > _MAX_PSI_STEPS:
            ratio = config.rho_max / config.rho_step
            problems["rho_step"] = f"rho_max / rho_step is {ratio:.6g}, above {_MAX_PSI_STEPS} grid steps"
    subjects = _subjects(config)
    if kind in (ExperimentKind.BOUND, ExperimentKind.SIMULATE) and len(subjects) != 1:
        est, bandit = ("", "") if kind is ExperimentKind.BOUND else (", estimators", ", policies")
        problems["kind"] = f"{kind.value} needs exactly one of (n, delta{est}) or (horizon, gap{bandit})"
        subjects = ()
    sizes = {subject.size: getattr(config, subject.size) for subject in subjects}
    problems.update(_field_problems({"replicates": config.replicates, "seed": config.seed, **sizes}))
    if kind in _SIMULATED_KINDS and not {"alphas", "replicates"} & problems.keys():
        # a one-sample tail block has no standard error, so no Monte Carlo slack
        alpha = max(config.alphas)
        m = _tail_block(RiskLevel(alpha), config.replicates)
        if m < 2:
            problems["replicates"] = (
                f"must leave at least 2 samples in every tail block, got {config.replicates}, "
                f"which leaves {m} at alpha = {alpha}"
            )
    for subject in subjects:
        raw = getattr(config, subject.field)
        why = None if _is_optimal(raw) else _FIELD_PROBLEMS[subject.field](raw)
        if why:
            problems[subject.field] = f"{why} or {OPTIMAL!r}, got {raw!r}"
    for subject in _SUBJECTS:
        variants = getattr(config, subject.variants)
        if not isinstance(variants, (tuple, list)):
            problems[subject.variants] = f"must be a tuple of {subject.variant} objects, got {variants!r}"
            continue
        size = getattr(config, subject.size)
        for variant in variants:
            why = subject.problem_of(size, variant)
            if why:
                problems.setdefault(subject.variants, why)
        if kind is ExperimentKind.VERIFY and not variants:
            problems.setdefault(subject.variants, f"verify needs at least one {subject.variant}")
        elif kind is ExperimentKind.SIMULATE and subject in subjects and len(variants) != 1:
            problems.setdefault(subject.variants, f"simulate takes exactly one {subject.variant}")
    for name, default in _UNREAD_FIELDS[kind] if isinstance(kind, ExperimentKind) else ():
        value = getattr(config, name)
        if not _is_default(value, default):
            problems[name] = f"{kind.value} does not read it, got {value!r}"
    if problems:
        raise ConfigError(problems)
    simulate = kind in _SIMULATED_KINDS
    cases = []
    for subject in subjects:
        size = getattr(config, subject.size)
        raw = getattr(config, subject.field)
        for variant in getattr(config, subject.variants) if simulate else (None,):
            for alpha in config.alphas:
                level = RiskLevel(alpha)
                base = subject.optimum(size, level) if _is_optimal(raw) else float(raw)
                for scale in map(float, config.scales):
                    value = scale * base
                    try:
                        if simulate and value < sys.float_info.min:
                            # a verdict's relative rounding allowance is 0 at subnormal losses
                            why = f"must be at least the smallest normal float, {sys.float_info.min!r}"
                            raise ValueError(f"{subject.param}: {why}, got {value!r}")
                        result = subject.bound(size, value, level)
                        sim_config = (
                            subject.sim_config(size, value, variant, config.replicates, config.seed) if simulate else None
                        )
                    except ValueError as exc:
                        problems.setdefault(*_refusal(config, subject, scale, exc))
                        continue
                    cases.append((subject, size, variant, level, scale, value, result, sim_config))
    if problems:
        raise ConfigError(problems)
    return cases


def _battery_rows(config: ExperimentConfig, cases: list[tuple]) -> list[ExperimentRow]:
    """Rows of a battery's `_cases`; `bound` rows carry the bound alone.
    Simulated rows are drawn in one call to `simulate_shared`, which draws
    once for every case whose draws coincide, and carry the Monte Carlo
    statistics and, where `exact_loss_law` knows one, the exact law's CVaR;
    in `verify` their parameter names are qualified by the variant."""
    simulate = config.kind in _SIMULATED_KINDS
    qualify = config.kind is ExperimentKind.VERIFY
    samples = simulate_shared([case[-1] for case in cases]) if simulate else [None] * len(cases)
    rows = []
    for (subject, size, variant, level, scale, value, result, sim_config), case_samples in zip(cases, samples):
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
            law = exact_loss_law(sim_config)
            # l_max, the largest loss: gT for the bandit, 2 delta for the estimation
            if isinstance(sim_config, BanditConfig):
                l_max = sim_config.gap * sim_config.horizon
            else:
                l_max = 2.0 * sim_config.delta
            emp, stderr, slack = _tail_stats(case_samples, level, law, l_max)
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
    """Build the cases (`_cases`), dispatch on kind, and assemble the report."""
    started = time.perf_counter()
    cases = _cases(config)
    rows = _psi_rows(config) if config.kind is ExperimentKind.PSI else _battery_rows(config, cases)
    metadata: dict[str, Any] = {
        "kind": config.kind.value,
        # a report carries Python floats: JSON renders no numpy float32
        "alphas": list(map(float, config.alphas)),
        "scales": list(map(float, config.scales)),
        "seed": config.seed,
        "wall_time_s": time.perf_counter() - started,
    }
    if config.kind in _SIMULATED_KINDS:
        metadata["replicates"] = config.replicates
        metadata["rng_contract"] = RNG_CONTRACT
    if config.policies:
        metadata["policies"] = [p.name for p in config.policies]
    if config.estimators:
        metadata["estimators"] = [e.value for e in config.estimators]
    if config.horizon is not None:
        metadata["horizon"] = config.horizon
    if config.n is not None:
        metadata["n"] = config.n
    return ExperimentReport(rows=tuple(rows), metadata=metadata)


def _cells(values: Iterable[float | str | bool | None]) -> list[str]:
    """CSV cells of one column: empty for None, a string as it is, a bool as
    true/false and a number with 12 significant digits.  A value that is the
    same object as the one before it reuses that cell's text, so a column
    holding one alpha object per tail level formats it about once a level."""
    cells: list[str] = []
    previous: object = cells  # no value is this list
    text = ""
    for value in values:
        if value is not previous:
            previous = value
            text = (
                "" if value is None
                else "true" if value is True
                else "false" if value is False
                else value if isinstance(value, str)
                else "%.12g" % value
            )
        cells.append(text)
    return cells


def render_csv(report: ExperimentReport) -> str:
    # the rows transposed once, then a column at a time: a function call or
    # attribute lookup per cell made long psi tables measurably slower
    fields = list(zip(*report.rows)) or [()] * len(ExperimentRow._fields)
    columns = [_cells(fields[i]) for i in _CSV_FIELDS]
    return "\n".join([",".join(CSV_COLUMNS), *map(",".join, zip(*columns))]) + "\n"


# metadata keys that vary across identical runs; dropped at render time so a
# fixed config and seed produce byte-identical files
_VOLATILE_METADATA = ("wall_time_s",)


def render_json(report: ExperimentReport) -> str:
    metadata = {k: v for k, v in report.metadata.items() if k not in _VOLATILE_METADATA}
    payload = {
        "metadata": metadata,
        "rows": [{**row._asdict(), "problem_params": dict(row.problem_params)} for row in report.rows],
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
