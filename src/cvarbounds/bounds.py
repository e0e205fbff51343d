"""Closed-form lower bounds on prior-predictive CVaR for two-point problems.

The machinery rests on a single scalar minimization.  For a pair of models
whose losses add up to at least c on every transcript, whose losses are
capped at l_max, and whose transcript laws are within squared Hellinger
distance gamma, the CVaR of the loss under the uniform two-point prior obeys

    CVaR_alpha >= min over t in [0, l_max] of
        t + (l_max / (1 - alpha)) * (sqrt(((c/2 - t)/l_max)_+) - sqrt(gamma))_+^2.

Substituting x = (c/2 - t)/l_max turns this into l_max times the minimum of

    F(x) = x_hi - x + (sqrt(x) - sqrt(gamma))_+^2 / (1 - alpha)

over x in [0, x_hi], with x_hi = c/(2 l_max) in [0, 1].  Once gamma >= x_hi
the bracket vanishes on all of the interval and the minimum is zero, at
x = x_hi, i.e. t = 0.  Otherwise write x = 2 x_hi s with s in [0, 1/2] and
rho = sqrt(gamma / x_hi) < 1; then

    F(2 x_hi s) = 2 x_hi * (1/2 - s + (sqrt(s) - rho/sqrt(2))_+^2 / (1 - alpha)),

and the bracket's minimum over s is the balanced profile `bound_factor`
(alpha, rho).  So the template is c * bound_factor(alpha, sqrt(gamma / x_hi)),
attained at t = c (1/2 - s*): s* = rho^2 / (2 alpha^2) on the interior
branch and s* = 1/2, i.e. t = 0, on the other two.  `_template` states this
once, and every bound here is one call to it: the balanced case c = l_max
(x_hi = 1/2, rho = sqrt(2 gamma)), which the two decision problems (Gaussian
mean estimation, two-armed Gaussian bandit) take with their own budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .divergences import DivergenceKind, HellingerBudget, bandit_budget, estimation_budget
from .errors import _FIELD_PROBLEMS, _check_fields, _nonnegative_problem, _regret_cap_problem, _type_problem
from .inversion import bernoulli_inverse
from .risk import RiskLevel

__all__ = [
    "Branch",
    "Method",
    "FactorEvaluation",
    "TwoPointSpec",
    "BoundResult",
    "bound_factor",
    "optimal_bound_constant",
    "two_point_bound",
    "balanced_bound",
    "estimation_bound",
    "bandit_bound",
    "optimal_separation",
    "optimal_gap",
    "hinge_lower_bound",
]

class Branch(Enum):
    """Which piece of the scalar minimization attained the minimum."""

    INTERIOR_QUADRATIC = "interior_quadratic"
    BOUNDARY = "boundary"
    ZERO = "zero"


class Method(Enum):
    """How a BoundResult was computed; every bound here is closed form."""

    CLOSED_FORM = "closed_form"


@dataclass(frozen=True)
class FactorEvaluation:
    """Value of the normalized profile at one (alpha, rho) point."""

    level: RiskLevel
    rho: float
    value: float
    branch: Branch


@dataclass(frozen=True)
class TwoPointSpec:
    """Inputs to the general template: loss cap l_max, transcript-wise loss
    sum floor c_sep, and the Hellinger budget between the two models."""

    l_max: float
    c_sep: float
    budget: HellingerBudget

    def __post_init__(self) -> None:
        l_max, c_sep = self.l_max, self.c_sep
        # c_sep is held to [0, 2 l_max] only once l_max is good; 2 l_max may overflow
        l_max_ok = _FIELD_PROBLEMS["l_max"](l_max) is None
        c_sep_ok = _nonnegative_problem(c_sep) is None and (not l_max_ok or 0.5 * c_sep <= l_max)
        _check_fields(
            {"l_max": l_max}, c_sep=None if c_sep_ok else f"must be a finite real in [0, 2 l_max], got {c_sep!r}"
        )
        object.__setattr__(self, "l_max", float(l_max))
        object.__setattr__(self, "c_sep", float(c_sep))


@dataclass(frozen=True)
class BoundResult:
    """A certified lower bound with the threshold that attains it."""

    value: float
    t_star: float
    branch: Branch
    method: Method


def _check_level(level: RiskLevel) -> None:
    if type(level) is not RiskLevel:
        _check_fields({}, level=_type_problem(level, RiskLevel))


def bound_factor(level: RiskLevel, rho: float) -> FactorEvaluation:
    """Normalized balanced-case profile: the bound equals l_max times this.

    Piecewise in the signal strength rho = sqrt(2 gamma):

        1/2 - rho^2 / (2 alpha)          for rho <= alpha (alpha > 0),
        (1 - rho)^2 / (2 (1 - alpha))    for alpha < rho <= 1,
        0                                for rho >= 1.

    Continuous at both breakpoints, equal to 1/2 at rho = 0, nonincreasing
    in rho, nondecreasing in alpha.

    `_bound_factor_runs` evaluates it over a full rho grid at once, and
    tests/test_experiments.py::test_psi_rows_match_bound_factor holds the two
    equal bit for bit.
    """
    if not (type(level) is RiskLevel and type(rho) is float and 0.0 <= rho < math.inf):
        _check_fields({"rho": rho}, level=_type_problem(level, RiskLevel))
        rho = float(rho)
    alpha = level.alpha
    branch = (
        Branch.ZERO if rho >= 1.0
        else Branch.INTERIOR_QUADRATIC if alpha > 0.0 and rho <= alpha
        else Branch.BOUNDARY
    )
    return FactorEvaluation(level, rho, _branch_value(branch, alpha, rho), branch)


def _branch_value(branch: Branch, alpha: float, rho):
    """The profile on `branch` at rho, a float or an array of floats: the
    one statement of each branch's expression."""
    if branch is Branch.INTERIOR_QUADRATIC:
        return 0.5 - rho * rho / (2.0 * alpha)
    if branch is Branch.BOUNDARY:
        one_minus = 1.0 - rho
        return one_minus * one_minus / (2.0 * (1.0 - alpha))
    return 0.0 * rho


def _bound_factor_runs(level: RiskLevel, rhos: np.ndarray) -> list[tuple[Branch, np.ndarray]]:
    """`bound_factor` over an increasing grid of finite rho >= 0, as
    (branch, values) for the grid's consecutive runs on the interior,
    boundary and zero branches, in that order; together they cover the grid.

    Each run gets `bound_factor`'s own `_branch_value`, so every value and
    branch is bit-identical to it.  No expression is evaluated outside its
    own run: the interior quotient overflows past rho = alpha at a subnormal
    alpha.
    """
    alpha = level.alpha
    interior_end = int(np.searchsorted(rhos, alpha, side="right")) if alpha > 0.0 else 0
    boundary_end = int(np.searchsorted(rhos, 1.0, side="left"))
    # Branch lists the interior, boundary and zero branches in grid order
    runs = zip(Branch, (0, interior_end, boundary_end), (interior_end, boundary_end, len(rhos)))
    return [(branch, _branch_value(branch, alpha, rhos[start:stop])) for branch, start, stop in runs]


def optimal_bound_constant(level: RiskLevel) -> float:
    """sup over rho of rho * bound_factor: 2 / (27 (1 - alpha)) below
    alpha = 1/3, then sqrt(alpha / 27); the branches meet at 1/9.

    The sqrt arrangement takes over from alpha = 1/3 because it lands on 1/9
    to the last ulp there; the rational form is one ulp off.
    """
    _check_level(level)
    a = level.alpha
    if a < 1.0 / 3.0:
        return 2.0 / (27.0 * (1.0 - a))
    return math.sqrt(a / 27.0)


def _optimal_rho(level: RiskLevel) -> float:
    """argmax of rho * bound_factor: 1/3 below alpha = 1/3, then sqrt(alpha/3)."""
    _check_level(level)
    a = level.alpha
    if a < 1.0 / 3.0:
        return 1.0 / 3.0
    return math.sqrt(a / 3.0)


def _template(l_max: float, c: float, gamma: float, level: RiskLevel) -> BoundResult:
    """The template c * bound_factor(alpha, sqrt(gamma / x_hi)), x_hi = c/(2 l_max),
    zero once gamma reaches x_hi, with the threshold attaining it: c (1/2 -
    (rho/alpha)^2 / 2) on the interior branch, where rho <= alpha keeps the
    ratio in [0, 1], and 0 on the other two.  The one statement of the
    template; callers check their inputs."""
    x_hi = 0.5 * (c / l_max)  # 2 l_max may overflow
    if gamma >= x_hi:
        # also covers c = 0; past here rho < 1
        return BoundResult(0.0, 0.0, Branch.ZERO, Method.CLOSED_FORM)
    ev = bound_factor(level, math.sqrt(gamma / x_hi))
    t_star = 0.0
    if ev.branch is Branch.INTERIOR_QUADRATIC:
        ratio = ev.rho / level.alpha
        t_star = c * (0.5 - 0.5 * ratio * ratio)
    return BoundResult(c * ev.value, t_star, ev.branch, Method.CLOSED_FORM)


def two_point_bound(spec: TwoPointSpec, level: RiskLevel) -> BoundResult:
    """General template bound, minimized over thresholds t in [0, l_max], as
    the module docstring derives.  The tests check it against a dense
    threshold grid."""
    if type(spec) is not TwoPointSpec or type(level) is not RiskLevel:
        _check_fields({}, spec=_type_problem(spec, TwoPointSpec), level=_type_problem(level, RiskLevel))
    return _template(spec.l_max, spec.c_sep, spec.budget.gamma, level)


def balanced_bound(l_max: float, budget: HellingerBudget, level: RiskLevel) -> BoundResult:
    """Template value when the pairwise loss sum floor equals the cap:
    l_max * bound_factor(alpha, sqrt(2 gamma)), fully closed form."""
    _check_fields(
        {"l_max": l_max}, budget=_type_problem(budget, HellingerBudget), level=_type_problem(level, RiskLevel)
    )
    return _template(float(l_max), float(l_max), budget.gamma, level)


def estimation_bound(n: int, delta: float, level: RiskLevel) -> BoundResult:
    """Clipped-error CVaR bound 2 delta * bound_factor(alpha, 2 sqrt(n) delta)
    for estimating a unit-variance Gaussian mean known to be one of two
    points 2 delta apart, from n draws."""
    _check_fields({"n": n, "delta": delta}, level=_type_problem(level, RiskLevel))
    l_max = 2.0 * float(delta)
    return _template(l_max, l_max, estimation_budget(n, delta).gamma, level)


def bandit_bound(g: float, horizon: int, level: RiskLevel) -> BoundResult:
    """Regret CVaR bound g T * bound_factor(alpha, g sqrt(T)) for the
    symmetric two-armed unit-variance Gaussian pair with per-arm gap g."""
    _check_fields({"g": g, "horizon": horizon}, level=_type_problem(level, RiskLevel))
    gamma = bandit_budget(g, horizon).gamma
    l_max = float(g) * horizon
    if l_max == math.inf:
        _check_fields({}, g=_regret_cap_problem(g, horizon))
    return _template(l_max, l_max, gamma, level)


def optimal_separation(n: int, level: RiskLevel) -> tuple[float, float]:
    """Worst-case separation for estimation: delta* = _optimal_rho / (2 sqrt(n)),
    returned with its bound value optimal_bound_constant / sqrt(n)."""
    _check_fields({"n": n}, level=_type_problem(level, RiskLevel))
    root_n = math.sqrt(n)
    return _optimal_rho(level) / (2.0 * root_n), optimal_bound_constant(level) / root_n


def optimal_gap(horizon: int, level: RiskLevel) -> tuple[float, float]:
    """Worst-case arm gap for the bandit: g* = _optimal_rho / sqrt(T), returned
    with its bound value optimal_bound_constant * sqrt(T)."""
    _check_fields({"horizon": horizon}, level=_type_problem(level, RiskLevel))
    root_t = math.sqrt(horizon)
    return _optimal_rho(level) / root_t, optimal_bound_constant(level) * root_t


def hinge_lower_bound(
    l_max: float, budget: float, reference_hinge: float, kind: DivergenceKind
) -> float:
    """Floor on a hinge expectation transported across a divergence ball.

    If E[(L - t)_+] / l_max equals `reference_hinge` under a reference law,
    then under any law within `budget` of it the normalized hinge is at least
    the Bernoulli divergence-ball inverse, so the hinge expectation is at
    least l_max times that inverse.
    """
    _check_fields(
        {"l_max": l_max, "budget": budget, "reference_hinge": reference_hinge}, kind=_type_problem(kind, DivergenceKind)
    )
    return float(l_max) * bernoulli_inverse(kind, budget, reference_hinge).a_minus
