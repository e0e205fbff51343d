"""Closed-form divergences and the transcript-level budgets they certify.

Everything here is scalar arithmetic: KL and squared Hellinger distance on
the Bernoulli family, and the two budgets used by the decision problems
downstream (mean estimation from n draws, two-armed bandit over horizon T),
built on the unit-variance Gaussian KL (mu1 - mu2)^2 / 2.  The bandit budget is policy
independent: each round shifts the chosen arm's mean by the same amount g
under either model, so every round contributes g^2/2 to the transcript KL
no matter which arm was pulled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, _check_fields

__all__ = [
    "DivergenceKind",
    "HellingerBudget",
    "estimation_budget",
    "bandit_budget",
]

class DivergenceKind(Enum):
    KL = "kl"
    SQUARED_HELLINGER = "h2"


@dataclass(frozen=True)
class HellingerBudget:
    """Nonnegative cap on the squared Hellinger distance between two transcript laws."""

    gamma: float

    def __post_init__(self) -> None:
        _check_fields({"gamma": self.gamma})
        object.__setattr__(self, "gamma", float(self.gamma))


def _check_unit(a: float, b: float) -> tuple[float, float]:
    """The Bernoulli parameters a and b as floats, once the field table has
    taken them.  Callers pass plain floats in [0, 1] without calling this,
    since the root finders in `inversion` evaluate them on every step."""
    _check_fields({"a": a, "b": b})
    return float(a), float(b)


def _kl_term(p: float, q: float, d: float) -> float:
    """p log(p/q) - d for p = q + d > 0 with q > 0, or q at p = 0: the
    nonnegative q h(d/q), with h(u) = (1 + u) log(1 + u) - u.  Near d = 0,
    where the closed form cancels, h is summed by its alternating series
    sum_k>=2 (-u)^k / (k (k-1)), to the first term below 1e-17 of the sum."""
    u = d / q
    if u > 1e-2 or u < -1e-2:
        return p * math.log1p(u) - d if p > 0.0 else q
    return q * u * u * (1 / 2 - u * (1 / 6 - u * (1 / 12 - u * (1 / 20 - u * (
        1 / 30 - u * (1 / 42 - u * (1 / 56 - u / 72))
    )))))


def kl_bernoulli(a: float, b: float) -> float:
    """Binary KL a log(a/b) + (1-a) log((1-a)/(1-b)), with 0 log 0 = 0.

    The two terms cancel near a = b, where that form even turns negative, so
    each is taken less its share of a - b, which sums to zero, leaving two
    nonnegative terms.  Raises DomainError where the divergence is infinite
    (a > 0 against b = 0, or a < 1 against b = 1).
    """
    if not (type(a) is float and type(b) is float and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        a, b = _check_unit(a, b)
    if a == b:
        return 0.0
    if b == 0.0:
        raise DomainError("kl_bernoulli is infinite for a > 0, b = 0")
    if b == 1.0:
        raise DomainError("kl_bernoulli is infinite for a < 1, b = 1")
    d = a - b
    return _kl_term(a, b, d) + _kl_term(1.0 - a, 1.0 - b, -d)


def hellinger2_bernoulli(a: float, b: float) -> float:
    """Squared Hellinger distance 1 - sqrt(ab) - sqrt((1-a)(1-b)) on [0, 1]^2.

    Always finite.  Computed as half the sum of squared root differences over
    the two outcomes, each difference written as (a - b) over a sum of roots,
    so nothing cancels near a = b, where the form above loses every digit.
    """
    if not (type(a) is float and type(b) is float and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        a, b = _check_unit(a, b)
    if a == b:
        return 0.0
    d = a - b
    u = d / (math.sqrt(a) + math.sqrt(b))
    v = d / (math.sqrt(1.0 - a) + math.sqrt(1.0 - b))
    return 0.5 * (u * u + v * v)


def estimation_budget(n: int, delta: float) -> HellingerBudget:
    """Budget 2 n delta^2 for n unit-variance draws whose mean differs by
    2 delta between the two candidate models.

    The exact product-measure squared Hellinger distance is
    1 - exp(-n delta^2 / 2) <= 2 n delta^2; the linearized cap keeps the
    downstream closed forms polynomial in delta.
    """
    _check_fields({"n": n, "delta": delta})
    d = float(delta)
    gamma = 2.0 * n * d * d
    if gamma == math.inf:
        _check_fields({}, delta=f"2 n delta^2 overflows a float at n = {n}, got {delta!r}")
    return HellingerBudget(gamma)


def bandit_budget(g: float, horizon: int) -> HellingerBudget:
    """Budget g^2 T / 2 for a horizon-T two-armed transcript with per-arm mean
    shift g between the two models; holds for every policy since each round
    contributes g^2/2 to the transcript KL regardless of the arm pulled, and
    squared Hellinger never exceeds KL.
    """
    _check_fields({"g": g, "horizon": horizon})
    gv = float(g)
    gamma = 0.5 * gv * gv * horizon
    if gamma == math.inf:
        _check_fields({}, g=f"g^2 horizon / 2 overflows a float at horizon = {horizon}, got {g!r}")
    return HellingerBudget(gamma)
