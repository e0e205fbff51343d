"""Inverse calibration of Bernoulli divergence balls.

Given a budget B and a reference success probability b, find the smallest
a in [0, b] with D(Bern(a) || Bern(b)) <= B.  Both supported divergences are
nonincreasing in a on [0, b], so the feasible set is an interval ending at b
and bisection applies.  A closed-form relaxation of the squared-Hellinger
inverse is also provided; it never exceeds the exact inverse, so substituting
it preserves any lower bound built on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .divergences import DivergenceKind, hellinger2_bernoulli, kl_bernoulli
from .errors import DomainError, _check_fields

__all__ = [
    "BRACKET_TOL",
    "InversionResult",
    "bernoulli_inverse",
    "hellinger_inverse_closed",
]

# bisection keeps going until the bracket is this narrow AND the divergence
# gap across it is <= _GAP_TOL, so near-singular references still round-trip
BRACKET_TOL = 1e-12
_GAP_TOL = 1e-10
_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class InversionResult:
    """Feasible endpoint of the bisection bracket and its achieved divergence.

    `a_minus` is always feasible: achieved_divergence <= budget.  When the
    budget is active (a_minus > 0) the achieved divergence also sits within
    ~1e-10 below the budget.
    """

    a_minus: float
    achieved_divergence: float
    iterations: int


def _divergence(kind: DivergenceKind, a: float, b: float) -> float:
    if kind is DivergenceKind.KL:
        return kl_bernoulli(a, b)
    return hellinger2_bernoulli(a, b)


def bernoulli_inverse(kind: DivergenceKind, budget: float, b: float) -> InversionResult:
    """Smallest a in [0, b] with divergence from Bern(b) within the budget.

    A zero budget returns b itself.  For KL with b in {0, 1} and a positive
    budget the reference is degenerate and a DomainError is raised.
    """
    _check_fields({"budget": budget, "b": b})
    budget, b = float(budget), float(b)
    if budget == 0.0:
        return InversionResult(a_minus=b, achieved_divergence=0.0, iterations=0)
    if kind is DivergenceKind.KL and (b == 0.0 or b == 1.0):
        raise DomainError("binary KL inversion needs b in (0, 1) when the budget is positive")

    d_zero = _divergence(kind, 0.0, b)
    if d_zero <= budget:
        return InversionResult(a_minus=0.0, achieved_divergence=d_zero, iterations=0)

    # invariant: divergence(lo) > budget >= divergence(hi)
    lo, hi = 0.0, b
    iterations = 0
    while iterations < _MAX_ITERATIONS:
        if hi - lo <= BRACKET_TOL:
            if _divergence(kind, lo, b) - _divergence(kind, hi, b) <= _GAP_TOL:
                break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _divergence(kind, mid, b) <= budget:
            hi = mid
        else:
            lo = mid
        iterations += 1
    return InversionResult(
        a_minus=hi,
        achieved_divergence=_divergence(kind, hi, b),
        iterations=iterations,
    )


def hellinger_inverse_closed(budget: float, b: float) -> float:
    """Closed-form relaxation (sqrt(b) - sqrt(2 budget))_+^2 of the exact
    squared-Hellinger inverse; never above it, and exact at budget = 0."""
    _check_fields({"budget": budget, "b": b})
    budget, b = float(budget), float(b)
    root = math.sqrt(b) - math.sqrt(2.0 * budget)
    return root * root if root > 0.0 else 0.0
