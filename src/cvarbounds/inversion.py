"""Inverse calibration of Bernoulli divergence balls.

Given a budget B and a reference success probability b, find the smallest
a in [0, b] with D(Bern(a) || Bern(b)) <= B.  Both supported divergences are
nonincreasing in a on [0, b], so the feasible set is an interval ending at b.
Squared Hellinger inverts in closed form through the angle arcsin sqrt(p);
KL, convex in a, inverts by Newton's method kept inside a bracket on the
root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .divergences import DivergenceKind, hellinger2_bernoulli, kl_bernoulli
from .errors import DomainError, _gated

__all__ = [
    "BRACKET_TOL",
    "InversionResult",
    "bernoulli_inverse",
]

# the KL bracket closes once it is this narrow AND the divergence gap across
# it is <= _GAP_TOL, so near-singular references still round-trip
BRACKET_TOL = 1e-12
_GAP_TOL = 1e-10
_MAX_ITERATIONS = 200
# a Newton step this short has all but reached the root
_PROBE_STEP = 0.5 * BRACKET_TOL
# the doubling step in _hellinger_inverse starts at a b = 2^-108 or above,
# where sqrt(a b) = 2^-54 is about the smallest change H2 near 1 can show;
# started from ulp(0), the doubling would take about 1,000 steps
_H2_FLOOR = 2.0**-108


@dataclass(frozen=True, slots=True)
class InversionResult:
    """Smallest feasible a found, its achieved divergence, and the number of
    divergence evaluations spent after the check that the budget is active.

    `a_minus` is always feasible: achieved_divergence <= budget.  When the
    budget is active (a_minus > 0) the achieved divergence also sits within
    ~1e-10 below the budget.
    """

    a_minus: float
    achieved_divergence: float
    iterations: int


@_gated(kind=DivergenceKind)
def bernoulli_inverse(kind: DivergenceKind, budget: float, b: float) -> InversionResult:
    """Smallest a in [0, b] with divergence from Bern(b) within the budget.

    A zero budget returns b itself.  For KL with b in {0, 1} and a positive
    budget the reference is degenerate and a DomainError is raised.

    The divergences are evaluated about four times an inverse, always at a
    float in [0, b] against the b this gate has taken, so they are called
    through their unchecked `__wrapped__` bodies.
    """
    if budget == 0.0:
        return InversionResult(a_minus=b, achieved_divergence=0.0, iterations=0)
    if kind is DivergenceKind.KL:
        if b == 0.0 or b == 1.0:
            raise DomainError("binary KL inversion needs b in (0, 1) when the budget is positive")
        d_zero = kl_bernoulli.__wrapped__(0.0, b)
    else:
        d_zero = hellinger2_bernoulli.__wrapped__(0.0, b)
    if d_zero <= budget:
        return InversionResult(a_minus=0.0, achieved_divergence=d_zero, iterations=0)
    if kind is DivergenceKind.KL:
        return _kl_inverse(budget, b, d_zero)
    return _hellinger_inverse(budget, b)


def _hellinger_inverse(budget: float, b: float) -> InversionResult:
    """With theta = arcsin sqrt(p), H2(a, b) = 1 - cos(theta_b - theta_a),
    so the root is a = sin^2(theta_b - 2 arcsin sqrt(B/2)); that form keeps
    its precision at tiny B, where arccos(1 - B) loses it.

    Rounding in H2 can leave the root a hair infeasible, so a is raised by
    a doubling step until H2 reads within the budget; a = b always does.
    """
    angle = math.asin(math.sqrt(b)) - 2.0 * math.asin(math.sqrt(0.5 * budget))
    a = min(math.sin(angle) ** 2, b) if angle > 0.0 else 0.0
    step = max(math.ulp(a), _H2_FLOOR / b)
    achieved = hellinger2_bernoulli.__wrapped__(a, b)
    iterations = 1
    while achieved > budget:
        a = min(a + step, b)
        step += step
        achieved = hellinger2_bernoulli.__wrapped__(a, b)
        iterations += 1
    return InversionResult(a_minus=a, achieved_divergence=achieved, iterations=iterations)


def _kl_inverse(budget: float, b: float, d_zero: float) -> InversionResult:
    """Newton's method on KL(a || b) = B inside a bracket [lo, hi] with
    KL(lo) > B >= KL(hi), from the quadratic estimate b - sqrt(2 B b (1-b)).

    A point that leaves the bracket is replaced by its midpoint.  KL is
    convex in a, so every Newton point lands at or below the root and the
    iterates climb it from the infeasible side.  Once a step is shorter than
    _PROBE_STEP the next point probes past the root, which closes the far
    end of the bracket onto it.

    When the estimate rounds to b itself, b is the answer: the spacing of
    floats below b is then at least twice the estimate's step, and KL there
    is at least 0.77 times its quadratic form, so every a < b is infeasible.
    """
    lo, d_lo = 0.0, d_zero
    hi, d_hi = b, 0.0
    one_minus_b = 1.0 - b
    x = b - math.sqrt(2.0 * budget * b * one_minus_b)
    if x == b:
        return InversionResult(a_minus=b, achieved_divergence=0.0, iterations=0)
    iterations, probe = 0, 0.0
    while iterations < _MAX_ITERATIONS:
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        d = kl_bernoulli.__wrapped__(x, b)
        iterations += 1
        if d <= budget:
            hi, d_hi = x, d
        else:
            lo, d_lo = x, d
        if hi - lo <= BRACKET_TOL and d_lo - d_hi <= _GAP_TOL:
            break
        # the slope log(x (1-b) / (b (1-x))), kept < 0 for every x < b
        slope = math.log(x / b) - math.log1p((b - x) / one_minus_b)
        step = (budget - d) / slope
        if abs(step) <= _PROBE_STEP:
            # so short a step all but reaches the root: go past it by twice
            # the step, or twice the last probe while probes fall short
            probe = max(2.0 * abs(step), 2.0 * probe, math.ulp(x))
            step = probe if d > budget else -probe
        x += step
    return InversionResult(a_minus=hi, achieved_divergence=d_hi, iterations=iterations)

