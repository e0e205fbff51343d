import math

import mpmath
import numpy as np
import pytest
from oracles import bernoulli_inverse_bisection, hellinger_inverse_closed

from cvarbounds.divergences import DivergenceKind, hellinger2_bernoulli, kl_bernoulli
from cvarbounds.errors import DomainError
from cvarbounds.inversion import BRACKET_TOL, bernoulli_inverse

KINDS = (DivergenceKind.KL, DivergenceKind.SQUARED_HELLINGER)


def _div(kind, a, b):
    return kl_bernoulli(a, b) if kind is DivergenceKind.KL else hellinger2_bernoulli(a, b)


def test_zero_budget_returns_reference():
    for kind in KINDS:
        res = bernoulli_inverse(kind, 0.0, 0.42)
        assert res.a_minus == 0.42
        assert res.achieved_divergence == 0.0
        assert res.iterations == 0


def test_saturated_budget_returns_zero():
    # budget at least the divergence of a = 0 makes the whole interval feasible
    b = 0.3
    for kind in KINDS:
        full = _div(kind, 0.0, b)
        res = bernoulli_inverse(kind, full + 0.1, b)
        assert res.a_minus == 0.0
        assert res.achieved_divergence == pytest.approx(full, rel=1e-14)


def test_active_budget_round_trip():
    res = bernoulli_inverse(DivergenceKind.SQUARED_HELLINGER, 0.02, 0.5)
    assert 0.0 < res.a_minus < 0.5
    assert res.achieved_divergence <= 0.02
    assert res.achieved_divergence >= 0.02 - 1e-8
    # the exact inverse sits above the closed-form relaxation
    assert res.a_minus >= (math.sqrt(0.5) - 0.2) ** 2 - 1e-12


def test_round_trip_battery():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        b = float(rng.uniform(1e-3, 1.0 - 1e-3))
        kind = KINDS[int(rng.integers(0, 2))]
        budget = float(rng.uniform(1e-6, _div(kind, 0.0, b) * 0.999))
        res = bernoulli_inverse(kind, budget, b)
        assert 0.0 < res.a_minus <= b
        assert res.achieved_divergence <= budget
        assert res.achieved_divergence >= budget - 1e-8
        assert res.iterations < 200


def test_monotone_in_budget():
    b = 0.7
    for kind in KINDS:
        budgets = np.linspace(1e-4, _div(kind, 0.0, b) * 0.99, 50)
        prev = b
        for budget in budgets:
            a = bernoulli_inverse(kind, float(budget), b).a_minus
            assert a <= prev + 1e-15
            prev = a


def test_kl_degenerate_reference():
    with pytest.raises(DomainError):
        bernoulli_inverse(DivergenceKind.KL, 0.5, 0.0)
    with pytest.raises(DomainError):
        bernoulli_inverse(DivergenceKind.KL, 0.5, 1.0)
    # zero budget sidesteps the degeneracy
    assert bernoulli_inverse(DivergenceKind.KL, 0.0, 1.0).a_minus == 1.0
    # squared Hellinger stays finite everywhere
    res = bernoulli_inverse(DivergenceKind.SQUARED_HELLINGER, 0.5, 1.0)
    assert 0.0 < res.a_minus <= 1.0


def test_invalid_inputs():
    with pytest.raises(ValueError):
        bernoulli_inverse(DivergenceKind.KL, -0.1, 0.5)
    with pytest.raises(ValueError):
        bernoulli_inverse(DivergenceKind.KL, float("nan"), 0.5)
    with pytest.raises(ValueError):
        bernoulli_inverse(DivergenceKind.KL, 0.1, 1.5)
    with pytest.raises(ValueError):
        hellinger_inverse_closed(-1.0, 0.5)
    with pytest.raises(ValueError):
        hellinger_inverse_closed(0.1, -0.5)


def test_closed_form_values():
    assert hellinger_inverse_closed(0.02, 0.5) == pytest.approx(
        (math.sqrt(0.5) - 0.2) ** 2, rel=1e-15
    )
    assert hellinger_inverse_closed(0.0, 0.81) == pytest.approx(0.81, rel=1e-15)
    # budget large enough to swallow sqrt(b)
    assert hellinger_inverse_closed(0.5, 0.9) == 0.0


def test_closed_form_never_exceeds_exact():
    rng = np.random.default_rng(31)
    for _ in range(2000):
        b = float(rng.uniform(0.0, 1.0))
        budget = float(rng.uniform(0.0, 1.2))
        closed = hellinger_inverse_closed(budget, b)
        exact = bernoulli_inverse(DivergenceKind.SQUARED_HELLINGER, budget, b).a_minus
        assert closed <= exact + 1e-12


def test_kl_inverse_below_hellinger_inverse():
    # KL >= squared Hellinger, so the KL ball is smaller and its inverse larger
    rng = np.random.default_rng(99)
    for _ in range(500):
        b = float(rng.uniform(0.05, 0.95))
        budget = float(rng.uniform(1e-4, 0.2))
        a_kl = bernoulli_inverse(DivergenceKind.KL, budget, b).a_minus
        a_h2 = bernoulli_inverse(DivergenceKind.SQUARED_HELLINGER, budget, b).a_minus
        assert a_kl >= a_h2 - 1e-10


# ------------------------------------------- closed-form and Newton inverses

_EPS = math.ulp(1.0)
_AGREE_TOL = 2 * BRACKET_TOL


def _active_battery(seed, count):
    """(kind, budget, b) with the budget active: log-uniform below D(0, b)."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        kind = KINDS[i % 2]
        b = float(rng.uniform(1e-3, 1.0 - 1e-3))
        top = 0.999 * _div(kind, 0.0, b)
        cases.append((kind, float(np.exp(rng.uniform(math.log(1e-6), math.log(top)))), b))
    return cases


def _mp_div(kind, a, b):
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    if kind is DivergenceKind.SQUARED_HELLINGER:
        return 1 - mpmath.sqrt(a * b) - mpmath.sqrt((1 - a) * (1 - b))
    out = a * mpmath.log(a / b) if a > 0 else mpmath.mpf(0)
    return out + (1 - a) * mpmath.log((1 - a) / (1 - b)) if a < 1 else out


def _mp_root(kind, budget, b):
    """Smallest a in [0, b] with the divergence at most the budget, by
    bisection at 50 digits."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(0), mpmath.mpf(b)
        if _mp_div(kind, lo, b) <= budget:
            return lo
        for _ in range(170):
            mid = (lo + hi) / 2
            if _mp_div(kind, mid, b) <= budget:
                hi = mid
            else:
                lo = mid
        return hi


def test_agrees_with_bisection_oracle():
    cases = _active_battery(23, 4000)
    # saturated, zero and full budgets take the same early exits as the oracle
    cases += [(kind, budget, 0.3) for kind in KINDS for budget in (0.0, 1.0, 50.0)]
    for kind, budget, b in cases:
        res = bernoulli_inverse(kind, budget, b)
        want = bernoulli_inverse_bisection(kind, budget, b)
        assert abs(res.a_minus - want.a_minus) <= _AGREE_TOL, (kind, budget, b)
        assert res.achieved_divergence <= budget
        assert res.achieved_divergence == _div(kind, res.a_minus, b)


def test_matches_50_digit_root():
    for kind, budget, b in _active_battery(41, 200):
        res = bernoulli_inverse(kind, budget, b)
        root = _mp_root(kind, budget, b)
        assert abs(res.a_minus - root) <= _AGREE_TOL, (kind, budget, b)
        # within the budget up to the rounding of the float divergence, and
        # never more than the stop rule's gap below it
        exact = _mp_div(kind, res.a_minus, b)
        assert budget - 1e-10 <= exact <= budget + 4 * _EPS, (kind, budget, b)


_EDGE_CASES = [
    (kind, budget, b)
    for kind in KINDS
    for b in (0.01, 0.5, 0.9)
    for budget in (5e-324, 1e-300, math.nextafter(_div(kind, 0.0, b), 0.0))
] + [
    (DivergenceKind.KL, 0.1, 1e-300),
    (DivergenceKind.SQUARED_HELLINGER, 0.1, 1e-300),
    (DivergenceKind.SQUARED_HELLINGER, 1e-6, 1.0),
    (DivergenceKind.SQUARED_HELLINGER, 0.1, 1.0),
    (DivergenceKind.SQUARED_HELLINGER, 0.999, 1.0),
] + [(DivergenceKind.KL, budget, 1.0 - 1e-16) for budget in (1e-6, 0.1, 1.0, 10.0, 36.0)]


@pytest.mark.parametrize("kind, budget, b", _EDGE_CASES)
def test_edge_cases_stay_feasible_and_near_the_root(kind, budget, b):
    res = bernoulli_inverse(kind, budget, b)
    assert 0.0 <= res.a_minus <= b
    assert res.achieved_divergence == _div(kind, res.a_minus, b)
    assert res.achieved_divergence <= budget
    # where rounding blurs the ball's edge (tiny budgets), the exact
    # divergence still stays within a few ulps of the budget
    assert _mp_div(kind, res.a_minus, b) <= budget + 4 * _EPS
    assert res.a_minus <= _mp_root(kind, budget, b) + _AGREE_TOL


def test_active_budget_costs_a_few_evaluations():
    # bisection spent about 37 evaluations a call; this catches a return to it
    counts = {kind: [] for kind in KINDS}
    for kind, budget, b in _active_battery(59, 4000):
        counts[kind].append(bernoulli_inverse(kind, budget, b).iterations)
    for kind, its in counts.items():
        assert sum(its) / len(its) <= 8, kind
        assert max(its) <= 64, kind


def test_monotone_in_budget_across_the_battery():
    rng = np.random.default_rng(73)
    for kind in KINDS:
        for b in rng.uniform(1e-3, 1.0 - 1e-3, size=20):
            b = float(b)
            budgets = np.geomspace(1e-6, _div(kind, 0.0, b), 200)
            a = [bernoulli_inverse(kind, float(budget), b).a_minus for budget in budgets]
            assert all(x <= y for x, y in zip(a[1:], a)), (kind, b)
