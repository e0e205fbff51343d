import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import hellinger_le_kl_check, kl_gaussian_unit_var

from cvarbounds.divergences import (
    DivergenceKind,
    HellingerBudget,
    bandit_budget,
    estimation_budget,
    hellinger2_bernoulli,
    kl_bernoulli,
)
from cvarbounds.errors import DomainError
from cvarbounds.inversion import bernoulli_inverse

unit = st.floats(0.0, 1.0, allow_nan=False)
interior = st.floats(1e-6, 1.0 - 1e-6, allow_nan=False)


def test_kl_gaussian_examples():
    assert kl_gaussian_unit_var(0.5, -0.5) == pytest.approx(0.5, abs=1e-15)
    assert kl_gaussian_unit_var(2.0, 2.0) == 0.0
    assert kl_gaussian_unit_var(0.0, 3.0) == pytest.approx(4.5)


def test_kl_gaussian_product_measure_mc():
    # n independent draws multiply the KL; check by averaging log likelihood
    # ratios of simulated data under the first model
    mu1, mu2, n = 0.7, 0.2, 8
    target = n * kl_gaussian_unit_var(mu1, mu2)
    rng = np.random.default_rng(2024)
    reps = 200_000
    y = mu1 + rng.standard_normal((reps, n))
    llr = 0.5 * ((y - mu2) ** 2 - (y - mu1) ** 2).sum(axis=1)
    est = float(llr.mean())
    stderr = float(llr.std(ddof=1)) / math.sqrt(reps)
    assert abs(est - target) <= 4.0 * stderr


def test_kl_bernoulli_examples():
    v = kl_bernoulli(0.25, 0.75)
    want = 0.25 * math.log(1 / 3) + 0.75 * math.log(3)
    assert v == pytest.approx(want, rel=1e-15)
    assert v == pytest.approx(0.5493061443340549, rel=1e-12)
    assert kl_bernoulli(0.5, 0.5) == 0.0
    # 0 log 0 conventions
    assert kl_bernoulli(0.0, 0.3) == pytest.approx(-math.log(0.7), rel=1e-15)
    assert kl_bernoulli(1.0, 0.3) == pytest.approx(-math.log(0.3), rel=1e-15)
    assert kl_bernoulli(0.0, 0.0) == 0.0
    assert kl_bernoulli(1.0, 1.0) == 0.0


def test_kl_bernoulli_infinite_cases():
    with pytest.raises(DomainError):
        kl_bernoulli(0.5, 0.0)
    with pytest.raises(DomainError):
        kl_bernoulli(0.5, 1.0)
    with pytest.raises(ValueError):
        kl_bernoulli(-0.1, 0.5)
    with pytest.raises(ValueError):
        kl_bernoulli(0.5, 1.1)


def test_hellinger_examples():
    v = hellinger2_bernoulli(0.25, 0.75)
    assert v == pytest.approx(1.0 - math.sqrt(3.0) / 2.0, rel=1e-14)
    assert hellinger2_bernoulli(0.0, 1.0) == 1.0
    assert hellinger2_bernoulli(0.4, 0.4) == 0.0


@given(a=unit, b=unit)
@settings(max_examples=300, deadline=None)
def test_hellinger_two_forms_agree(a, b):
    direct = hellinger2_bernoulli(a, b)
    half_sum = 0.5 * (
        (math.sqrt(a) - math.sqrt(b)) ** 2
        + (math.sqrt(1.0 - a) - math.sqrt(1.0 - b)) ** 2
    )
    assert direct == pytest.approx(half_sum, abs=1e-14)
    assert 0.0 <= direct <= 1.0
    assert hellinger2_bernoulli(a, b) == hellinger2_bernoulli(b, a)


def test_hellinger_keeps_its_digits_near_equal_arguments():
    # 1 - sqrt(ab) - sqrt((1-a)(1-b)) cancels here, to relative errors of 1e4
    rng = np.random.default_rng(17)
    with mpmath.workdps(50):
        for _ in range(2000):
            b = float(rng.uniform(0.0, 1.0))
            a = b * (1.0 - 10.0 ** rng.uniform(-15.0, -3.0))
            A, B = mpmath.mpf(a), mpmath.mpf(b)
            want = 1 - mpmath.sqrt(A * B) - mpmath.sqrt((1 - A) * (1 - B))
            assert abs(hellinger2_bernoulli(a, b) - want) <= 2e-15 * want


def test_kl_keeps_its_digits_near_equal_arguments():
    # a log(a/b) + (1-a) log((1-a)/(1-b)) cancels here, to relative errors of
    # 1e15 and to negative values; a is drawn below b, and 1 - a below 1 - b
    rng = np.random.default_rng(29)
    with mpmath.workdps(50):
        for i in range(4000):
            b = float(rng.uniform(0.0, 1.0))
            shrink = 1.0 - 10.0 ** rng.uniform(-15.0, -3.0)
            a = b * shrink if i % 2 else 1.0 - (1.0 - b) * shrink
            A, B = mpmath.mpf(a), mpmath.mpf(b)
            want = A * mpmath.log(A / B) + (1 - A) * mpmath.log((1 - A) / (1 - B))
            got = kl_bernoulli(a, b)
            assert got >= 0.0 and abs(got - want) <= 1e-13 * want, (a, b)
    # the smallest budget no longer admits an a below b at a negative divergence
    res = bernoulli_inverse(DivergenceKind.KL, 5e-324, 0.5)
    assert (res.a_minus, res.achieved_divergence) == (0.5, 0.0)


@given(a=unit, b=unit)
@settings(max_examples=300, deadline=None)
def test_hellinger_zero_iff_equal(a, b):
    if a == b:
        assert hellinger2_bernoulli(a, b) == 0.0
    elif abs(a - b) > 1e-6:
        assert hellinger2_bernoulli(a, b) > 0.0


def test_hellinger_le_kl_battery():
    rng = np.random.default_rng(55)
    for _ in range(10_000):
        a = float(rng.uniform())
        b = float(rng.uniform(1e-9, 1.0 - 1e-9))
        assert hellinger2_bernoulli(a, b) <= kl_bernoulli(a, b) + 1e-12
        assert hellinger_le_kl_check(a, b)


def test_budget_values():
    assert estimation_budget(100, 0.05).gamma == pytest.approx(0.5, rel=1e-15)
    assert estimation_budget(1, 1.0).gamma == 2.0
    assert bandit_budget(0.1, 200).gamma == pytest.approx(1.0, rel=1e-15)
    assert bandit_budget(2.0, 1).gamma == 2.0


def test_budget_dominates_exact_hellinger():
    # exact product-measure value 1 - exp(-n delta^2 / 2) stays below 2 n delta^2
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 500))
        delta = float(rng.uniform(1e-4, 2.0))
        exact = 1.0 - math.exp(-n * delta * delta / 2.0)
        assert exact <= estimation_budget(n, delta).gamma + 1e-15


def test_budget_validation():
    with pytest.raises(ValueError):
        estimation_budget(0, 0.1)
    with pytest.raises(ValueError):
        estimation_budget(10, 0.0)
    with pytest.raises(ValueError):
        estimation_budget(10, -1.0)
    with pytest.raises(ValueError):
        bandit_budget(0.1, 0)
    with pytest.raises(ValueError):
        bandit_budget(float("inf"), 10)
    with pytest.raises(ValueError):
        HellingerBudget(-0.5)
    with pytest.raises(ValueError):
        HellingerBudget(float("nan"))


def test_bandit_budget_policy_free_form():
    # g^2 T / 2, linear in T and quadratic in g
    b1 = bandit_budget(0.3, 100).gamma
    assert bandit_budget(0.3, 400).gamma == pytest.approx(4.0 * b1, rel=1e-14)
    assert bandit_budget(0.6, 100).gamma == pytest.approx(4.0 * b1, rel=1e-14)
