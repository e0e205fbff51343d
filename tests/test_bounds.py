import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bound_factor_grid_min, hellinger_inverse_closed

from cvarbounds.bounds import (
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
    optimal_rho,
    optimal_separation,
    two_point_bound,
)
from cvarbounds.divergences import (
    DivergenceKind,
    HellingerBudget,
    bandit_budget,
    estimation_budget,
    hellinger2_bernoulli,
    kl_bernoulli,
)
from cvarbounds.inversion import bernoulli_inverse
from cvarbounds.risk import DiscreteLossDistribution, RiskLevel, exact_cvar

L = RiskLevel


def test_factor_values_and_branches():
    ev = bound_factor(L(0.5), 0.25)
    assert ev.value == pytest.approx(0.4375, abs=1e-15)
    assert ev.branch is Branch.INTERIOR_QUADRATIC
    ev = bound_factor(L(0.5), 0.75)
    assert ev.value == pytest.approx(0.0625, abs=1e-15)
    assert ev.branch is Branch.BOUNDARY
    ev = bound_factor(L(0.0), 0.5)
    assert ev.value == pytest.approx(0.125, abs=1e-15)
    assert ev.branch is Branch.BOUNDARY
    ev = bound_factor(L(0.9), 1.1)
    assert ev.value == 0.0
    assert ev.branch is Branch.ZERO
    assert bound_factor(L(0.3), 1.0).value == 0.0


def test_factor_at_zero_signal_is_half():
    for alpha in (0.0, 0.2, 0.5, 0.95):
        assert bound_factor(L(alpha), 0.0).value == 0.5


def test_factor_rejects_bad_rho():
    with pytest.raises(ValueError):
        bound_factor(L(0.5), -0.01)
    with pytest.raises(ValueError):
        bound_factor(L(0.5), float("nan"))


def test_factor_matches_grid_oracle_spot():
    for alpha, rho in [(0.5, 0.25), (0.2, 0.425), (0.0, 0.7), (0.9, 0.3), (0.7, 0.95)]:
        closed = bound_factor(L(alpha), rho).value
        grid = bound_factor_grid_min(L(alpha), rho, 10**6)
        assert abs(closed - grid) <= 1e-5


def test_grid_oracle_rejects_small_grid():
    with pytest.raises(ValueError):
        bound_factor_grid_min(L(0.5), 0.3, 999)


def test_factor_continuity_at_breakpoints():
    eps = 1e-9
    for alpha in [i * 0.05 for i in range(20)]:
        lev = L(alpha)
        lo = bound_factor(lev, max(0.0, alpha - eps)).value
        hi = bound_factor(lev, alpha + eps).value
        assert abs(lo - hi) <= 1e-6
        assert abs(bound_factor(lev, 1.0 - eps).value - bound_factor(lev, 1.0 + eps).value) <= 1e-6


@given(
    alpha=st.floats(0.0, 0.99),
    r1=st.floats(0.0, 1.5),
    r2=st.floats(0.0, 1.5),
)
@settings(max_examples=300, deadline=None)
def test_factor_monotone(alpha, r1, r2):
    lev = L(alpha)
    lo, hi = sorted((r1, r2))
    # nonincreasing in rho
    assert bound_factor(lev, lo).value >= bound_factor(lev, hi).value - 1e-12
    # nondecreasing in alpha at fixed rho
    assert bound_factor(L(min(alpha + 0.3, 0.999)), r1).value >= bound_factor(lev, r1).value - 1e-12
    assert 0.0 <= bound_factor(lev, r1).value <= 0.5


def test_optimal_constant_values():
    assert optimal_bound_constant(L(0.0)) == 2.0 / 27.0
    assert optimal_bound_constant(L(1.0 / 3.0)) == 1.0 / 9.0
    assert optimal_bound_constant(L(0.75)) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert optimal_rho(L(0.0)) == pytest.approx(1.0 / 3.0)
    assert optimal_rho(L(0.9)) == pytest.approx(math.sqrt(0.3), rel=1e-15)


def test_optimal_constant_envelope_identity():
    # rho* attains the sup of rho * factor
    for i in range(100):
        lev = L(i / 100)
        r = optimal_rho(lev)
        assert abs(r * bound_factor(lev, r).value - optimal_bound_constant(lev)) <= 1e-12


def test_optimal_constant_monotone_in_alpha():
    vals = [optimal_bound_constant(L(i / 200)) for i in range(200)]
    assert all(b - a >= -1e-15 for a, b in zip(vals, vals[1:]))


def test_two_point_examples():
    # zero separation or saturating budget collapse the bound to zero
    z = two_point_bound(TwoPointSpec(1.0, 0.0, HellingerBudget(0.3)), L(0.5))
    assert z.value == 0.0 and z.t_star == 0.0 and z.branch is Branch.ZERO
    big = two_point_bound(TwoPointSpec(1.0, 2.0, HellingerBudget(1.5)), L(0.4))
    assert big.value == 0.0 and big.branch is Branch.ZERO
    # zero budget: half the separation survives at alpha = 0 via the boundary
    g0 = two_point_bound(TwoPointSpec(1.0, 1.4, HellingerBudget(0.0)), L(0.0))
    assert g0.value == pytest.approx(0.7, abs=1e-12)
    assert g0.branch is Branch.BOUNDARY and g0.t_star == 0.0
    # with alpha > 0 and zero budget the interior point gives the same value
    g1 = two_point_bound(TwoPointSpec(1.0, 1.4, HellingerBudget(0.0)), L(0.3))
    assert g1.value == pytest.approx(0.7, abs=1e-12)
    assert g1.branch is Branch.INTERIOR_QUADRATIC


def test_two_point_threshold_in_range():
    rng = np.random.default_rng(8)
    for _ in range(300):
        lm = float(rng.uniform(0.1, 10.0))
        c = float(rng.uniform(0.0, 2.0 * lm))
        gamma = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.0, 0.999))
        res = two_point_bound(TwoPointSpec(lm, c, HellingerBudget(gamma)), L(alpha))
        assert 0.0 <= res.t_star <= lm
        assert res.value >= 0.0
        assert res.method is Method.CLOSED_FORM


def test_two_point_matches_dense_grid():
    # closed-form candidates beat or match a dense independent threshold grid
    rng = np.random.default_rng(21)
    for _ in range(50):
        lm = float(rng.uniform(0.1, 5.0))
        c = float(rng.uniform(0.0, 2.0 * lm))
        gamma = float(rng.uniform(0.0, 0.9))
        alpha = float(rng.uniform(0.0, 0.99))
        res = two_point_bound(TwoPointSpec(lm, c, HellingerBudget(gamma)), L(alpha))
        ts = np.linspace(0.0, lm, 20_001)
        x = np.maximum((0.5 * c - ts) / lm, 0.0)
        gap = np.maximum(np.sqrt(x) - math.sqrt(gamma), 0.0)
        vals = ts + lm * gap * gap / (1.0 - alpha)
        assert res.value <= float(vals.min()) + 1e-12
        assert res.value >= float(vals.min()) - 1e-6 * max(1.0, lm)


def test_two_point_spec_validation():
    with pytest.raises(ValueError):
        TwoPointSpec(0.0, 0.0, HellingerBudget(0.1))
    with pytest.raises(ValueError):
        TwoPointSpec(1.0, 2.5, HellingerBudget(0.1))
    with pytest.raises(ValueError):
        TwoPointSpec(1.0, -0.5, HellingerBudget(0.1))


def test_balanced_matches_two_point():
    rng = np.random.default_rng(5)
    for _ in range(500):
        lm = float(rng.uniform(0.05, 20.0))
        gamma = float(rng.uniform(0.0, 0.8))
        alpha = float(rng.uniform(0.0, 0.999))
        bal = balanced_bound(lm, HellingerBudget(gamma), L(alpha))
        # both scale the same bound_factor evaluation, so they agree exactly
        assert two_point_bound(TwoPointSpec(lm, lm, HellingerBudget(gamma)), L(alpha)) == bal
        assert bal.method is Method.CLOSED_FORM


@pytest.mark.parametrize("alpha", [1e-200, 5e-324])
def test_tiny_tail_level_keeps_half_the_cap(alpha):
    # alpha^2 underflows to 0 here; the threshold reads rho / alpha instead
    lev = L(alpha)
    for res in (
        balanced_bound(3.0, HellingerBudget(0.0), lev),
        two_point_bound(TwoPointSpec(3.0, 3.0, HellingerBudget(0.0)), lev),
    ):
        assert res.value == 1.5 and res.t_star == 1.5
        assert res.branch is Branch.INTERIOR_QUADRATIC


def test_balanced_degrades_with_budget():
    lev = L(0.6)
    gammas = np.linspace(0.0, 0.6, 40)
    vals = [balanced_bound(3.0, HellingerBudget(float(g)), lev).value for g in gammas]
    assert all(b - a <= 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(1.5)  # half of l_max at zero budget


def test_estimation_bound_values():
    res = estimation_bound(100, 1.0 / 60.0, L(0.0))
    assert res.value == pytest.approx(1.0 / 135.0, rel=1e-12)
    # factor form: 2 delta * factor(alpha, 2 sqrt(n) delta)
    for n, d, a in [(100, 1 / 60, 0.0), (4, 0.2, 0.5), (50, 0.01, 0.9), (1, 1 / 6, 0.0)]:
        lev = L(a)
        res = estimation_bound(n, d, lev)
        want = 2.0 * d * bound_factor(lev, 2.0 * math.sqrt(n) * d).value
        assert res.value == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_bandit_bound_values():
    res = bandit_bound(1.0 / 90.0, 900, L(0.0))
    assert res.value == pytest.approx(20.0 / 9.0, rel=1e-12)
    for g, T, a in [(1 / 90, 900, 0.0), (0.02, 100, 0.5), (0.3, 10, 0.9)]:
        lev = L(a)
        res = bandit_bound(g, T, lev)
        want = g * T * bound_factor(lev, g * math.sqrt(T)).value
        assert res.value == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_problem_bound_validation():
    with pytest.raises(ValueError):
        estimation_bound(0, 0.1, L(0.5))
    with pytest.raises(ValueError):
        estimation_bound(10, -0.1, L(0.5))
    with pytest.raises(ValueError):
        bandit_bound(0.0, 100, L(0.5))
    with pytest.raises(ValueError):
        bandit_bound(0.1, 0, L(0.5))


def test_optimal_separation_sweep():
    # the returned separation maximizes the bound over a fine grid
    for n in (1, 30, 400):
        for alpha in (0.0, 0.5, 0.9):
            lev = L(alpha)
            d_star, v_star = optimal_separation(n, lev)
            assert estimation_bound(n, d_star, lev).value == pytest.approx(v_star, rel=1e-12)
            grid = np.linspace(1e-4, 1.2 / math.sqrt(n), 4000)
            best = max(estimation_bound(n, float(d), lev).value for d in grid)
            assert v_star >= best - 1e-6


def test_optimal_gap_sweep():
    for T in (1, 50, 900):
        for alpha in (0.0, 0.5, 0.9):
            lev = L(alpha)
            g_star, v_star = optimal_gap(T, lev)
            assert bandit_bound(g_star, T, lev).value == pytest.approx(v_star, rel=1e-12)
            grid = np.linspace(1e-4, 1.2 / math.sqrt(T), 4000)
            best = max(bandit_bound(float(g), T, lev).value for g in grid)
            assert v_star >= best - 1e-6


def test_optimal_values_scale_with_constant():
    lev = L(0.7)
    c = optimal_bound_constant(lev)
    assert optimal_separation(25, lev)[1] == pytest.approx(c / 5.0, rel=1e-14)
    assert optimal_gap(25, lev)[1] == pytest.approx(c * 5.0, rel=1e-14)


def test_hinge_lower_bound_matches_inversion():
    for kind in (DivergenceKind.KL, DivergenceKind.SQUARED_HELLINGER):
        got = hinge_lower_bound(3.0, 0.05, 0.4, kind)
        want = 3.0 * bernoulli_inverse(kind, 0.05, 0.4).a_minus
        assert got == want
    # closed-form relaxation never exceeds it for the Hellinger ball
    got = hinge_lower_bound(3.0, 0.05, 0.4, DivergenceKind.SQUARED_HELLINGER)
    assert got >= 3.0 * hellinger_inverse_closed(0.05, 0.4) - 1e-12


def test_hinge_lower_bound_validation():
    with pytest.raises(ValueError):
        hinge_lower_bound(0.0, 0.05, 0.4, DivergenceKind.KL)
    with pytest.raises(ValueError):
        hinge_lower_bound(1.0, 0.05, 1.4, DivergenceKind.KL)


_KL = DivergenceKind.KL


# (closed form, arguments, the argument it must refuse by name)
_REFUSED = [
    (optimal_gap, (10.7, L(0.5)), "horizon"),
    (optimal_separation, (10.7, L(0.5)), "n"),
    (bandit_bound, (True, 10, L(0.5)), "g"),
    (bandit_bound, (0.1, 10.5, L(0.5)), "horizon"),
    (estimation_bound, (10, "0.1", L(0.5)), "delta"),
    (estimation_budget, (10.9, 0.1), "n"),
    (bandit_budget, ("0.1", 10), "g"),
    (HellingerBudget, (True,), "gamma"),
    (TwoPointSpec, ("1", 1.0, HellingerBudget(0.1)), "l_max"),
    (bound_factor, (L(0.5), "0.3"), "rho"),
    (hinge_lower_bound, ("2", 0.05, 0.4, _KL), "l_max"),
    (kl_bernoulli, ("0.5", 0.5), "a"),
    (hellinger2_bernoulli, (0.5, True), "b"),
    (bernoulli_inverse, (_KL, "0.1", 0.5), "budget"),
    (RiskLevel, ("0.5",), "alpha"),
    # a DivergenceKind's value, or no kind, is not read as squared Hellinger
    (bernoulli_inverse, ("kl", 0.1, 0.5), "kind"),
    (bernoulli_inverse, (None, 0.1, 0.5), "kind"),
    (hinge_lower_bound, (1.0, 0.05, 0.4, "kl"), "kind"),
    # an object argument of the wrong type is named, not an AttributeError
    (bound_factor, (0.5, 0.3), "level"),
    (two_point_bound, (TwoPointSpec(1.0, 1.0, HellingerBudget(0.1)), 0.5), "level"),
    (balanced_bound, (1.0, 0.1, L(0.5)), "budget"),
    (exact_cvar, (DiscreteLossDistribution(((1.0, 1.0),)), 0.5), "level"),
    (exact_cvar, ({1.0: 1.0}, L(0.5)), "dist"),
    (DiscreteLossDistribution, ((("2.5", 1.0),),), "atom_value"),
    (DiscreteLossDistribution, (((2.5, True),),), "atom_probability"),
]


@pytest.mark.parametrize("fn, args, name", _REFUSED, ids=[f"{fn.__name__}-{name}" for fn, _, name in _REFUSED])
def test_closed_forms_refuse_rather_than_coerce(fn, args, name):
    # a float where an int is asked for, a bool or a string is refused under
    # its argument's name, never truncated or parsed
    with pytest.raises(ValueError, match=rf"(^|; ){name}: "):
        fn(*args)


def test_closed_forms_take_ints_and_numpy_floats():
    lev = L(0.5)
    assert bandit_bound(np.float64(0.1), 10, lev) == bandit_bound(0.1, 10, lev)
    assert estimation_bound(10, np.float64(0.1), lev) == estimation_bound(10, 0.1, lev)
    assert bound_factor(lev, np.float64(0.3)) == bound_factor(lev, 0.3)
    assert bound_factor(lev, 0).rho == 0.0 and type(bound_factor(lev, 0).rho) is float
    assert hellinger2_bernoulli(0, 1) == 1.0
    assert kl_bernoulli(np.float64(0.25), 0.5) == kl_bernoulli(0.25, 0.5)
    assert bernoulli_inverse(_KL, np.float64(0.1), 0.5) == bernoulli_inverse(_KL, 0.1, 0.5)
    assert hinge_lower_bound(3, 0.05, 0.4, _KL) == hinge_lower_bound(3.0, 0.05, 0.4, _KL)
    assert type(L(np.float64(0.5)).alpha) is float and L(0) == L(0.0)
    assert TwoPointSpec(2, 1, HellingerBudget(0)) == TwoPointSpec(2.0, 1.0, HellingerBudget(0.0))
    law = DiscreteLossDistribution(((1, np.float64(0.5)), (np.float32(2.0), 0.5)))
    assert law == DiscreteLossDistribution(((1.0, 0.5), (2.0, 0.5)))
    assert all(type(v) is float and type(p) is float for v, p in law.atoms)
