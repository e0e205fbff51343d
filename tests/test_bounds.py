import functools
import inspect
import math
import sys
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bound_factor_grid_min, hellinger_inverse_closed

import cvarbounds
from cvarbounds import errors
from cvarbounds.bounds import (
    BoundResult,
    Branch,
    FactorEvaluation,
    Method,
    TwoPointSpec,
    _optimal_rho,
    balanced_bound,
    bandit_bound,
    bound_factor,
    estimation_bound,
    hinge_lower_bound,
    optimal_bound_constant,
    optimal_gap,
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
from cvarbounds.errors import _FIELD_PROBLEMS, _check_fields, _type_problem
from cvarbounds.inversion import bernoulli_inverse
from cvarbounds.risk import DiscreteLossDistribution, RiskLevel, SampleSet, empirical_cvar, exact_cvar
from cvarbounds.sim import exact_sign_estimator_law, exact_uniform_bandit_law, normal_upper_tail

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
    assert _optimal_rho(L(0.0)) == pytest.approx(1.0 / 3.0)
    assert _optimal_rho(L(0.9)) == pytest.approx(math.sqrt(0.3), rel=1e-15)


def test_optimal_constant_envelope_identity():
    # rho* attains the sup of rho * factor
    for i in range(100):
        lev = L(i / 100)
        r = _optimal_rho(lev)
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
    # 2 l_max overflows past about 8.99e307; the range check must not read it
    for l_max, c_sep in ((1e308, math.inf), (1e308, math.nan), (5e307, 1.5e308)):
        with pytest.raises(ValueError, match=r"^c_sep: must be a finite real in \[0, 2 l_max\]"):
            TwoPointSpec(l_max, c_sep, HellingerBudget(0.0))
    res = two_point_bound(TwoPointSpec(1e308, 1.5e308, HellingerBudget(0.0)), L(0.0))
    assert res.value == 7.5e307 and res.branch is Branch.BOUNDARY


def test_balanced_matches_two_point():
    rng = np.random.default_rng(5)
    # 2 l_max overflows at the last two caps; x_hi is still 1/2 there
    cases = [(float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.0, 0.8))) for _ in range(500)]
    cases += [(lm, gamma) for lm in (9e307, 1e308) for gamma in (0.0, 0.1, 0.49)]
    for lm, gamma in cases:
        alpha = float(rng.uniform(0.0, 0.999))
        bal = balanced_bound(lm, HellingerBudget(gamma), L(alpha))
        # both are one call to the same template, so they agree exactly
        assert two_point_bound(TwoPointSpec(lm, lm, HellingerBudget(gamma)), L(alpha)) == bal
        assert bal.method is Method.CLOSED_FORM
    assert balanced_bound(1e308, HellingerBudget(0.0), L(0.0)).value == 5e307


def test_problem_bounds_are_the_balanced_template():
    # each problem bound is the template at c = l_max = its regret or error
    # cap under its own budget, bit for bit; at the largest size and
    # parameter twice the bandit's budget overflows
    for alpha in (0.0, 0.3, 0.5, 0.9, 0.99):
        lev = L(alpha)
        for size in (1, 7, 200, 10**6, 575430887498):
            for param in (1e-300, 1e-6, 0.01, 0.0471, 0.3, 2.0, 2.1751529111410354e148):
                for bound, args, cap, budget in (
                    (bandit_bound, (param, size), param * size, bandit_budget),
                    (estimation_bound, (size, param), 2.0 * param, estimation_budget),
                ):
                    try:
                        spec = TwoPointSpec(cap, cap, budget(*args))
                    except ValueError:  # the budget or the cap overflows
                        continue
                    assert bound(*args, lev) == two_point_bound(spec, lev)


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
    (_optimal_rho, (0.5,), "level"),
    (optimal_bound_constant, (0.5,), "level"),
    (empirical_cvar, (SampleSet([1.0, 2.0]), 0.5), "level"),
    (empirical_cvar, ([1.0, 2.0], L(0.5)), "samples"),
    (DiscreteLossDistribution, ((("2.5", 1.0),),), "atom_value"),
    (DiscreteLossDistribution, (((2.5, True),),), "atom_probability"),
    # an exact law whose top atom overflows names the argument, not the atom
    (exact_uniform_bandit_law, (1e308, 64), "gap"),
    (exact_sign_estimator_law, (3, 1e308), "delta"),
    (exact_uniform_bandit_law, ("0.1", 8), "gap"),
    (exact_uniform_bandit_law, (0.1, True), "horizon"),
    (exact_sign_estimator_law, (9.0, 0.2), "n"),
    (exact_sign_estimator_law, (9, None), "delta"),
    # a quantile may be infinite, but never NaN, a string, None or too large for a float
    (normal_upper_tail, ("0.5",), "x"),
    (normal_upper_tail, (True,), "x"),
    (normal_upper_tail, (math.nan,), "x"),
    (normal_upper_tail, (None,), "x"),
    (normal_upper_tail, (10**400,), "x"),
]


@pytest.mark.parametrize("fn, args, name", _REFUSED, ids=[f"{fn.__name__}-{name}" for fn, _, name in _REFUSED])
def test_closed_forms_refuse_rather_than_coerce(fn, args, name):
    # a float where an int is asked for, a bool or a string is refused under
    # its argument's name, never truncated or parsed
    with pytest.raises(ValueError, match=rf"(^|; ){name}: "):
        fn(*args)


@pytest.mark.parametrize(
    "fn, args",
    [
        (bandit_budget, (np.float64(1e200), 10)),
        (estimation_budget, (10, Fraction(10**200))),
        (bandit_bound, (10**300, 10**10, L(0.5))),
    ],
    ids=["numpy-float", "fraction", "int"],
)
def test_an_overflow_is_refused_naming_the_float_computed_with(fn, args):
    # the gate passes each real on as its float, and the refusal names it
    with pytest.raises(ValueError, match=r" overflows a float at .*, got 1e\+[23]00$"):
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
    assert HellingerBudget(np.float64(0.1)) == HellingerBudget(0.1) and type(HellingerBudget(1).gamma) is float
    assert bandit_budget(1, 10) == bandit_budget(1.0, 10)
    assert estimation_budget(10, np.float64(0.1)) == estimation_budget(10, 0.1)
    assert exact_uniform_bandit_law(np.float64(0.1), 8) == exact_uniform_bandit_law(0.1, 8)
    assert exact_uniform_bandit_law(1, 8) == exact_uniform_bandit_law(1.0, 8)
    assert exact_sign_estimator_law(9, np.float64(0.2)) == exact_sign_estimator_law(9, 0.2)
    assert normal_upper_tail(np.float64(0.5)) == normal_upper_tail(Fraction(1, 2)) == normal_upper_tail(0.5)
    assert normal_upper_tail(1) == normal_upper_tail(1.0)
    assert normal_upper_tail(math.inf) == 0.0 and normal_upper_tail(-math.inf) == 1.0


class _NoValueHasThisType:
    """A rule table patched to ask for this plain type passes no value on its
    fast path, so every value goes to `_field_problems`."""


# each scalar a fast path may see: signed zeros, the smallest subnormal, one
# and the float past it, the largest float, inf, NaN, a bool, an int, a numpy
# float, a real that rounds to 0.0, a string and None
_EDGES = (
    -0.0, 0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), sys.float_info.max, math.inf, math.nan,
    True, 1, np.float64(0.5), Fraction(1, 10**400), "0.5", None,
)
_H2 = DivergenceKind.SQUARED_HELLINGER
# (entry point with a fast path, arguments it accepts): every gated closed
# form, and the two value types that check their one field themselves
_FAST_PATHS = [
    (bernoulli_inverse, (_KL, 0.1, 0.5)),
    (bernoulli_inverse, (_H2, 0.1, 0.5)),
    (hinge_lower_bound, (2.0, 0.05, 0.4, _H2)),
    (kl_bernoulli, (0.25, 0.5)),
    (hellinger2_bernoulli, (0.25, 0.5)),
    (RiskLevel, (0.5,)),
    (HellingerBudget, (0.1,)),
    (bandit_budget, (0.1, 10)),
    (estimation_budget, (10, 0.1)),
    (bandit_bound, (0.1, 10, L(0.5))),
    (estimation_bound, (10, 0.1, L(0.5))),
    (bound_factor, (L(0.5), 0.3)),
    (exact_uniform_bandit_law, (0.1, 8)),
    (exact_sign_estimator_law, (9, 0.2)),
    (normal_upper_tail, (0.5,)),
    (two_point_bound, (TwoPointSpec(2.0, 1.5, HellingerBudget(0.01)), L(0.5))),
    (balanced_bound, (1.0, HellingerBudget(0.01), L(0.5))),
    (optimal_gap, (10, L(0.5))),
    (optimal_separation, (10, L(0.5))),
    (optimal_bound_constant, (L(0.5),)),
    (_optimal_rho, (L(0.5),)),
    (empirical_cvar, (SampleSet([1.0, 2.0, 4.0]), L(0.5))),
    (exact_cvar, (DiscreteLossDistribution(((1.0, 0.5), (3.0, 0.5))), L(0.5))),
]
# the classes a closed form takes as objects, each of exactly its class
_OBJECTS = (RiskLevel, DivergenceKind, HellingerBudget, TwoPointSpec, SampleSet, DiscreteLossDistribution)
# an argument checked under another rule's name, so that it is refused as
# the config field it comes from
_RULE_NAMES = {(exact_uniform_bandit_law, "g"): "gap"}


def _outcome(fn, args):
    # a result as its repr, which tells -0.0 from 0.0, or a ValueError's message
    try:
        return "returned", repr(fn(*args))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _by_the_rule_table(fn, *args):
    # a gated closed form as `_check_fields` alone takes its arguments: the
    # table's names, then the objects, each in signature order, and then
    # each real as its float into the unchecked body; a value type checks
    # its field itself
    body = getattr(fn, "__wrapped__", None)
    if body is None:
        return fn(*args)
    hints = typing.get_type_hints(body)
    names = body.__code__.co_varnames[: body.__code__.co_argcount]
    assert len(names) == len(args)
    fields, objects, rules = {}, {}, {}
    for name, value in zip(names, args):
        if hints[name] in _OBJECTS:
            objects[name] = _type_problem(value, hints[name])
        else:
            rules[name] = _RULE_NAMES.get((fn, name), name)
            fields[rules[name]] = value
    _check_fields(fields, **objects)
    as_taken = [
        float(value) if name in rules and _FIELD_PROBLEMS[rules[name]].plain is float else value
        for name, value in zip(names, args)
    ]
    return body(*as_taken)


@pytest.mark.parametrize("fn, base", _FAST_PATHS, ids=[f"{fn.__name__}-{base[0]}" for fn, base in _FAST_PATHS])
def test_fast_paths_agree_with_the_rule_table(monkeypatch, fn, base):
    # every edge value in every position, and None in all of them at once,
    # gives the same result, or the same ValueError message, as the rule
    # table alone, with `_check_fields`' own fast path off
    grid = [base, (None,) * len(base)]
    grid += [base[:i] + (edge,) + base[i + 1:] for i in range(len(base)) for edge in _EDGES]
    fast = [_outcome(fn, args) for args in grid]
    off = {name: (_NoValueHasThisType, None, None) for name in _FIELD_PROBLEMS}
    monkeypatch.setattr(errors, "_PLAIN_RANGES", off)
    assert fast == [_outcome(functools.partial(_by_the_rule_table, fn), args) for args in grid]
    # the grid reaches both sides of the rule table
    assert {kind for kind, _ in fast} >= {"returned", "ValueError"}


def test_every_closed_form_checks_its_arguments_through_the_one_gate(monkeypatch):
    # each exported function that takes an argument the rule table names, or
    # a value object, is gated, as are the two divergences the root finders
    # call unchecked; replicate_rng checks its seed and block as one key
    gated = [fn for fn, _ in _FAST_PATHS if fn not in (RiskLevel, HellingerBudget)]
    for name, fn in vars(cvarbounds).items():
        if inspect.isfunction(fn) and name != "replicate_rng":
            body = getattr(fn, "__wrapped__", fn)
            hints = typing.get_type_hints(body)
            names = body.__code__.co_varnames[: body.__code__.co_argcount]
            checked = any(arg in _FIELD_PROBLEMS or hints.get(arg) in _OBJECTS for arg in names)
            assert hasattr(fn, "__wrapped__") == checked == (fn in gated), name
    assert hasattr(kl_bernoulli, "__wrapped__") and hasattr(hellinger2_bernoulli, "__wrapped__")
    # the rule table is read in one module
    src = Path(cvarbounds.__file__).parent
    assert [path.name for path in sorted(src.glob("*.py")) if "_PLAIN_RANGES" in path.read_text()] == ["errors.py"]

    # and plain arguments in range pass the gate's inline test, never
    # reaching `_check_fields`
    def asked(*args, **kwargs):
        raise AssertionError(f"a plain argument in range was checked again: {args} {kwargs}")

    monkeypatch.setattr(errors, "_field_problems", asked)
    monkeypatch.setattr(errors, "_check_fields", asked)
    for fn, base in _FAST_PATHS:
        if fn in gated:
            fn(*base)
