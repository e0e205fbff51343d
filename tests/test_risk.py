import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cvar_dominates_mean, hinge_mean, law_from_samples

from cvarbounds.risk import DiscreteLossDistribution, RiskLevel, SampleSet, empirical_cvar, exact_cvar


def ru_grid_min(samples: SampleSet, level: RiskLevel) -> float:
    """Independent oracle: minimize t + hinge/(1 - alpha) over a dense
    threshold grid (step (max - min) * 1e-6, sample points included)."""
    xs = samples.values
    lo, hi = float(xs.min()), float(xs.max())
    if hi == lo:
        ts = np.array([lo])
    else:
        ts = np.unique(np.concatenate([np.linspace(lo, hi, 10**6 + 1), xs]))
    best = math.inf
    for chunk in np.array_split(ts, min(64, ts.size)):
        hinge = np.maximum(xs[None, :] - chunk[:, None], 0.0).mean(axis=1)
        best = min(best, float((chunk + hinge / level.tail_mass).min()))
    return best


finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_risk_level_validation():
    assert RiskLevel(0.0).alpha == 0.0
    assert RiskLevel(0.999).tail_mass == pytest.approx(0.001)
    for bad in (-0.1, 1.0, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RiskLevel(bad)


def test_sample_set_sorted_and_frozen():
    s = SampleSet(np.array([3.0, 1.0, 2.0, 2.0]))
    assert s.values.tolist() == [3.0, 2.0, 2.0, 1.0]
    assert s.count == 4
    with pytest.raises(ValueError):
        s.values[0] = 99.0
    with pytest.raises(ValueError):
        SampleSet(np.array([]))
    with pytest.raises(ValueError):
        SampleSet(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0, float("nan")]))


def test_hinge_mean_examples():
    s = SampleSet(np.array([1.0, 2.0, 3.0, 4.0]))
    assert hinge_mean(s, 2.0) == pytest.approx(0.75, abs=1e-15)
    assert hinge_mean(s, 2.5) == pytest.approx(0.5, abs=1e-15)
    assert hinge_mean(s, 5.0) == 0.0
    assert hinge_mean(SampleSet(np.array([5.0])), 5.0) == 0.0
    assert hinge_mean(SampleSet(np.array([0.0, 0.0])), -1.0) == 1.0


def test_hinge_mean_monotone_convex():
    rng = np.random.default_rng(4)
    s = SampleSet(rng.normal(size=57))
    ts = np.linspace(-3.0, 3.0, 301)
    vals = np.array([hinge_mean(s, t) for t in ts])
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all(np.diff(vals, 2) >= -1e-12)


def test_empirical_cvar_examples():
    s = SampleSet(np.array([1.0, 2.0, 3.0, 4.0]))
    assert empirical_cvar(s, RiskLevel(0.0)) == pytest.approx(2.5, abs=1e-15)
    assert empirical_cvar(s, RiskLevel(0.5)) == pytest.approx(3.5, abs=1e-15)
    # tail mass below one sample: the maximum
    assert empirical_cvar(s, RiskLevel(0.9)) == 4.0
    assert empirical_cvar(SampleSet(np.array([10.0])), RiskLevel(0.37)) == 10.0


def test_empirical_cvar_fractional_boundary():
    # N=4, alpha=0.4: m=2.4, so (4 + 3 + 0.4*2)/2.4
    s = SampleSet(np.array([1.0, 2.0, 3.0, 4.0]))
    assert empirical_cvar(s, RiskLevel(0.4)) == pytest.approx((4 + 3 + 0.4 * 2) / 2.4, rel=1e-14)


def test_empirical_cvar_matches_threshold_grid():
    rng = np.random.default_rng(123)
    batteries = [
        rng.normal(size=13),
        rng.exponential(size=40),
        np.repeat(rng.normal(size=4), [3, 1, 5, 2]),
        rng.integers(0, 3, size=21).astype(float),
        np.full(9, 2.5),
    ]
    for xs in batteries:
        s = SampleSet(xs)
        for alpha in (0.0, 0.3, 0.5, 0.9, 0.97):
            level = RiskLevel(alpha)
            closed = empirical_cvar(s, level)
            grid = ru_grid_min(s, level)
            assert closed == pytest.approx(grid, abs=1e-9), (alpha, xs)


def test_discrete_distribution_merges_and_validates():
    d = DiscreteLossDistribution(((1.0, 0.25), (0.0, 0.5), (1.0, 0.25)))
    assert d.atoms == ((0.0, 0.5), (1.0, 0.5))
    assert d.mean() == pytest.approx(0.5)
    with pytest.raises(ValueError):
        DiscreteLossDistribution(((0.0, 0.6), (1.0, 0.6)))
    with pytest.raises(ValueError):
        DiscreteLossDistribution(((0.0, -0.1), (1.0, 1.1)))
    with pytest.raises(ValueError):
        DiscreteLossDistribution(((float("inf"), 1.0),))


def test_exact_cvar_binomial_example():
    atoms = tuple((float(k), math.comb(4, k) / 16) for k in range(5))
    dist = DiscreteLossDistribution(atoms)
    assert exact_cvar(dist, RiskLevel(0.5)) == pytest.approx(2.75, abs=1e-12)
    assert exact_cvar(dist, RiskLevel(0.0)) == pytest.approx(2.0, abs=1e-12)


def test_exact_cvar_two_atom_closed_form():
    # {0 w.p. 1-p, m w.p. p}: CVaR = m * min(1, p / (1 - alpha))
    for p, m, alpha in [(0.3, 2.0, 0.8), (0.3, 2.0, 0.5), (0.05, 1.0, 0.9), (0.5, 4.0, 0.0)]:
        dist = DiscreteLossDistribution(((0.0, 1.0 - p), (m, p)))
        want = m * min(1.0, p / (1.0 - alpha))
        assert exact_cvar(dist, RiskLevel(alpha)) == pytest.approx(want, rel=1e-13)


def test_exact_cvar_agrees_with_empirical_on_uniform_law():
    rng = np.random.default_rng(9)
    for size in (1, 2, 7, 64, 301):
        s = SampleSet(rng.normal(size=size))
        dist = law_from_samples(s)
        for alpha in (0.0, 0.25, 0.5, 0.9):
            level = RiskLevel(alpha)
            assert exact_cvar(dist, level) == pytest.approx(
                empirical_cvar(s, level), abs=1e-12
            )


@given(xs=st.lists(finite_floats, min_size=1, max_size=40), alpha=st.floats(0.0, 0.99))
@settings(max_examples=150, deadline=None)
def test_cvar_between_mean_and_max(xs, alpha):
    s = SampleSet(np.array(xs))
    v = empirical_cvar(s, RiskLevel(alpha))
    assert float(s.values.mean()) - 1e-9 <= v <= s.values[0] + 1e-9


@given(
    xs=st.lists(finite_floats, min_size=1, max_size=40),
    a1=st.floats(0.0, 0.99),
    a2=st.floats(0.0, 0.99),
)
@settings(max_examples=150, deadline=None)
def test_cvar_monotone_in_alpha(xs, a1, a2):
    lo, hi = sorted((a1, a2))
    s = SampleSet(np.array(xs))
    assert empirical_cvar(s, RiskLevel(lo)) <= empirical_cvar(s, RiskLevel(hi)) + 1e-9


@given(xs=st.lists(finite_floats, min_size=1, max_size=40), alpha=st.floats(0.0, 0.99))
@settings(max_examples=150, deadline=None)
def test_dominance_property(xs, alpha):
    assert cvar_dominates_mean(SampleSet(np.array(xs)), RiskLevel(alpha))


def test_cvar_alpha_zero_is_mean():
    rng = np.random.default_rng(77)
    xs = rng.normal(size=100)
    s = SampleSet(xs)
    assert empirical_cvar(s, RiskLevel(0.0)) == pytest.approx(float(xs.mean()), rel=1e-13)
