import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cvar_dominates_mean, exact_cvar_two_tests, hinge_mean, law_from_samples

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


def test_a_law_equals_and_hashes_as_its_columns():
    # the dataclass compares a law with a law of the same class, column by column
    atoms = ((0.0, 0.25), (1.0, 0.75))
    law = DiscreteLossDistribution(atoms)
    same = DiscreteLossDistribution._from_columns((0.0, 1.0), (0.25, 0.75))
    assert law == same and hash(law) == hash(same)
    assert law != DiscreteLossDistribution(((0.0, 0.75), (1.0, 0.25)))
    assert law != atoms and law.atoms == atoms


class _Atom(NamedTuple):
    value: float
    probability: float


def _merged_sorted(atoms):
    # the law's atoms as the merge rule states them: duplicate values summed
    # in input order onto 0.0, then sorted by value
    merged = {}
    for v, p in atoms:
        v, p = float(v), float(p)
        merged[v] = merged.get(v, 0.0) + p
    return tuple(sorted(merged.items()))


def _split_first(atoms):
    (v, p), *rest = atoms
    return ((v, p / 2), *rest, (v, p / 2))


# input shapes the constructor must merge and sort into the same law
_RESHAPES = {
    "shuffled": lambda atoms, rnd: tuple(rnd.sample(atoms, len(atoms))),
    "duplicated": lambda atoms, rnd: _split_first(atoms),
    "descending": lambda atoms, rnd: atoms[::-1],
    "list-typed": lambda atoms, rnd: [list(atom) for atom in atoms],
    "namedtuple": lambda atoms, rnd: tuple(_Atom(*atom) for atom in atoms),
    "numpy": lambda atoms, rnd: tuple((np.float64(v), np.float64(p)) for v, p in atoms),
    "int": lambda atoms, rnd: tuple((int(v) if v.is_integer() else v, p) for v, p in atoms),
    # a -0.0 value, and a -0.0 probability on a value of its own, in order
    "negative zero": lambda atoms, rnd: (
        *((-0.0 if v == 0.0 else v, p) for v, p in atoms),
        (atoms[-1][0] + 1.0, -0.0),
    ),
}

_values = st.one_of(st.just(0.0), st.integers(-1000, 1000).map(float), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _laws(draw):
    values = sorted(draw(st.lists(_values, min_size=1, max_size=12, unique=True)))
    weights = draw(st.lists(st.integers(1, 1000), min_size=len(values), max_size=len(values)))
    total = sum(weights)
    return tuple((v, w / total) for v, w in zip(values, weights))


@pytest.mark.parametrize("shape", list(_RESHAPES))
@given(atoms=_laws(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_atoms_equal_their_merged_sorted_law(shape, atoms, rnd):
    given_atoms = _RESHAPES[shape](atoms, rnd)
    law = DiscreteLossDistribution(given_atoms)
    want = DiscreteLossDistribution(_merged_sorted(given_atoms))
    assert law == want and repr(law) == repr(want)
    assert repr(law.atoms) == repr(_merged_sorted(given_atoms))
    assert all(type(atom) is tuple and type(atom[0]) is float and type(atom[1]) is float for atom in law.atoms)


@pytest.mark.parametrize("shape", ["as given", *_RESHAPES])
@pytest.mark.parametrize(
    "atoms",
    [
        ((0.0, 0.6), (1.0, 0.6)),  # the sum is 1.2
        ((0.0, 1.0 - 2e-12), (1.0, 1e-24)),  # the sum is 2e-12 short
        ((0.0, -0.1), (1.0, 1.1)),  # a negative probability
        ((0.0, 0.5), (math.inf, 0.5)),  # an infinite value
        ((0.0, 0.5), (1.0, math.inf)),  # an infinite probability
        ((-math.inf, 0.5), (1.0, 0.5)),
        ((0.0, 0.5), (math.nan, 0.5)),
    ],
)
def test_bad_atoms_raise_on_either_path(shape, atoms):
    given_atoms = atoms if shape == "as given" else _RESHAPES[shape](atoms, random.Random(0))
    with pytest.raises(ValueError):
        DiscreteLossDistribution(given_atoms)
    if shape == "as given":
        # the package's own laws pass columns, and the same rule refuses them
        values, probs = zip(*atoms)
        with pytest.raises(ValueError):
            DiscreteLossDistribution._from_columns(values, probs)


@pytest.mark.parametrize(
    "values, probs",
    [
        ((1.0, 0.0), (0.5, 0.5)),  # descending
        ((0.0, 0.0), (0.5, 0.5)),  # a repeated value
        ((0.0,), (0.5, 0.5)),  # one value short
        ((), ()),
    ],
)
def test_column_rule_refuses_unordered_or_unmatched_columns(values, probs):
    with pytest.raises(ValueError):
        DiscreteLossDistribution._from_columns(values, probs)


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


def test_exact_cvar_matches_its_two_test_walk_bit_for_bit():
    rng = random.Random(38)
    laws = [
        # the tail mass runs out exactly on an atom: at alpha = 0.5 on the
        # top one, at alpha = 0.25 on the middle one, at alpha = 0 on the last
        DiscreteLossDistribution(((0.0, 0.25), (1.0, 0.25), (3.0, 0.5))),
        DiscreteLossDistribution(((-1.0, 0.0), (2.0, 1.0))),
    ]
    for _ in range(300):
        size = rng.randint(1, 40)
        values = sorted({rng.uniform(-1e3, 1e3) for _ in range(size)})
        weights = [rng.choice((0.0, rng.random(), rng.random())) for _ in values]
        weights[rng.randrange(len(weights))] += 1.0
        total = sum(weights)
        laws.append(DiscreteLossDistribution(tuple(zip(values, (w / total for w in weights)))))
    alphas = (0.0, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0 - 2.0**-40)
    for law in laws:
        for alpha in (*alphas, rng.random()):
            level = RiskLevel(alpha)
            assert exact_cvar(law, level).hex() == exact_cvar_two_tests(law, level).hex(), (law, alpha)


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
