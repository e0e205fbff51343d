import importlib
import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvarbounds
from cvarbounds import errors
from cvarbounds.errors import _FIELD_PROBLEMS, _check_fields, _field_problems

MODULES = [info.name for info in pkgutil.iter_modules(cvarbounds.__path__) if not info.name.startswith("_")]


def test_import_leaves_numpy_random_unloaded():
    # simulate_shared loads numpy.random before it forks, so that its
    # workers inherit it; importing the package or the CLI does not load
    # it, so that its cost falls inside a simulation, not in every import
    src = str(Path(cvarbounds.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, cvarbounds, cvarbounds.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_module_is_listed():
    assert "sim" in MODULES and "experiments" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry does not break `import`, only `from ... import *`
    module = importlib.import_module(f"cvarbounds.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


_HUGE = 10**400  # an int no float can hold
# a real is checked as its float, which is 0 or 1 for these
_TINY = Fraction(1, 10**400)
_NEAR_ONE = Fraction(10**20 - 1, 10**20)
_needs_wide_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).max == sys.float_info.max, reason="longdouble is a double here"
)


@pytest.mark.parametrize(
    "field, call",
    [
        ("budget", lambda: cvarbounds.bernoulli_inverse(cvarbounds.DivergenceKind.KL, _HUGE, 0.5)),
        ("gamma", lambda: cvarbounds.HellingerBudget(_HUGE)),
        ("rho", lambda: cvarbounds.bound_factor(cvarbounds.RiskLevel(0.5), _HUGE)),
        ("atom_value", lambda: cvarbounds.DiscreteLossDistribution(((_HUGE, 1.0),))),
        ("atom_value", lambda: cvarbounds.DiscreteLossDistribution(((-_HUGE, 1.0),))),
        ("atom_probability", lambda: cvarbounds.DiscreteLossDistribution(((0.0, _HUGE),))),
        ("g", lambda: cvarbounds.bandit_bound(_HUGE, 10, cvarbounds.RiskLevel(0.5))),
        (
            "policy",
            lambda: cvarbounds.BanditConfig(10, 0.5, cvarbounds.UCB(c_explore=_HUGE), replicates=5, seed=0),
        ),
        ("alpha", lambda: cvarbounds.RiskLevel(_NEAR_ONE)),
        ("delta", lambda: cvarbounds.estimation_bound(1, _TINY, cvarbounds.RiskLevel(0.5))),
        pytest.param(
            "g",
            lambda: cvarbounds.bandit_bound(np.longdouble("1e-400"), 10, cvarbounds.RiskLevel(0.5)),
            marks=_needs_wide_longdouble,
        ),
        ("gap", lambda: cvarbounds.BanditConfig(10, _TINY, cvarbounds.UCB(), 10, 0)),
        ("gamma", lambda: cvarbounds.HellingerBudget(Fraction(10**400))),
        pytest.param("gamma", lambda: cvarbounds.HellingerBudget(np.longdouble("1e400")), marks=_needs_wide_longdouble),
    ],
    ids=[
        "kl-budget",
        "hellinger-gamma",
        "profile-rho",
        "atom-value",
        "negative-atom-value",
        "atom-probability",
        "bandit-gap",
        "ucb-constant",
        "level-near-one",
        "tiny-fraction-delta",
        "tiny-longdouble-gap",
        "tiny-fraction-gap",
        "huge-fraction-gamma",
        "huge-longdouble-gamma",
    ],
)
def test_int_no_float_can_hold_is_refused_by_name(field, call):
    # refused up front with one ValueError, never an OverflowError or a
    # ZeroDivisionError mid-arithmetic
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert str(exc.value).startswith(f"{field}: ")
    assert ";" not in str(exc.value)


def test_an_alpha_whose_float_is_one_is_refused_by_the_config():
    config = cvarbounds.ExperimentConfig(kind=cvarbounds.ExperimentKind.BOUND, alphas=(_NEAR_ONE,), horizon=10, gap=0.1)
    with pytest.raises(cvarbounds.ConfigError) as exc:
        cvarbounds.run_experiment(config)
    assert set(exc.value.problems) == {"alphas"}


def test_huge_ucb_constant_is_refused_before_any_draw():
    config = cvarbounds.ExperimentConfig(
        kind=cvarbounds.ExperimentKind.SIMULATE,
        alphas=(0.5,),
        horizon=10,
        gap=0.5,
        policies=(cvarbounds.UCB(c_explore=_HUGE),),
        replicates=10,
    )
    with pytest.raises(cvarbounds.ConfigError) as exc:
        cvarbounds.run_experiment(config)
    assert set(exc.value.problems) == {"policies"}
    assert "c_explore" in exc.value.problems["policies"]


# values at and beside the ends of every rule's range, and of every type a
# caller may pass
_EDGE_VALUES = (
    5e-324, -0.0, 0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), sys.float_info.max,
    -sys.float_info.max, math.inf, -math.inf, math.nan, 0, 1, -1, 2**64 - 1, 2**64, _HUGE, -_HUGE, True, False,
    np.float32(0.5), np.float32(0.0), np.float32("inf"), np.float32(3e38), np.int64(3), np.float64(0.25),
    Fraction(1, 3), _TINY, Fraction(10**400), int(sys.float_info.max) + 1, "1", None,
)


def _check_agrees_with_the_rule(name, value):
    want = "; ".join(f"{field}: {why}" for field, why in _field_problems({name: value}).items())
    try:
        _check_fields({name: value})
    except ValueError as exc:
        assert want and str(exc) == want, (name, value)
    else:
        assert not want, (name, value)


def test_the_fast_check_agrees_with_the_rules_at_every_edge(monkeypatch):
    for name in _FIELD_PROBLEMS:
        for value in _EDGE_VALUES:
            _check_agrees_with_the_rule(name, value)

    # and a plain value its rule takes never asks why
    def asked(values):
        raise AssertionError(f"_field_problems was asked about {values}")

    monkeypatch.setattr(errors, "_field_problems", asked)
    for name, rule in _FIELD_PROBLEMS.items():
        for value in _EDGE_VALUES:
            if type(value) is rule.plain and rule(value) is None:
                _check_fields({name: value})


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.one_of(
        st.floats(),
        st.integers(),
        st.integers(-(2**70), 2**70),
        st.floats(width=32).map(np.float32),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.fractions(),
        st.booleans(),
        st.none(),
        st.text(max_size=2),
    )
)
def test_the_fast_check_agrees_with_the_rules(value):
    # _check_fields passes a plain value on its rule's closed range and asks
    # _field_problems only about the rest: both must refuse the same values
    for name in _FIELD_PROBLEMS:
        _check_agrees_with_the_rule(name, value)
