import errno
import faulthandler
import hashlib
import math
import os
import select
import signal
import threading
import time
import tracemalloc
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _reference_rollout, mc_transcript_kl, sign_law_from_atoms, transcript_draws, uniform_law_from_atoms
)

from cvarbounds import experiments, sim
from cvarbounds.bounds import bandit_bound, optimal_gap
from cvarbounds.cli import _config_from_args, build_parser
from cvarbounds.cli import main as cli_main
from cvarbounds.errors import DomainError
from cvarbounds.experiments import parse_policy
from cvarbounds.risk import DiscreteLossDistribution, RiskLevel, exact_cvar
from cvarbounds.sim import (
    BanditConfig,
    EstimationConfig,
    Estimator,
    ExploreThenCommit,
    ThompsonGaussian,
    UCB,
    UniformRandom,
    exact_loss_law,
    exact_sign_estimator_law,
    exact_uniform_bandit_law,
    normal_upper_tail,
    replicate_rng,
    resolve_tau,
    run_bandit,
    run_estimation,
    simulate_shared,
)

ALL_POLICIES = (UniformRandom(), ExploreThenCommit(), UCB(), ThompsonGaussian())


def _counts(configs):
    """The package's (k, reps) arm-1 pull counts of one pass's configs, all
    their blocks drawn (`sim._draw`) and rolled out as one group."""
    first = configs[0]
    model, rngs = sim._draw(first.seed, sim._blocks(first.replicates), 256)
    n1 = sim._rollout(first.policy, first.horizon, [config.gap for config in configs], model, rngs)
    return n1.reshape(len(configs), -1)[:, : first.replicates]


# ----------------------------------------------------------------- plumbing


def test_replicate_rng_streams():
    a = replicate_rng(42, 0).standard_normal(5)
    b = replicate_rng(42, 0).standard_normal(5)
    c = replicate_rng(42, 1).standard_normal(5)
    d = replicate_rng(43, 0).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        replicate_rng(-1, 0)
    with pytest.raises(ValueError):
        replicate_rng(2**64, 0)
    # both parts of the key must be ints in [0, 2**64): nothing is truncated
    # into another replicate's key, and an index out of range is a ValueError
    for seed, replicate in ((1.5, 2.7), (True, 0), (1.5, 0), (0, 1.5), (0, -1), (0, 2**64), (0, np.int64(1))):
        with pytest.raises(ValueError):
            replicate_rng(seed, replicate)


@pytest.mark.parametrize("strip", [1, 7, 64, 1000])
def test_strips_read_the_bits_of_one_draw(monkeypatch, strip):
    # a counter-based stream drawn in strips, one after another, gives
    # exactly the values of one draw, in whole rounds: UCB's rows and
    # Thompson's rounds of two alike; a draw that keeps 5 columns yields
    # the first 5 replicates of those values, and so does one row
    monkeypatch.setattr(sim, "_STRIP_ROWS", strip)
    blocks = range(2, 5)
    for rows, per in ((200, 1), (62, 2), (63, 3)):
        for cols in (256, 5):
            model, rngs = sim._draw(11, blocks, cols)
            rounds = [part.copy() for part in sim._rounds(rngs, rows, per, cols)]
            row = sim._normals(rngs, cols)
            assert all(part.shape == (len(blocks), per, cols) for part in rounds)
            for i, block in enumerate(blocks):
                rng = replicate_rng(11, block)
                assert np.array_equal(model[i], 1 + rng.integers(0, 2, size=256, dtype=np.int8)[:cols])
                one = rng.standard_normal((rows + 1, 256))[:, :cols]
                assert np.array_equal(np.concatenate([part[i] for part in rounds]), one[:rows]), (rows, per)
                assert np.array_equal(row[i], one[rows])


def test_resolve_tau():
    assert resolve_tau(ExploreThenCommit(), 200) == 35  # ceil(200^(2/3))
    assert resolve_tau(ExploreThenCommit(), 2) == 1
    assert resolve_tau(ExploreThenCommit(tau=5), 10) == 5
    with pytest.raises(ValueError):
        resolve_tau(ExploreThenCommit(tau=6), 10)
    with pytest.raises(ValueError):
        resolve_tau(ExploreThenCommit(tau=0), 10)
    with pytest.raises(ValueError):
        resolve_tau(ExploreThenCommit(), 1)
    # an explicit tau must be a Python int: nothing is truncated or coerced
    for bad in (2.5, True, [3]):
        with pytest.raises(ValueError):
            resolve_tau(ExploreThenCommit(tau=bad), 10)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimationConfig(n=0, delta=0.1, estimator=Estimator.SAMPLE_MEAN, replicates=5, seed=0)
    with pytest.raises(ValueError):
        EstimationConfig(n=5, delta=-0.1, estimator=Estimator.SAMPLE_MEAN, replicates=5, seed=0)
    with pytest.raises(ValueError):
        EstimationConfig(n=5, delta=0.1, estimator=Estimator.SAMPLE_MEAN, replicates=0, seed=0)
    with pytest.raises(ValueError):
        BanditConfig(horizon=0, gap=0.1, policy=UCB(), replicates=5, seed=0)
    with pytest.raises(ValueError):
        BanditConfig(horizon=10, gap=0.0, policy=UCB(), replicates=5, seed=0)
    with pytest.raises(ValueError):
        BanditConfig(horizon=10, gap=0.1, policy=ExploreThenCommit(tau=8), replicates=5, seed=0)
    with pytest.raises(ValueError):
        BanditConfig(horizon=10, gap=0.1, policy=UCB(), replicates=5, seed=-3)
    # the UCB constant must be a finite real >= 0
    for c in (math.nan, math.inf, -1.0, "x", True):
        with pytest.raises(ValueError):
            BanditConfig(horizon=10, gap=0.1, policy=UCB(c_explore=c), replicates=5, seed=0)
    BanditConfig(horizon=10, gap=0.1, policy=UCB(c_explore=0), replicates=5, seed=0)
    # nor one whose last radius c sqrt(2 ln T) overflows: every index would
    # read inf and the tie send each round to arm 1; rounds 0 and 1 are forced
    with pytest.raises(ValueError, match="^policy: c_explore makes the radius"):
        BanditConfig(horizon=10, gap=0.1, policy=UCB(c_explore=1e308), replicates=5, seed=0)
    BanditConfig(horizon=10, gap=0.1, policy=UCB(c_explore=1e307), replicates=5, seed=0)
    BanditConfig(horizon=2, gap=0.1, policy=UCB(c_explore=1e308), replicates=5, seed=0)
    # integer fields must be Python ints: nothing is truncated or coerced
    bandit = dict(horizon=10, gap=0.1, policy=UCB(), replicates=5, seed=0)
    for bad in (
        dict(horizon=1.9),
        dict(replicates=2.7),
        dict(seed=True),
        dict(horizon=True),
        dict(seed=1.0),
        dict(replicates="5"),
        dict(horizon=np.int64(10)),
    ):
        with pytest.raises(ValueError):
            BanditConfig(**{**bandit, **bad})
    estimation = dict(n=5, delta=0.1, estimator=Estimator.SAMPLE_MEAN, replicates=5, seed=0)
    for bad in (dict(n=2.5), dict(replicates=3.0), dict(seed=True), dict(n=False), dict(seed=np.uint64(1))):
        with pytest.raises(ValueError):
            EstimationConfig(**{**estimation, **bad})
    # the gap and separation must be reals: a bool or a string is refused,
    # not coerced, and a numpy float is stored as a float
    for bad in (dict(gap=True), dict(gap="0.5"), dict(gap=math.nan), dict(gap=None)):
        with pytest.raises(ValueError, match="gap"):
            BanditConfig(**{**bandit, **bad})
    for bad in (dict(delta=True), dict(delta="0.1"), dict(delta=np.inf)):
        with pytest.raises(ValueError, match="delta"):
            EstimationConfig(**{**estimation, **bad})
    gap = BanditConfig(**{**bandit, "gap": np.float64(0.25)}).gap
    assert type(gap) is float and gap == 0.25
    delta = EstimationConfig(**{**estimation, "delta": np.float32(0.5)}).delta
    assert type(delta) is float and delta == 0.5
    # one ValueError names every bad field, the policy among them
    with pytest.raises(ValueError) as exc:
        BanditConfig(horizon=0, gap=True, policy=UCB(c_explore=math.nan), replicates=0, seed=-1)
    for name in ("horizon", "gap", "policy", "replicates", "seed"):
        assert f"{name}:" in str(exc.value), name
    with pytest.raises(ValueError) as exc:
        EstimationConfig(n=0, delta="x", estimator="sign_commit", replicates=1, seed=0)
    for name in ("n", "delta", "estimator"):
        assert f"{name}:" in str(exc.value), name


def test_policy_names():
    assert [p.name for p in ALL_POLICIES] == ["uniform", "etc", "ucb", "thompson"]
    # each name rebuilds its default policy
    assert [parse_policy(p.name) for p in ALL_POLICIES] == list(ALL_POLICIES)


# -------------------------------------------------------------- estimation


def test_estimation_stream_layout():
    # replicate r is column r % 256 of block r // 256: one integer for the
    # sign, then one row of standard normals z, the mean's noise z / sqrt(n)
    kw = dict(n=3, delta=0.5, replicates=260, seed=9)
    losses = {estimator: run_estimation(EstimationConfig(estimator=estimator, **kw)) for estimator in Estimator}
    for r in (0, 5, 255, 256, 259):
        rng = replicate_rng(9, r // 256)
        theta = 0.5 if rng.integers(0, 2, size=256, dtype=np.int8)[r % 256] == 1 else -0.5
        ybar = theta + rng.standard_normal(256)[r % 256] / math.sqrt(3)
        sign = 0.5 if ybar >= 0.0 else -0.5
        assert losses[Estimator.SAMPLE_MEAN][r] == min(abs(ybar - theta), 1.0)
        assert losses[Estimator.SIGN_COMMIT][r] == abs(sign - theta)
        assert losses[Estimator.ALWAYS_ZERO][r] == 0.5


def test_estimation_prefix_stable():
    # across a block boundary: 257 and 300 replicates are the first of 1000;
    # so are 2 and 5, which one block holds and rolls out alone
    kw = dict(n=4, delta=0.2, estimator=Estimator.SAMPLE_MEAN, seed=3)
    long = run_estimation(EstimationConfig(replicates=1000, **kw))
    for replicates in (2, 5, 257, 300):
        assert np.array_equal(run_estimation(EstimationConfig(replicates=replicates, **kw)), long[:replicates])


def test_estimator_behaviors():
    kw = dict(n=4, delta=0.25, replicates=400, seed=10)
    zero = run_estimation(EstimationConfig(estimator=Estimator.ALWAYS_ZERO, **kw))
    assert np.all(zero == 0.25)  # |0 - theta| = delta, never clipped
    sign = run_estimation(EstimationConfig(estimator=Estimator.SIGN_COMMIT, **kw))
    assert set(np.unique(sign)) == {0.0, 0.5}
    mean = run_estimation(EstimationConfig(estimator=Estimator.SAMPLE_MEAN, **kw))
    assert np.all((mean >= 0.0) & (mean <= 0.5))


def test_sign_commit_matches_exact_law():
    n, delta, reps = 4, 1.0 / 12.0, 20_000
    law = exact_sign_estimator_law(n, delta)
    p = dict(law.atoms)[2.0 * delta]
    assert p == pytest.approx(normal_upper_tail(math.sqrt(n) * delta), rel=1e-15)
    losses = run_estimation(
        EstimationConfig(n=n, delta=delta, estimator=Estimator.SIGN_COMMIT, replicates=reps, seed=5)
    )
    freq = float((losses > delta).mean())
    assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / reps)


def test_normal_upper_tail_values():
    assert normal_upper_tail(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_upper_tail(1.0) == pytest.approx(0.15865525393145705, rel=1e-12)
    assert normal_upper_tail(1.0 / 6.0) == pytest.approx(0.43381616738909634, rel=1e-12)
    assert normal_upper_tail(-10.0) == pytest.approx(1.0, abs=1e-15)


def test_simulate_estimation_sampleset():
    cfg = EstimationConfig(n=2, delta=0.3, estimator=Estimator.SAMPLE_MEAN, replicates=50, seed=1)
    s = simulate_shared([cfg])[0]
    assert s.count == 50
    assert np.all(np.diff(s.values) <= 0)


# ------------------------------------------------------------------ bandit


def test_bandit_deterministic_and_prefix_stable():
    # across a block boundary: 257 and 300 replicates are the first of 1000;
    # so are 2 and 5, which one block holds and rolls out alone
    for policy in ALL_POLICIES:
        kw = dict(horizon=40, gap=0.15, policy=policy, seed=12)
        longer = run_bandit(BanditConfig(replicates=1000, **kw))
        assert np.array_equal(run_bandit(BanditConfig(replicates=1000, **kw)), longer)
        for replicates in (2, 5, 257, 300):
            assert np.array_equal(run_bandit(BanditConfig(replicates=replicates, **kw)), longer[:replicates]), policy.name


def test_bandit_pair_identity():
    # arm-1 pulls lie in [0, T] and regrets under the two models sum to g*T, per replicate
    for policy in ALL_POLICIES:
        config = BanditConfig(horizon=30, gap=0.3, policy=policy, replicates=250, seed=3)
        model = transcript_draws(config, range(1))[0]
        (n1,) = _counts([config])
        n2 = 30 - n1
        assert np.all((n1 >= 0) & (n2 >= 0))
        # model 1's suboptimal arm is arm 2, model 2's is arm 1
        regret_1, regret_2 = 0.3 * n2, 0.3 * n1
        assert np.allclose(regret_1 + regret_2, 0.3 * 30, rtol=1e-12, atol=0.0)
        losses = run_bandit(config)
        assert np.array_equal(losses, np.where(model == 1, regret_1, regret_2))
        assert np.all((losses >= 0.0) & (losses <= 0.3 * 30))


def _oracle_and_counts(config):
    """The round-loop oracle's (reps, T) actions and the rollout's arm-1
    counts on every replicate of the config."""
    model, own, noise = transcript_draws(config, sim._blocks(config.replicates))
    return _reference_rollout(config, model, own, noise), _counts([config])[0]


def test_etc_structure():
    # tau pulls of arm 1, tau of arm 2, then a constant committed arm: the
    # oracle's transcripts show it, and the package's counts take its two values
    tau = 4
    acts, n1 = _oracle_and_counts(
        BanditConfig(horizon=20, gap=0.4, policy=ExploreThenCommit(tau=tau), replicates=60, seed=7)
    )
    assert np.all(acts[:, :tau] == 1)
    assert np.all(acts[:, tau : 2 * tau] == 2)
    tail = acts[:, 2 * tau :]
    assert np.all(tail == tail[:, :1])  # committed
    assert set(np.unique((acts == 1).sum(axis=1))) == set(np.unique(n1)) == {tau, 20 - tau}


def test_ucb_forced_first_pulls():
    acts, _ = _oracle_and_counts(BanditConfig(horizon=5, gap=0.4, policy=UCB(), replicates=30, seed=4))
    assert np.all(acts[:, 0] == 1)
    assert np.all(acts[:, 1] == 2)
    # over two rounds UCB pulls each arm once, whatever the draws
    _, n1 = _oracle_and_counts(BanditConfig(horizon=2, gap=0.4, policy=UCB(), replicates=30, seed=4))
    assert np.all(n1 == 1)


def test_float32_ucb_constant_is_read_in_float64():
    # its radius neither rounds to float32 nor overflows float32 with a
    # warning, which the suite's filter turns into an error
    config = BanditConfig(10, 0.1, UCB(c_explore=np.float32(3e38)), 5, 0)
    want = run_bandit(BanditConfig(10, 0.1, UCB(c_explore=3e38), 5, 0))
    assert np.array_equal(run_bandit(config), want)


# ------------------------------------------- laws of the one-value passes

# the chi-square tests below refuse a sample at a tail probability of 1e-6
_CHI_SQUARE_Z = NormalDist().inv_cdf(1.0 - 1e-6)


def _chi_square_fits(counts, probs) -> bool:
    """Pearson's chi-square test of the counts against the probabilities
    of their cells, at tail probability 1e-6: neighbouring cells are pooled
    until each expects 5 or more, and the statistic is compared with the
    Wilson-Hilferty approximation of the chi-square quantile."""
    total = sum(counts)
    cells, count, prob = [], 0, 0.0
    for k, p in zip(counts, probs):
        count, prob = count + k, prob + p
        if prob * total >= 5.0:
            cells.append((count, prob))
            count, prob = 0, 0.0
    if prob > 0.0 or count:
        last_count, last_prob = cells.pop()
        cells.append((last_count + count, last_prob + prob))
    statistic = sum((k - p * total) ** 2 / (p * total) for k, p in cells)
    df = len(cells) - 1
    quantile = df * (1.0 - 2.0 / (9 * df) + _CHI_SQUARE_Z * math.sqrt(2.0 / (9 * df))) ** 3
    return statistic <= quantile


@pytest.mark.parametrize("horizon, gap", [(1, 1.0), (7, 0.05), (8, 1.0), (64, 0.3)])
def test_uniform_matches_exact_law(horizon, gap):
    # its one binomial row a replicate is g Binomial(T, 1/2), atom by atom
    law = exact_uniform_bandit_law(gap, horizon)
    losses = run_bandit(BanditConfig(horizon, gap, UniformRandom(), 50_000, 31))
    assert set(np.unique(losses)) <= set(law.values)
    assert _chi_square_fits([int((losses == value).sum()) for value in law.values], law.probs)


@pytest.mark.parametrize(
    "horizon, tau, gap", [(200, None, 0.05), (200, None, 0.4), (200, 5, 0.3), (20, 4, 1e-3), (9, 4, 0.4)]
)
def test_explore_then_commit_pass_samples_its_exact_law(horizon, tau, gap):
    # its one normal a replicate decides the commit: regret g tau, or
    # g (T - tau) with probability P(Z > g sqrt(tau / 2))
    config = BanditConfig(horizon, gap, ExploreThenCommit(tau), 50_000, 32)
    law = exact_loss_law(config)
    losses = run_bandit(config)
    assert len(law.values) == 2 and set(np.unique(losses)) <= set(law.values)
    assert _chi_square_fits([int((losses == value).sum()) for value in law.values], law.probs)


@pytest.mark.parametrize("n", [1, 9, 100])
def test_sample_mean_pass_draws_the_mean_of_n_observations(monkeypatch, n):
    # sqrt(n) (ybar - theta) is standard normal, counted in 20 bins of equal
    # probability
    noises, estimate = [], sim._estimate

    def recorded(config, model, noise):
        noises.append(noise)
        return estimate(config, model, noise)

    monkeypatch.setattr(sim, "_estimate", recorded)
    run_estimation(EstimationConfig(n, 0.25, Estimator.SAMPLE_MEAN, 50_000, 33))
    noise = np.concatenate(noises)
    assert noise.size == 50_000
    edges = [NormalDist().inv_cdf(i / 20) for i in range(1, 20)]
    counts = np.bincount(np.searchsorted(edges, math.sqrt(n) * noise), minlength=20)
    assert _chi_square_fits(counts.tolist(), [1 / 20] * 20)


def _thompson_regret_drawn_apart(gap, horizon, reps, rng):
    """Mean regret of Thompson rolled out round by round on a stream of its
    own, each arm's posterior draw a normal of its own, and its standard
    error: the per-round reference of the difference form."""
    model = rng.integers(1, 3, size=reps)
    mu1 = np.where(model == 1, 0.5 * gap, -0.5 * gap)
    n1, n2, s1, s2 = (np.zeros(reps) for _ in range(4))
    for _ in range(horizon):
        draw1 = s1 / (n1 + 1.0) + rng.standard_normal(reps) / np.sqrt(n1 + 1.0)
        draw2 = s2 / (n2 + 1.0) + rng.standard_normal(reps) / np.sqrt(n2 + 1.0)
        on1 = draw1 >= draw2
        y = np.where(on1, mu1, -mu1) + rng.standard_normal(reps)
        n1 += on1
        n2 += ~on1
        s1 += np.where(on1, y, 0.0)
        s2 += np.where(on1, 0.0, y)
    regret = gap * np.where(model == 1, n2, n1)
    return regret.mean(), regret.std(ddof=1) / math.sqrt(reps)


def test_thompson_mean_regret_matches_posterior_draws_apart():
    # one normal W for the two posterior draws' difference samples the
    # policy that draws each posterior apart: the mean regret agrees at
    # every gap within 4 standard errors of the difference
    horizon, reps = 100, 20_000
    gaps = (0.05, 0.2, 0.8)
    configs = [BanditConfig(horizon, gap, ThompsonGaussian(), reps, 34) for gap in gaps]
    rng = np.random.default_rng(3400)
    for config, sample in zip(configs, simulate_shared(configs)):
        mean, stderr = _thompson_regret_drawn_apart(config.gap, horizon, reps, rng)
        ours = sample.values.mean()
        ours_stderr = sample.values.std(ddof=1) / math.sqrt(reps)
        assert abs(ours - mean) <= 4.0 * math.hypot(stderr, ours_stderr), (config.gap, ours, mean)


def test_exact_uniform_law_structure():
    law = exact_uniform_bandit_law(2.0, 1)
    assert law.atoms == ((0.0, 0.5), (2.0, 0.5))
    law4 = exact_uniform_bandit_law(1.0, 4)
    weights = [p for _, p in law4.atoms]
    assert weights == pytest.approx([1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16], abs=0.0)
    assert exact_cvar(law4, RiskLevel(0.5)) == pytest.approx(2.75, abs=1e-12)
    with pytest.raises(DomainError):
        exact_uniform_bandit_law(1.0, 65)
    with pytest.raises(ValueError):
        exact_uniform_bandit_law(0.0, 8)


# tail levels at which a column law's CVaR must equal its atom law's
_LAW_ALPHAS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0 - 2.0**-40)


def _assert_same_law(law, want):
    # bit for bit: atoms, repr, mean and the CVaR at every tail level
    assert law == want and law.atoms == want.atoms and repr(law) == repr(want)
    assert repr(law.mean()) == repr(want.mean())
    for alpha in _LAW_ALPHAS:
        level = RiskLevel(alpha)
        assert repr(exact_cvar(law, level)) == repr(exact_cvar(want, level)), alpha


def test_exact_uniform_law_reads_one_cached_row_per_horizon():
    # every atom bit for bit (g k, C(T, k) / 2^T), at gaps down to the smallest subnormal
    for horizon in range(1, 65):
        for g in (5e-324, 1e-300, 0.0471, 1.0, 3.0, 1e300):
            law = exact_uniform_bandit_law(g, horizon)
            want = tuple((g * k, math.comb(horizon, k) / 2**horizon) for k in range(horizon + 1))
            assert law.atoms == want and repr(law.atoms) == repr(want), (g, horizon)
            # the columns read as the law built from atoms, and hold the cached row itself
            _assert_same_law(law, uniform_law_from_atoms(g, horizon))
            assert law.probs is sim._binomial_row(horizon)
    # one row per horizon, at most 64 of them
    info = sim._binomial_row.cache_info()
    assert info.currsize == info.maxsize == sim._MAX_EXACT_HORIZON
    with pytest.raises(DomainError):
        exact_uniform_bandit_law(1.0, 65)
    # two laws of one horizon share the probability row, never the values
    small, large = exact_uniform_bandit_law(0.5, 10), exact_uniform_bandit_law(2.0, 10)
    assert [p for _, p in small.atoms] == [p for _, p in large.atoms]
    assert [v for v, _ in small.atoms] == [0.5 * k for k in range(11)]
    assert [v for v, _ in large.atoms] == [2.0 * k for k in range(11)]


def test_each_cached_row_meets_the_column_rule_once(monkeypatch):
    # the rule runs once per row, as it is built; a law then checks only its values
    checks = []
    column_rule = DiscreteLossDistribution._set_columns

    def counted(law, values, probs):
        checks.append(len(probs))
        column_rule(law, values, probs)

    monkeypatch.setattr(DiscreteLossDistribution, "_set_columns", counted)
    sim._binomial_row.cache_clear()
    try:
        for g in (0.5, 1.0, 3.0):
            assert exact_uniform_bandit_law(g, 7).probs is sim._binomial_row(7)
        exact_uniform_bandit_law(1.0, 3)
        assert checks == [8, 4]
    finally:
        sim._binomial_row.cache_clear()


@pytest.mark.parametrize("bad", [math.nan, -1])
def test_a_bad_cached_row_raises_when_its_horizon_is_first_used(monkeypatch, bad):
    comb = math.comb
    monkeypatch.setattr(sim.math, "comb", lambda horizon, k: bad if k == 1 else comb(horizon, k))
    sim._binomial_row.cache_clear()
    try:
        with pytest.raises(ValueError, match="^atom_probability: "):
            exact_uniform_bandit_law(1.0, 5)
        # a refused row is not cached, so the next use refuses it again
        with pytest.raises(ValueError, match="^atom_probability: "):
            exact_uniform_bandit_law(2.0, 5)
    finally:
        sim._binomial_row.cache_clear()


def test_estimator_laws_equal_their_atom_construction():
    # p = P(Z > 100) underflows to 0.0, and its atom is kept
    for n, delta in ((9, 0.2), (4, 1.0 / 12.0), (10_000, 1.0)):
        _assert_same_law(exact_sign_estimator_law(n, delta), sign_law_from_atoms(n, delta))
    assert exact_sign_estimator_law(10_000, 1.0).atoms == ((0.0, 1.0), (2.0, 0.0))
    zero = exact_loss_law(EstimationConfig(n=9, delta=0.2, estimator=Estimator.ALWAYS_ZERO, replicates=1, seed=0))
    _assert_same_law(zero, DiscreteLossDistribution(((0.2, 1.0),)))


@pytest.mark.parametrize("horizon", [64, 65])
def test_exact_loss_law_of_each_policy(horizon):
    # the uniform policy has a closed-form law up to T = 64, explore-then-
    # commit at every horizon, UCB and Thompson none
    for policy in ALL_POLICIES:
        law = exact_loss_law(BanditConfig(horizon=horizon, gap=0.3, policy=policy, replicates=1, seed=0))
        if isinstance(policy, UniformRandom) and horizon == 64:
            assert law == exact_uniform_bandit_law(0.3, 64)
        elif isinstance(policy, ExploreThenCommit):
            tau = resolve_tau(policy, horizon)  # 16 at T = 64, 17 at 65
            assert law.values == (0.3 * tau, 0.3 * (horizon - tau))
        else:
            assert law is None, policy.name


@pytest.mark.parametrize("horizon, tau", [(8, None), (8, 4), (2, None), (9, 4), (8, 3)])
def test_explore_then_commit_filling_the_horizon_has_a_one_atom_law(horizon, tau):
    # with 2 tau = T it never commits: tau pulls of each arm, regret g tau;
    # below that it has two atoms, g tau and g (T - tau), the second with
    # the wrong commit's probability P(Z > g sqrt(tau / 2))
    config = BanditConfig(horizon=horizon, gap=0.3, policy=ExploreThenCommit(tau), replicates=300, seed=0)
    law = exact_loss_law(config)
    tau = resolve_tau(config.policy, horizon)
    if 2 * tau != horizon:
        p = normal_upper_tail(0.3 * math.sqrt(tau / 2))
        assert law.atoms == ((0.3 * tau, 1.0 - p), (0.3 * (horizon - tau), p))
        return
    assert law.atoms == ((0.3 * (horizon // 2), 1.0),)
    assert np.array_equal(run_bandit(config), np.full(300, law.values[0]))


def test_exact_loss_law_of_each_estimator():
    laws = {
        estimator: exact_loss_law(EstimationConfig(n=9, delta=0.2, estimator=estimator, replicates=1, seed=0))
        for estimator in Estimator
    }
    assert laws[Estimator.SIGN_COMMIT] == exact_sign_estimator_law(9, 0.2)
    # |0 - theta| = delta under either sign
    assert laws[Estimator.ALWAYS_ZERO].atoms == ((0.2, 1.0),)
    assert laws[Estimator.SAMPLE_MEAN] is None


@pytest.mark.parametrize("horizon", [6, 10**12])
def test_uniform_reconstructs_from_streams(horizon):
    # replicate r is column r % 256 of its block: model integer, then one
    # binomial(T, 1/2) row of arm-1 pull counts, at any horizon in one draw
    cfg = BanditConfig(horizon=horizon, gap=0.7, policy=UniformRandom(), replicates=5, seed=21)
    losses = run_bandit(cfg)
    rng = replicate_rng(21, 0)
    models = 1 + rng.integers(0, 2, size=256, dtype=np.int8)
    n1 = rng.binomial(horizon, 0.5, size=256)
    for r in range(5):
        want = 0.7 * (horizon - n1[r]) if models[r] == 1 else 0.7 * n1[r]
        assert losses[r] == want


def test_bandit_reconstructs_from_streams():
    # replicate r is column r % 256 of its block: model integer, then
    # explore-then-commit's one normal, Thompson's two rows a round, its
    # posterior-difference normal and its reward noise, or UCB's one row of
    # reward noise a round
    horizon, reps, seed = 7, 6, 23
    configs = [
        BanditConfig(horizon=horizon, gap=0.6, policy=p, replicates=reps, seed=seed)
        for p in (ExploreThenCommit(), UCB(), ThompsonGaussian())
    ]
    for config, sample in zip(configs, simulate_shared(configs)):
        rng = replicate_rng(seed, 0)
        model = 1 + rng.integers(0, 2, size=256, dtype=np.int8)[:reps]
        if isinstance(config.policy, ExploreThenCommit):
            tau = resolve_tau(config.policy, horizon)
            mu1 = np.where(model == 1, 0.3, -0.3)
            commit1 = 2.0 * tau * mu1 + math.sqrt(2.0 * tau) * rng.standard_normal(256)[:reps] >= 0.0
            n1 = tau + (horizon - 2 * tau) * commit1
            want = np.where(model == 1, 0.6 * (horizon - n1), 0.6 * n1)
        else:
            per = 2 if isinstance(config.policy, ThompsonGaussian) else 1
            rows = rng.standard_normal((per * horizon, 256))[:, :reps]
            own = rows[0::2].T if per == 2 else None
            noise = rows[per - 1 :: per].T
            actions = _reference_rollout(config, model, own, noise)
            want = _reference_losses(config, model, actions)
        assert np.array_equal(sample.values, np.sort(want, kind="stable")[::-1]), config.policy.name


def test_simulate_bandit_sampleset():
    cfg = BanditConfig(horizon=10, gap=0.2, policy=ThompsonGaussian(), replicates=64, seed=6)
    s = simulate_shared([cfg])[0]
    assert s.count == 64
    assert np.all(np.diff(s.values) <= 0)


def test_one_pass_serves_every_gap_and_each_block_alone():
    # the draws depend on seed, horizon and policy only, so one pass serves
    # every gap, or every estimator and separation, and a range of blocks
    # gives its replicates' losses alone, the short last block too
    for policy in ALL_POLICIES:
        configs = [BanditConfig(horizon=12, gap=gap, policy=policy, replicates=600, seed=8) for gap in (0.1, 0.35, 2.0)]
        for config, losses in zip(configs, sim._pass_losses(configs, range(3))):
            alone = run_bandit(config)
            assert np.array_equal(losses, alone), policy.name
            assert np.array_equal(sim._pass_losses([config], range(1, 2))[0], alone[256:512])
            assert np.array_equal(sim._pass_losses([config], range(2, 3))[0], alone[512:])
    configs = [
        EstimationConfig(n=5, delta=delta, estimator=estimator, replicates=600, seed=4)
        for estimator in Estimator
        for delta in (0.1, 0.45)
    ]
    for config, losses in zip(configs, sim._pass_losses(configs, range(1, 3))):
        assert np.array_equal(losses, run_estimation(config)[256:]), config


def _reference_losses(config: BanditConfig, model, actions) -> np.ndarray:
    n1 = (actions == 1).sum(axis=1)
    return np.where(model == 1, config.gap * (config.horizon - n1), config.gap * n1).astype(float)


def test_batched_rollout_matches_round_loop_oracle(monkeypatch):
    # UCB and Thompson at a tiny, the worst-case and a large gap match the
    # round-loop oracle bit for bit; every policy, explore-then-commit with
    # default and explicit tau (tau = T/2 leaves no commit rounds), keeps
    # its losses however it is cut
    horizon, reps = 60, 257
    policies = (
        UniformRandom(),
        ExploreThenCommit(),
        ExploreThenCommit(tau=5),
        ExploreThenCommit(tau=30),
        UCB(),
        UCB(c_explore=0.5),
        ThompsonGaussian(),
    )
    gaps = (1e-3, optimal_gap(horizon, RiskLevel(0.5))[0], 2.0)
    configs = [
        BanditConfig(horizon=horizon, gap=g, policy=p, replicates=reps, seed=13) for p in policies for g in gaps
    ]
    expected = []
    for policy in policies:
        rows = [config for config in configs if config.policy == policy]
        if not isinstance(policy, (UCB, ThompsonGaussian)):
            expected += [run_bandit(config) for config in rows]
            continue
        # the oracle reads the same blocks again, in one draw each
        model, own, noise = transcript_draws(rows[0], range(2))
        for config, n1 in zip(rows, _counts(rows)):
            actions = _reference_rollout(config, model, own, noise)
            losses = _reference_losses(config, model, actions)
            assert np.array_equal(n1, (actions == 1).sum(axis=1)), config
            assert np.array_equal(run_bandit(config), losses), config
            expected.append(losses)
    # all rows in one call, drawn in strips of other sizes, Thompson's
    # rounded down to whole rounds, and rolled out one block at a time
    for strip, elements in ((5, None), (1, 256)):
        monkeypatch.setattr(sim, "_STRIP_ROWS", strip)
        if elements:
            monkeypatch.setattr(sim, "_ROLLOUT_ELEMENTS", elements)
        for sample, config, losses in zip(simulate_shared(configs), configs, expected):
            assert np.array_equal(sample.values, np.sort(losses, kind="stable")[::-1]), config


@pytest.mark.parametrize("horizon", [1, 2, 3, 40])
def test_rollout_matches_oracle_at_edge_gaps(horizon):
    # a subnormal gap, whose half rounds to +-0 and flips only a zero's
    # sign, a tiny and a huge one; UCB without exploration bonus; horizons
    # that end inside UCB's forced rounds and just after them
    reps = 129
    gaps = (5e-324, 1e-300, 1e300)
    for policy in (UCB(), UCB(c_explore=0.0), ThompsonGaussian()):
        rows = [BanditConfig(horizon=horizon, gap=g, policy=policy, replicates=reps, seed=21) for g in gaps]
        model, own, noise = transcript_draws(rows[0], range(1))
        for config, n1 in zip(rows, _counts(rows)):
            actions = _reference_rollout(config, model, own, noise)
            assert np.array_equal(n1, (actions == 1).sum(axis=1)), config
            assert np.array_equal(run_bandit(config), _reference_losses(config, model, actions)), config


@pytest.mark.parametrize(
    "horizon, gap, policy", [(60, 1.7e308, UCB()), (10**6, 1e303, UniformRandom())], ids=["ucb", "uniform"]
)
def test_gap_whose_regret_overflows_is_refused_before_any_draw(monkeypatch, horizon, gap, policy):
    def draw(*args):
        raise AssertionError("drew before refusing the gap")

    monkeypatch.setattr(sim, "_draw", draw)
    with pytest.raises(ValueError) as exc:
        simulate_shared([BanditConfig(horizon=horizon, gap=gap, policy=policy, replicates=10, seed=3)])
    assert str(exc.value).startswith("gap: ") and "overflows" in str(exc.value)


@pytest.mark.parametrize("policy", [UniformRandom(), ExploreThenCommit()], ids=["uniform", "etc"])
def test_a_one_row_policy_runs_below_an_int64_horizon(policy, capsys):
    # its pull counts are drawn in one row of int64: the largest such
    # horizon runs at once, and the next is refused by name, not by numpy
    losses = run_bandit(BanditConfig(2**63 - 1, 1e-300, policy, 3, 0))
    assert losses.size == 3 and np.all((losses > 0.0) & (losses <= 1e-300 * (2**63 - 1)))
    with pytest.raises(ValueError, match=rf"^policy: {policy.name} runs at horizons below 2\*\*63, got horizon = "):
        BanditConfig(2**63, 1e-300, policy, 3, 0)
    argv = ["simulate", "--horizon", str(2**63), "--gap", "1e-300", "--policy", policy.name, "--replicates", "3"]
    assert cli_main(argv) == 2
    assert f"policies: {policy.name} runs at horizons below 2**63" in capsys.readouterr().err


def test_config_and_bound_refuse_an_overflowing_regret_alike():
    # g T overflows while g^2 T / 2 does not, so bandit_bound reaches its own check
    horizon, gap = int(1.5e308), 1.5
    with pytest.raises(ValueError) as config_exc:
        BanditConfig(horizon=horizon, gap=gap, policy=UCB(), replicates=10, seed=3)
    with pytest.raises(ValueError) as bound_exc:
        bandit_bound(gap, horizon, RiskLevel(0.5))
    why = f"g horizon overflows a float at horizon = {horizon}, got {gap!r}"
    assert (str(config_exc.value), str(bound_exc.value)) == (f"gap: {why}", f"g: {why}")


def test_largest_gaps_roll_out_without_overflow():
    # a finite regret g T keeps every arm sum, index and loss finite
    horizon = 60
    configs = [
        BanditConfig(horizon=horizon, gap=1.7e308 / horizon, policy=policy, replicates=50, seed=3)
        for policy in ALL_POLICIES
    ]
    with np.errstate(all="raise"):
        samples = simulate_shared(configs)
    for sample, config in zip(samples, configs):
        assert np.all(np.isfinite(sample.values)) and sample.values.max() <= config.gap * horizon


def test_simulate_shared_matches_simulating_alone():
    for policy in ALL_POLICIES:
        configs = [
            BanditConfig(horizon=10, gap=gap, policy=policy, replicates=25, seed=6)
            for gap in (0.2, 1.5)
        ]
        for shared, config in zip(simulate_shared(configs), configs):
            alone = simulate_shared([config])[0]
            assert np.array_equal(shared.values, alone.values), policy.name
    configs = [
        EstimationConfig(n=4, delta=delta, estimator=estimator, replicates=25, seed=6)
        for estimator in Estimator
        for delta in (0.3, 1.1)
    ]
    for shared, config in zip(simulate_shared(configs), configs):
        alone = simulate_shared([config])[0]
        assert np.array_equal(shared.values, alone.values), config.estimator
    assert simulate_shared([]) == []


def test_simulate_shared_groups_configs_drawn_apart(monkeypatch):
    # configs of several passes, interleaved in one call: each sample equals
    # simulating its config alone, and each pass is drawn once, in the
    # order its first config comes
    configs = [
        BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=4, seed=0),
        EstimationConfig(n=6, delta=0.2, estimator=Estimator.SAMPLE_MEAN, replicates=4, seed=0),
        BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=4, seed=1),
        BanditConfig(horizon=6, gap=0.2, policy=ThompsonGaussian(), replicates=4, seed=0),
        # another UCB constant is another pass
        BanditConfig(horizon=6, gap=0.9, policy=UCB(2.0), replicates=4, seed=0),
        BanditConfig(horizon=6, gap=0.5, policy=ExploreThenCommit(), replicates=4, seed=0),
        BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=5, seed=0),
        EstimationConfig(n=3, delta=0.2, estimator=Estimator.SIGN_COMMIT, replicates=4, seed=0),
        BanditConfig(horizon=7, gap=0.2, policy=UniformRandom(), replicates=4, seed=0),
        # every estimator and separation of one size is one pass
        EstimationConfig(n=6, delta=0.7, estimator=Estimator.ALWAYS_ZERO, replicates=4, seed=0),
        BanditConfig(horizon=6, gap=0.7, policy=UCB(), replicates=4, seed=0),
        BanditConfig(horizon=4, gap=0.2, policy=UCB(), replicates=4, seed=0),
    ]
    alone = [simulate_shared([config])[0] for config in configs]
    drawn = []
    original = sim._draw

    def counted(seed, blocks, cols):
        drawn.append((seed, blocks, cols))
        return original(seed, blocks, cols)

    monkeypatch.setattr(sim, "_draw", counted)
    shared = simulate_shared(configs)
    seeds = [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    # a lone block rolls out only the replicates it keeps: 4, or 5 for the 7th pass
    cols = [4] * 6 + [5] + [4] * 3
    assert drawn == [(seed, range(1), col) for seed, col in zip(seeds, cols)]
    for one, many, config in zip(alone, shared, configs):
        assert np.array_equal(one.values, many.values), config
    assert simulate_shared([]) == []


# ---------------------------------------------------------- worker processes


def _battery(n, replicates=600, seed=8):
    """Every policy, one more UCB constant and every estimator, each at two
    parameters: six passes of three blocks, the last one short."""
    policies = (*ALL_POLICIES, UCB(2.0))
    configs = [BanditConfig(12, gap, policy, replicates, seed) for policy in policies for gap in (0.3, 1.2)]
    return configs + [EstimationConfig(n, delta, e, replicates, seed) for e in Estimator for delta in (0.2, 0.7)]


def _fork_for_any_work(monkeypatch, cpus=3):
    """Make simulate_shared fork one worker per CPU of `cpus` whatever its
    work, more workers than this machine may have; returns the list each
    fork appends to."""
    assert sim._threads() == 1, "a second thread runs, so simulate_shared would not fork (see conftest.py)"
    monkeypatch.setattr(sim, "_WORK_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# each pass is one group, or is cut into a group of each block (the
# estimation into two), dealt to two, three or four workers; n = 9 and 40
# end inside and past a strip, and a strip of 1 row reads Thompson's rounds
# of 3 rows whole
@pytest.mark.parametrize("cpus", [2, 3, 4])
@pytest.mark.parametrize("elements", [None, 2 * 256])
@pytest.mark.parametrize("strip", [None, 7, 1])
@pytest.mark.parametrize("n", [9, 40])
def test_forked_workers_give_the_serial_losses(monkeypatch, cpus, elements, strip, n):
    configs = _battery(n)
    serial = simulate_shared(configs)
    if elements is not None:
        monkeypatch.setattr(sim, "_ROLLOUT_ELEMENTS", elements)
    if strip is not None:
        monkeypatch.setattr(sim, "_STRIP_ROWS", strip)
    forks = _fork_for_any_work(monkeypatch, cpus)
    forked = simulate_shared(configs)
    assert len(forks) == cpus - 1
    _assert_no_child_left()
    for one, other, config in zip(serial, forked, configs):
        assert np.array_equal(one.values, other.values), config


def test_workers_never_outnumber_the_blocks(monkeypatch):
    # a call of fewer groups than CPUs has its groups cut down to blocks, so
    # no CPU idles: the battery's six passes of 300 replicates are 12
    # blocks, so eight usable CPUs fork seven workers; one pass of 2 blocks
    # forks one, and one of a block none
    configs = _battery(9, replicates=300)
    short = [replace(config, replicates=200) for config in configs[:2]]
    serial, serial_short = simulate_shared(configs), simulate_shared(short)
    forks = _fork_for_any_work(monkeypatch, cpus=8)
    forked = simulate_shared(configs)
    assert len(forks) == 7
    assert np.array_equal(simulate_shared(configs[:2])[0].values, serial[0].values)
    assert len(forks) == 8
    assert np.array_equal(simulate_shared(short)[0].values, serial_short[0].values)
    assert len(forks) == 8
    _assert_no_child_left()
    for one, other, config in zip(serial, forked, configs):
        assert np.array_equal(one.values, other.values), config


def _pass_name(configs):
    first = configs[0]
    return first.policy.name if isinstance(first, BanditConfig) else "estimation"


def _worked_groups(monkeypatch, configs):
    """Run simulate_shared on the configs, and return each process's worked
    groups, each as (pass name, first block, blocks), by process id."""
    read, write = os.pipe()
    pass_losses = sim._pass_losses

    def recorded(pass_configs, group):
        os.write(write, f"{os.getpid()} {_pass_name(pass_configs)} {group.start} {len(group)}\n".encode())
        return pass_losses(pass_configs, group)

    monkeypatch.setattr(sim, "_pass_losses", recorded)
    try:
        simulate_shared(configs)
    finally:
        os.close(write)
    with os.fdopen(read, "rb") as lines:
        worked = [line.split() for line in lines]
    by_process = {}
    for pid, name, start, blocks in worked:
        by_process.setdefault(int(pid), []).append((name.decode(), int(start), int(blocks)))
    return by_process


# the default verify battery at 1,000 replicates: each pass is one group of
# 4 blocks, costing 46,600 (Thompson), 41,600 (UCB) and 600 for each of the
# uniform policy, explore-then-commit and the estimation a block
@pytest.mark.parametrize(
    "cpus, shares",
    [
        (2, [{"thompson"}, {"uniform", "etc", "ucb", "estimation"}]),
        (3, [{"thompson"}, {"ucb"}, {"uniform", "etc", "estimation"}]),
    ],
)
def test_the_default_battery_deals_its_largest_group_to_the_caller(monkeypatch, cpus, shares):
    assert sim._threads() == 1, "a second thread runs, so simulate_shared would not fork (see conftest.py)"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    args = build_parser().parse_args(["verify", "--replicates", "1000"])
    configs = [case[-1] for case in experiments._cases(_config_from_args(args))]
    by_process = _worked_groups(monkeypatch, configs)
    _assert_no_child_left()
    worked = [group for groups in by_process.values() for group in groups]
    names = ("uniform", "etc", "ucb", "thompson", "estimation")
    assert sorted(worked) == sorted((name, 0, 4) for name in names)
    assert {name for name, *_ in by_process.pop(os.getpid())} == shares[0]
    children = [{name for name, *_ in groups} for groups in by_process.values()]
    assert sorted(map(sorted, children)) == sorted(map(sorted, shares[1:]))


# `simulate --horizon 200 --gap optimal --policy thompson`: 10,000
# replicates at one gap are one group of 40 blocks, costing 14,600 a block,
# which is cut in halves until every worker has a piece
@pytest.mark.parametrize(
    "cpus, pieces",
    [(2, [(0, 20), (20, 20)]), (3, [(0, 10), (10, 10), (20, 20)]), (4, [(0, 10), (10, 10), (20, 10), (30, 10)])],
)
def test_a_one_group_call_is_cut_for_every_worker(monkeypatch, cpus, pieces):
    assert sim._threads() == 1, "a second thread runs, so simulate_shared would not fork (see conftest.py)"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    args = build_parser().parse_args(["simulate", "--horizon", "200", "--gap", "optimal", "--policy", "thompson"])
    configs = [case[-1] for case in experiments._cases(_config_from_args(args))]
    assert len(configs) == 1 and [len(group) for group in sim._groups(configs)] == [40]
    by_process = _worked_groups(monkeypatch, configs)
    _assert_no_child_left()
    assert len(by_process) == cpus
    worked = sorted((start, blocks) for groups in by_process.values() for _, start, blocks in groups)
    assert worked == pieces
    # the caller holds a largest piece
    assert max(pieces, key=lambda piece: piece[1])[1] in {blocks for _, _, blocks in by_process[os.getpid()]}


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=40), st.integers(1, 8))
def test_each_group_is_dealt_to_one_worker_and_the_largest_to_the_caller(costs, workers):
    workers = min(workers, len(costs))
    owners = sim._deal(costs, workers)
    # every group has one worker, every worker a group, and worker 0, the
    # calling process, the largest: what fails in every draw fails there
    assert len(owners) == len(costs) and set(owners) == set(range(workers))
    assert owners[costs.index(max(costs))] == 0
    # within list scheduling's bound: no worker gets more than an even
    # share and one group
    loads = [sum(cost for cost, owner in zip(costs, owners) if owner == worker) for worker in range(workers)]
    assert max(loads) <= sum(costs) / workers + max(costs)


def test_groups_are_worked_once_each_however_a_pass_is_cut(monkeypatch):
    # three blocks a pass, cut into a group of each block (the estimation
    # into two), dealt to three workers: each group is worked once
    configs = _battery(9)
    monkeypatch.setattr(sim, "_ROLLOUT_ELEMENTS", 2 * 256)
    _fork_for_any_work(monkeypatch)
    by_process = _worked_groups(monkeypatch, configs)
    _assert_no_child_left()
    assert len(by_process) == 3
    worked = [group for groups in by_process.values() for group in groups]
    names = ("uniform", "etc", "ucb", "thompson", "ucb")
    groups = [(name, block, 1) for name in names for block in range(3)] + [("estimation", 0, 2), ("estimation", 2, 1)]
    assert sorted(worked) == sorted(groups)
    # the caller holds the costliest group, the first of Thompson's blocks
    # at 1,680 each (`_cost`), against the estimation's two at 600 each
    assert ("thompson", 0, 1) in by_process[os.getpid()]


class _Failed(Exception):
    pass


@pytest.mark.parametrize("where", ["child", "parent", "every process"])
def test_a_failed_worker_fails_the_call_and_leaves_no_child(monkeypatch, capfd, where):
    configs = _battery(9)
    forks = _fork_for_any_work(monkeypatch)
    parent, draw = os.getpid(), sim._draw

    def failing(*args):
        in_child = os.getpid() != parent
        if where == "every process" or in_child == (where == "child"):
            raise _Failed
        if in_child:
            time.sleep(60)
        return draw(*args)

    monkeypatch.setattr(sim, "_draw", failing)
    # a failed child fails the call, and the calling process raises its own
    # failure as raised, killing its children rather than waiting for them
    started = time.monotonic()
    with pytest.raises(RuntimeError if where == "child" else _Failed):
        simulate_shared(configs)
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    _assert_no_child_left()
    # a child flushes no buffer, and only a child that raised writes, its
    # traceback; killed children may not have got so far
    out, err = capfd.readouterr()
    assert out == ""
    if where == "child":
        assert err.count("Traceback (most recent call last)") == err.count("._Failed\n") == 2
    elif where == "every process":
        assert err.count("Traceback (most recent call last)") == err.count("._Failed\n") <= 2
    else:
        assert err == ""


@pytest.mark.parametrize("forked", [0, 1])
def test_a_refused_fork_leaves_its_groups_to_the_caller(monkeypatch, forked):
    # a fork refused for want of processes or memory costs a worker, not the call
    configs = _battery(9)
    serial = simulate_shared(configs)
    forks = _fork_for_any_work(monkeypatch)
    counted = os.fork

    def fork():
        if len(forks) == forked:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return counted()

    monkeypatch.setattr(os, "fork", fork)
    alone = simulate_shared(configs)
    assert len(forks) == forked
    _assert_no_child_left()
    for one, other, config in zip(serial, alone, configs):
        assert np.array_equal(one.values, other.values), config


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_a_worker_whose_caller_is_killed_stops(monkeypatch):
    # a timeout that SIGKILLs the calling process alone leaves its children
    # to their parent's next group, where they stop rather than draw on: the
    # battery's passes cut into 17 groups give each child five or six, whose
    # 4 s draws would otherwise run on for 16 s or more after the kill
    monkeypatch.setattr(sim, "_ROLLOUT_ELEMENTS", 2 * 256)
    _fork_for_any_work(monkeypatch)
    test, draw = os.getpid(), sim._draw
    read, write = os.pipe()

    def slow(*args):
        if os.getppid() == test:
            time.sleep(60)  # the caller, until it is killed
        else:
            os.write(write, b"%d\n" % os.getpid())
            time.sleep(4)
        return draw(*args)

    monkeypatch.setattr(sim, "_draw", slow)
    caller = os.fork()
    if caller == 0:
        try:
            simulate_shared(_battery(9))
        finally:
            os._exit(0)
    os.close(write)
    workers, written = set(), b""
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and select.select([read], [], [], max(0, deadline - time.monotonic()))[0]:
            written += os.read(read, 4096)
            workers = {int(pid) for pid in written.split()}
        assert len(workers) == 2
        os.kill(caller, signal.SIGKILL)
        os.waitpid(caller, 0)
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, workers))
    finally:
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
        os.close(read)
    _assert_no_child_left()


def _python_thread():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()

    def stop():
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()

    return stop


def _watchdog_thread():
    # faulthandler's watchdog is an OS thread that the threading module does
    # not list, as a BLAS pool's are
    faulthandler.dump_traceback_later(600)
    assert threading.active_count() == 1
    return faulthandler.cancel_dump_traceback_later


@pytest.mark.parametrize("start", [_python_thread, _watchdog_thread])
def test_a_process_with_a_second_thread_does_not_fork(monkeypatch, start):
    configs = _battery(9)
    serial = simulate_shared(configs)
    _fork_for_any_work(monkeypatch)

    def fork():
        raise AssertionError("forked beside a second thread")

    monkeypatch.setattr(os, "fork", fork)
    stop = start()
    try:
        assert sim._threads() == 2
        beside = simulate_shared(configs)
    finally:
        stop()
        # a stopped thread's OS thread may outlive its join by a moment, and
        # the fork tests after this one need a single thread
        deadline = time.monotonic() + 10
        while sim._threads() > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert sim._threads() == 1
    for one, other, config in zip(serial, beside, configs):
        assert np.array_equal(one.values, other.values), config


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_horizon(monkeypatch):
    # a pass holds one strip of each block's rows and its rollout state,
    # whatever the horizon: with strips of 16 rows, a 256-replicate UCB run
    # peaks alike at T = 2,000 and 20,000, where one draw of every
    # replicate's T noises would hold 4.1 and 41 MB
    monkeypatch.setattr(sim, "_STRIP_ROWS", 16)
    # a first run loads what the runs import, numpy.random among them
    simulate_shared([BanditConfig(2, 0.05, UCB(), 256, 5)])
    peaks = [
        _traced_peak(lambda: simulate_shared([BanditConfig(horizon, 0.05, UCB(), 256, 5)]))
        for horizon in (2_000, 20_000)
    ]
    assert abs(peaks[1] - peaks[0]) <= 16 * 1024, peaks
    assert max(peaks) <= 256 * 1024, peaks


_SWEEP = ["--alpha", "0", "--alpha", "0.5", "--alpha", "0.9", "--scale", "0.5", "--scale", "1", "--scale", "2"]
_TAILS = ["--alpha", "0", "--alpha", "0.9"]

# sha256 of each command's report; every output kind is pinned, so a change
# to drawing, row building or the bound closed forms must keep every byte;
# the simulated ones under the philox-seed-block-v3 streams
_PINNED_OUTPUTS = {
    "verify-csv": (
        ["verify", "--replicates", "5000", "--seed", "1"],
        "81795c5d1a6157333c62608d10882063f8b35865824c752deb3c26e1f71a979b",
    ),
    "verify-json": (
        ["verify", "--replicates", "2000", "--seed", "1", "--format", "json"],
        "f4581fde642f88521f563dd0c0f4e18f1d6e4a24679b534f8d117af93d211471",
    ),
    "bound-bandit": (
        ["bound", "--horizon", "200", "--gap", "optimal", *_SWEEP, "--format", "json"],
        "4500149d7450a74ec23415cd67ac7c0dc9d10c7ff630980ecb1c4bc138d6ce10",
    ),
    "bound-estimation": (
        ["bound", "--n", "100", "--delta", "optimal", *_SWEEP, "--format", "json"],
        "427eb88cc6e9a82158ce8bb3ea07c125c79f9a0be3d2fba2057bb6e96a9b4507",
    ),
    "simulate-bandit": (
        ["simulate", "--horizon", "200", "--gap", "optimal", "--policy", "uniform",
         "--replicates", "2000", "--seed", "3", *_TAILS, "--format", "json"],
        "eb92c8462db3ed429e621b992dd5d40469508ff31db4d642826417add35b13ff",
    ),
    "simulate-estimation": (
        ["simulate", "--n", "100", "--delta", "optimal", "--estimator", "sign_commit",
         "--replicates", "2000", "--seed", "3", *_TAILS, "--format", "json"],
        "e0ab0c129eba4b764455065a2e6e68e30f2a32587bcb27fc4191deecb6f4dff2",
    ),
    "psi": (
        ["psi", "--alpha", "0", "--alpha", "0.5", "--format", "json"],
        "618a97ea6d5cfbcdec66315c0dcc7391b6a73df3d83c2ac1ede64155f9c288d1",
    ),
    "psi-csv": (
        ["psi", "--alpha", "0", "--alpha", "0.5", "--alpha", "0.9", "--rho-max", "1.2", "--rho-step", "0.01"],
        "b0f2991ce7124aa94bcf9c5d70d47774db65b2b36c302a7e1f11bd25c910cf79",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_OUTPUTS))
def test_output_hash_is_pinned(name, tmp_path):
    argv, digest = _PINNED_OUTPUTS[name]
    out = tmp_path / "report"
    assert cli_main([*argv, "--out", str(out)]) == 0
    # NEP 19 does not promise that a Generator's streams stay the same
    # across numpy releases, so a numpy upgrade may move the simulated hashes
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == digest, f"sha256 {got}, pinned under numpy 2.4.6, running numpy {np.__version__}"


# ----------------------------------------------------------- transcript KL


def test_mc_transcript_kl_hits_budget():
    target = 0.2 * 0.2 * 100 / 2.0
    for policy in ALL_POLICIES:
        cfg = BanditConfig(horizon=100, gap=0.2, policy=policy, replicates=4000, seed=1)
        est, stderr = mc_transcript_kl(cfg)
        assert stderr > 0.0
        assert abs(est - target) <= 4.0 * stderr, policy.name


def test_mc_transcript_kl_deterministic(monkeypatch):
    # 2000 replicates end inside an 8th block; one block a chunk must join
    # the chunks, and cut the last block's columns, to the same figures
    cfg = BanditConfig(horizon=50, gap=0.3, policy=UCB(), replicates=2000, seed=77)
    whole = mc_transcript_kl(cfg)
    assert mc_transcript_kl(cfg) == whole
    monkeypatch.setattr(oracles, "_KL_CHUNK_BLOCKS", 1)
    assert mc_transcript_kl(cfg) == whole


def test_mc_transcript_kl_needs_replicates():
    cfg = BanditConfig(horizon=50, gap=0.3, policy=UCB(), replicates=999, seed=0)
    with pytest.raises(ValueError):
        mc_transcript_kl(cfg)
