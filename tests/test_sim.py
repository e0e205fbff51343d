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

import numpy as np
import oracles
import pytest
from oracles import (
    _reference_rollout, mc_transcript_kl, sign_law_from_atoms, transcript_draws, uniform_law_from_atoms
)

from cvarbounds import sim
from cvarbounds.bounds import bandit_bound, optimal_gap
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
    rows, per = sim._reads(first)
    arms = isinstance(first.policy, UniformRandom)
    draws = sim._draw(first.seed, sim._blocks(first.replicates), rows, per, arms, 256)
    model = next(draws)
    n1 = sim._rollout(first.policy, first.horizon, [config.gap for config in configs], model, draws)
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
    # exactly the values of one draw: normals, Thompson's whole rounds of
    # three rows and the uniform policy's arm draws alike; a draw that keeps
    # 5 columns yields the first 5 replicates of those values
    monkeypatch.setattr(sim, "_STRIP_ROWS", strip)
    blocks = range(2, 5)
    for rows, per, arms in ((200, 1, False), (63, 3, False), (200, 1, True)):
        for cols in (256, 5):
            draws = sim._draw(11, blocks, rows, per, arms, cols)
            model = next(draws)
            strips = [part.copy() for part in draws]
            assert all(part.shape[1] % per == 0 and part.shape[2] == cols for part in strips)
            for i, block in enumerate(blocks):
                rng = replicate_rng(11, block)
                assert np.array_equal(model[i], 1 + rng.integers(0, 2, size=256, dtype=np.int8)[:cols])
                one = rng.integers(1, 3, size=(rows, 256), dtype=np.int8) if arms else rng.standard_normal((rows, 256))
                assert np.array_equal(np.concatenate([part[i] for part in strips]), one[:, :cols]), (rows, arms)


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
    # sign, then n rows of observation noise, summed row by row
    kw = dict(n=3, delta=0.5, replicates=260, seed=9)
    losses = {estimator: run_estimation(EstimationConfig(estimator=estimator, **kw)) for estimator in Estimator}
    for r in (0, 5, 255, 256, 259):
        rng = replicate_rng(9, r // 256)
        theta = 0.5 if rng.integers(0, 2, size=256, dtype=np.int8)[r % 256] == 1 else -0.5
        noise = rng.standard_normal((3, 256))[:, r % 256]
        ybar = theta + (noise[0] + noise[1] + noise[2]) / 3
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
    # tau pulls of arm 1, tau of arm 2, then a constant committed arm
    tau = 4
    acts, n1 = _oracle_and_counts(
        BanditConfig(horizon=20, gap=0.4, policy=ExploreThenCommit(tau=tau), replicates=60, seed=7)
    )
    assert np.all(acts[:, :tau] == 1)
    assert np.all(acts[:, tau : 2 * tau] == 2)
    tail = acts[:, 2 * tau :]
    assert np.all(tail == tail[:, :1])  # committed
    assert set(np.unique(n1)) <= {tau, 20 - tau}
    assert np.array_equal(n1, (acts == 1).sum(axis=1))


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


def test_uniform_matches_exact_law():
    g, T, reps = 1.0, 8, 20_000
    law = exact_uniform_bandit_law(g, T)
    losses = run_bandit(BanditConfig(horizon=T, gap=g, policy=UniformRandom(), replicates=reps, seed=11))
    for value, p in law.atoms:
        freq = float((losses == value).mean())
        assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / reps), value


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


def test_estimator_laws_equal_their_atom_construction():
    # p = P(Z > 100) underflows to 0.0, and its atom is kept
    for n, delta in ((9, 0.2), (4, 1.0 / 12.0), (10_000, 1.0)):
        _assert_same_law(exact_sign_estimator_law(n, delta), sign_law_from_atoms(n, delta))
    assert exact_sign_estimator_law(10_000, 1.0).atoms == ((0.0, 1.0), (2.0, 0.0))
    zero = exact_loss_law(EstimationConfig(n=9, delta=0.2, estimator=Estimator.ALWAYS_ZERO, replicates=1, seed=0))
    _assert_same_law(zero, DiscreteLossDistribution(((0.2, 1.0),)))


@pytest.mark.parametrize("horizon", [64, 65])
def test_exact_loss_law_of_each_policy(horizon):
    # only the uniform policy has a closed-form law, and only up to T = 64
    for policy in ALL_POLICIES:
        law = exact_loss_law(BanditConfig(horizon=horizon, gap=0.3, policy=policy, replicates=1, seed=0))
        if isinstance(policy, UniformRandom) and horizon == 64:
            assert law == exact_uniform_bandit_law(0.3, 64)
        else:
            assert law is None, policy.name


def test_exact_loss_law_of_each_estimator():
    laws = {
        estimator: exact_loss_law(EstimationConfig(n=9, delta=0.2, estimator=estimator, replicates=1, seed=0))
        for estimator in Estimator
    }
    assert laws[Estimator.SIGN_COMMIT] == exact_sign_estimator_law(9, 0.2)
    # |0 - theta| = delta under either sign
    assert laws[Estimator.ALWAYS_ZERO].atoms == ((0.2, 1.0),)
    assert laws[Estimator.SAMPLE_MEAN] is None


def test_uniform_reconstructs_from_streams():
    # replicate r is column r % 256 of its block: model integer, then T rows of arm draws
    cfg = BanditConfig(horizon=6, gap=0.7, policy=UniformRandom(), replicates=5, seed=21)
    losses = run_bandit(cfg)
    rng = replicate_rng(21, 0)
    models = 1 + rng.integers(0, 2, size=256, dtype=np.int8)
    arms = rng.integers(1, 3, size=(6, 256), dtype=np.int8)
    for r in range(5):
        n2 = int((arms[:, r] == 2).sum())
        want = 0.7 * n2 if models[r] == 1 else 0.7 * (6 - n2)
        assert losses[r] == pytest.approx(want, abs=0.0)


def test_uniform_pass_holds_one_strip_of_arm_draws():
    # the uniform policy's arm draws are summed strip by strip into arm-1
    # pull counts, so its pass peaks near one strip, not the block's
    # T x 256 bytes of arm draws
    reps, horizon = 4, 10**5
    config = BanditConfig(horizon=horizon, gap=0.1, policy=UniformRandom(), replicates=reps, seed=9)
    tracemalloc.start()
    try:
        losses = run_bandit(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < horizon * 256 // 20
    model, arms, _ = transcript_draws(BanditConfig(horizon, 0.1, UniformRandom(), reps, 9), range(1))
    n1 = (arms == 1).sum(axis=1)
    assert np.array_equal(losses, np.where(model == 1, 0.1 * (horizon - n1), 0.1 * n1))
    (counts,) = _counts([config])
    assert np.array_equal(counts, n1)


def test_bandit_reconstructs_from_streams():
    # replicate r is column r % 256 of its block: model integer, then
    # Thompson's three rows a round, its two posterior normals and its
    # reward noise, or another policy's one row of reward noise a round
    horizon, reps, seed = 7, 6, 23
    configs = [
        BanditConfig(horizon=horizon, gap=0.6, policy=p, replicates=reps, seed=seed)
        for p in (ExploreThenCommit(), UCB(), ThompsonGaussian())
    ]
    for config, sample in zip(configs, simulate_shared(configs)):
        rng = replicate_rng(seed, 0)
        model = 1 + rng.integers(0, 2, size=256, dtype=np.int8)[:reps]
        per = 3 if isinstance(config.policy, ThompsonGaussian) else 1
        rows = rng.standard_normal((per * horizon, 256))[:, :reps]
        own = np.stack([rows[0::3].T, rows[1::3].T], axis=-1) if per == 3 else None
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
    # every policy, with default and explicit tau (tau = T/2 leaves no
    # commit rounds), at a tiny, the worst-case and a large gap
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

    def counted(seed, blocks, rows, per, arms, cols):
        drawn.append((seed, blocks, rows, per, arms, cols))
        return original(seed, blocks, rows, per, arms, cols)

    monkeypatch.setattr(sim, "_draw", counted)
    shared = simulate_shared(configs)
    tau = resolve_tau(ExploreThenCommit(), 6)
    reads = [(6, 1), (6, 1), (6, 1), (18, 3), (6, 1), (2 * tau, 1), (6, 1), (3, 1), (7, 1), (4, 1)]
    seeds = [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    arms = [False] * 8 + [True, False]
    # a lone block rolls out only the replicates it keeps: 4, or 5 for the 7th pass
    cols = [4] * 6 + [5] + [4] * 3
    assert drawn == [(seed, range(1), *read, *rest) for seed, read, *rest in zip(seeds, reads, arms, cols)]
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


# three workers take one block of each pass, two take one and two; n = 9 and
# 40 end inside and past a strip, and a strip of 1 row reads Thompson's
# rounds of 3 rows whole
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("strip", [None, 7, 1])
@pytest.mark.parametrize("n", [9, 40])
def test_forked_workers_give_the_serial_losses(monkeypatch, cpus, strip, n):
    configs = _battery(n)
    serial = simulate_shared(configs)
    if strip is not None:
        monkeypatch.setattr(sim, "_STRIP_ROWS", strip)
    forks = _fork_for_any_work(monkeypatch, cpus)
    forked = simulate_shared(configs)
    assert len(forks) == cpus - 1
    _assert_no_child_left()
    for one, other, config in zip(serial, forked, configs):
        assert np.array_equal(one.values, other.values), config


def test_workers_never_outnumber_the_blocks(monkeypatch):
    # workers take whole blocks: 300 replicates are 2 blocks, so three
    # usable CPUs fork one worker, not two with one of them idle
    configs = _battery(9, replicates=300)
    serial = simulate_shared(configs)
    forks = _fork_for_any_work(monkeypatch)
    forked = simulate_shared(configs)
    assert len(forks) == 1
    _assert_no_child_left()
    for one, other, config in zip(serial, forked, configs):
        assert np.array_equal(one.values, other.values), config


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
def test_a_refused_fork_leaves_its_ranges_to_the_caller(monkeypatch, forked):
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
    # to their parent's next pass, where they stop rather than draw on: each
    # child's 4 s draws of its one block of 6 passes would otherwise run on
    # for 20 s after the kill
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


@pytest.mark.parametrize("strip", [1, 7, 64])
def test_estimation_mean_is_summed_row_by_row(monkeypatch, strip):
    # an estimation keeps each replicate's mean of its n noises, summed row
    # by row in round order, so no strip size changes a bit
    monkeypatch.setattr(sim, "_STRIP_ROWS", strip)
    for n in (1, 6, 200):
        config = EstimationConfig(n=n, delta=0.2, estimator=Estimator.SAMPLE_MEAN, replicates=300, seed=2)
        losses = run_estimation(config)
        for block in range(2):
            rng = replicate_rng(2, block)
            theta = np.where(rng.integers(0, 2, size=256, dtype=np.int8) == 1, 0.2, -0.2)
            total = np.zeros(256)
            for row in rng.standard_normal((n, 256)):
                total += row
            want = np.minimum(np.abs(theta + total / n - theta), 0.4)
            assert np.array_equal(losses[256 * block : 256 * (block + 1)], want[: 300 - 256 * block]), (n, block)


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
# the simulated ones under the philox-seed-block-v2 streams
_PINNED_OUTPUTS = {
    "verify-csv": (
        ["verify", "--replicates", "5000", "--seed", "1"],
        "ffcc260a7b744d1dd8938170a2310998ff2774e42eefab0dc4ade3d6c24abcf1",
    ),
    "verify-json": (
        ["verify", "--replicates", "2000", "--seed", "1", "--format", "json"],
        "e9dc08d5b455c26bd2cbd9b31d05206b616cbc06bfe976c5968f14d8c3b9d140",
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
        "5c72cdb0e6cf52b93d104ddd12fa218de272c8b007a5d87b91992bf88da26708",
    ),
    "simulate-estimation": (
        ["simulate", "--n", "100", "--delta", "optimal", "--estimator", "sign_commit",
         "--replicates", "2000", "--seed", "3", *_TAILS, "--format", "json"],
        "eab7eca1c0956dfa24a39d9aa9b32f47c6ca9d248fd41f24028971c00030fb95",
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
