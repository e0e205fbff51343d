import hashlib
import math
import tracemalloc

import numpy as np
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


def _own_draws(config, replicates):
    """The config's draws alone, of its one-member family."""
    (family,) = sim._families([config])
    return sim._draw(family, replicates)


def _bandit(config):
    """The losses of every replicate, drawn at once."""
    return run_bandit(config, _own_draws(config, range(config.replicates)))


def _estimation(config):
    """The losses of every replicate, drawn at once."""
    return run_estimation(config, _own_draws(config, range(config.replicates)))


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


def _stream_sample(rng):
    # one draw of every kind the simulations consume, in a fixed order
    return (
        rng.integers(0, 2),
        rng.standard_normal(5),
        rng.integers(1, 3, size=7, dtype=np.int8),
        rng.standard_normal((3, 2)),
        rng.integers(0, 2),
    )


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_rekeyed_stream_matches_fresh(seed):
    reuse = replicate_rng(seed, 0)
    for r in (0, 1, 7, 10**12, 2**64 - 1):
        # integers(0, 2) leaves half of a 64-bit draw buffered for the next
        # 32-bit draw; re-keying must drop it
        reuse.integers(0, 2)
        assert reuse.bit_generator.state["has_uint32"] == 1
        assert replicate_rng(seed, r, reuse) is reuse
        for a, b in zip(_stream_sample(reuse), _stream_sample(replicate_rng(seed, r))):
            assert np.array_equal(a, b), (seed, r)
    for key in ((2**64, 0), (seed, 1.5), (seed, True), (seed, -1), (seed, 2**64)):
        with pytest.raises(ValueError):
            replicate_rng(*key, reuse)


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
    # replicate r: one integer for the sign, then n observation noises
    kw = dict(n=3, delta=0.5, replicates=6, seed=9)
    losses = {estimator: _estimation(EstimationConfig(estimator=estimator, **kw)) for estimator in Estimator}
    for r in range(6):
        rng = replicate_rng(9, r)
        theta = 0.5 if rng.integers(0, 2) == 1 else -0.5
        ybar = theta + rng.standard_normal(3).mean()
        sign = 0.5 if ybar >= 0.0 else -0.5
        assert losses[Estimator.SAMPLE_MEAN][r] == min(abs(ybar - theta), 1.0)
        assert losses[Estimator.SIGN_COMMIT][r] == abs(sign - theta)
        assert losses[Estimator.ALWAYS_ZERO][r] == 0.5


def test_estimation_prefix_stable():
    kw = dict(n=4, delta=0.2, estimator=Estimator.SAMPLE_MEAN, seed=3)
    short = _estimation(EstimationConfig(replicates=10, **kw))
    long = _estimation(EstimationConfig(replicates=25, **kw))
    assert np.array_equal(short, long[:10])


def test_estimator_behaviors():
    kw = dict(n=4, delta=0.25, replicates=400, seed=10)
    zero = _estimation(EstimationConfig(estimator=Estimator.ALWAYS_ZERO, **kw))
    assert np.all(zero == 0.25)  # |0 - theta| = delta, never clipped
    sign = _estimation(EstimationConfig(estimator=Estimator.SIGN_COMMIT, **kw))
    assert set(np.unique(sign)) == {0.0, 0.5}
    mean = _estimation(EstimationConfig(estimator=Estimator.SAMPLE_MEAN, **kw))
    assert np.all((mean >= 0.0) & (mean <= 0.5))


def test_sign_commit_matches_exact_law():
    n, delta, reps = 4, 1.0 / 12.0, 20_000
    law = exact_sign_estimator_law(n, delta)
    p = dict(law.atoms)[2.0 * delta]
    assert p == pytest.approx(normal_upper_tail(math.sqrt(n) * delta), rel=1e-15)
    losses = _estimation(
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
    for policy in ALL_POLICIES:
        kw = dict(horizon=40, gap=0.15, policy=policy, seed=12)
        one = _bandit(BanditConfig(replicates=15, **kw))
        two = _bandit(BanditConfig(replicates=15, **kw))
        longer = _bandit(BanditConfig(replicates=40, **kw))
        assert np.array_equal(one, two)
        assert np.array_equal(one, longer[:15]), policy.name


def test_bandit_pair_identity():
    # arm-1 pulls lie in [0, T] and regrets under the two models sum to g*T, per replicate
    for policy in ALL_POLICIES:
        config = BanditConfig(horizon=30, gap=0.3, policy=policy, replicates=250, seed=3)
        draws = _own_draws(config, range(250))
        n1 = sim._rollout(policy, 30, (0.3,), draws.model, *sim._reads(config, draws))[0]
        n2 = 30 - n1
        assert np.all((n1 >= 0) & (n2 >= 0))
        # model 1's suboptimal arm is arm 2, model 2's is arm 1
        regret_1, regret_2 = 0.3 * n2, 0.3 * n1
        assert np.allclose(regret_1 + regret_2, 0.3 * 30, rtol=1e-12, atol=0.0)
        losses = run_bandit(config, draws)
        assert np.array_equal(losses, np.where(draws.model == 1, regret_1, regret_2))
        assert np.all((losses >= 0.0) & (losses <= 0.3 * 30))


def _oracle_and_counts(config):
    """The round-loop oracle's (reps, T) actions and the rollout's arm-1
    counts on every replicate of the config."""
    draws, own, noise = transcript_draws(config, range(config.replicates))
    actions = _reference_rollout(config, draws.model, own, noise)
    n1 = sim._rollout(config.policy, config.horizon, (config.gap,), draws.model, own, noise)[0]
    return actions, n1


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
    want = _bandit(BanditConfig(10, 0.1, UCB(c_explore=3e38), 5, 0))
    assert np.array_equal(_bandit(config), want)


def test_uniform_matches_exact_law():
    g, T, reps = 1.0, 8, 20_000
    law = exact_uniform_bandit_law(g, T)
    losses = _bandit(BanditConfig(horizon=T, gap=g, policy=UniformRandom(), replicates=reps, seed=11))
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
    # replicate r: model integer, T arm draws, then T reward noises
    cfg = BanditConfig(horizon=6, gap=0.7, policy=UniformRandom(), replicates=5, seed=21)
    losses = _bandit(cfg)
    for r in range(5):
        rng = replicate_rng(21, r)
        model = 1 + int(rng.integers(0, 2))
        arms = rng.integers(1, 3, size=6, dtype=np.int8)
        n2 = int((arms == 2).sum())
        want = 0.7 * n2 if model == 1 else 0.7 * (6 - n2)
        assert losses[r] == pytest.approx(want, abs=0.0)


def test_uniform_draw_keeps_counts_not_arm_draws():
    # a uniform chunk keeps each replicate's arm-1 pull count, not its T arm
    # draws, so it peaks near one replicate's arm draws, not the chunk's
    reps, horizon = 4, 10**6
    config = BanditConfig(horizon=horizon, gap=0.1, policy=UniformRandom(), replicates=reps, seed=9)
    (family,) = sim._families([config])
    assert sim._replicate_bytes(family) == 8
    tracemalloc.start()
    try:
        draws = sim._draw(family, range(reps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * horizon
    for r in range(reps):
        rng = replicate_rng(9, r)
        rng.integers(0, 2)
        assert draws.pulls[r] == (rng.integers(1, 3, size=horizon, dtype=np.int8) == 1).sum()
    n1 = sim._rollout(UniformRandom(), horizon, [0.1, 0.2], draws.model, draws.pulls, None)
    assert np.array_equal(n1, np.broadcast_to(draws.pulls, (2, reps)))


def test_bandit_reconstructs_from_streams():
    # replicate r: model integer, then Thompson's 2T posterior normals, one
    # pair a round, and its T reward noises, or another policy's T noises
    horizon, reps, seed = 7, 6, 23
    configs = [
        BanditConfig(horizon=horizon, gap=0.6, policy=p, replicates=reps, seed=seed)
        for p in (ExploreThenCommit(), UCB(), ThompsonGaussian())
    ]
    for config, sample in zip(configs, simulate_shared(configs)):
        model = np.empty(reps, dtype=np.int8)
        own = np.empty((reps, horizon, 2)) if isinstance(config.policy, ThompsonGaussian) else None
        noise = np.empty((reps, horizon))
        for r in range(reps):
            rng = replicate_rng(seed, r)
            model[r] = 1 + int(rng.integers(0, 2))
            if own is not None:
                own[r] = rng.standard_normal((horizon, 2))
            noise[r] = rng.standard_normal(horizon)
        actions = _reference_rollout(config, model, own, noise)
        want = _reference_losses(config, model, actions)
        assert np.array_equal(sample.values, np.sort(want, kind="stable")[::-1]), config.policy.name


def test_simulate_bandit_sampleset():
    cfg = BanditConfig(horizon=10, gap=0.2, policy=ThompsonGaussian(), replicates=64, seed=6)
    s = simulate_shared([cfg])[0]
    assert s.count == 64
    assert np.all(np.diff(s.values) <= 0)


def test_predrawn_draws_are_shared_across_gaps():
    # the draws depend on seed, horizon and kind of policy only, so one
    # predraw serves every gap, and a chunk of it serves its replicates
    for policy in ALL_POLICIES:
        base = BanditConfig(horizon=12, gap=0.1, policy=policy, replicates=30, seed=8)
        draws = _own_draws(base, range(30))
        for gap in (0.1, 0.35, 2.0):
            cfg = BanditConfig(horizon=12, gap=gap, policy=policy, replicates=30, seed=8)
            alone = _bandit(cfg)
            assert np.array_equal(run_bandit(cfg, draws), alone), policy.name
            part = run_bandit(cfg, _own_draws(cfg, range(11, 23)))
            assert np.array_equal(part, alone[11:23])
    for estimator in Estimator:
        draws = _own_draws(
            EstimationConfig(n=5, delta=0.1, estimator=Estimator.SAMPLE_MEAN, replicates=40, seed=4), range(40)
        )
        for delta in (0.1, 0.45):
            cfg = EstimationConfig(n=5, delta=delta, estimator=estimator, replicates=40, seed=4)
            assert np.array_equal(run_estimation(cfg, draws), _estimation(cfg)), estimator


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
        draws, own, noise = transcript_draws(rows[0], range(reps))
        # the package rolls out its own reads: the uniform policy's counts
        counts = sim._rollout(policy, horizon, gaps, draws.model, sim._reads(rows[0], draws)[0], noise)
        for config, n1 in zip(rows, counts):
            actions = _reference_rollout(config, draws.model, own, noise)
            losses = _reference_losses(config, draws.model, actions)
            assert np.array_equal(n1, (actions == 1).sum(axis=1)), config
            assert np.array_equal(run_bandit(config, draws), losses), config
            expected.append(losses)
    # drawn in chunks with a shorter last one, all rows in one call: the
    # shared family keeps Thompson's 3T normals, 24T bytes a replicate, and
    # the uniform policy's one 8-byte pull count, so each family is cut
    # into several chunks at a budget of its own
    for budget, arms in ((100 * horizon, 0), (800, horizon)):
        monkeypatch.setattr(sim, "_PREDRAW_BUDGET_BYTES", budget)
        chunks = {family.arms: sim._replicate_chunks(family) for family in sim._families(configs)}[arms]
        assert len(chunks) >= 3 and len(chunks[-1]) < len(chunks[0])
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
        draws, own, noise = transcript_draws(rows[0], range(reps))
        # the package rolls out its own reads: the uniform policy's counts
        counts = sim._rollout(policy, horizon, gaps, draws.model, sim._reads(rows[0], draws)[0], noise)
        for config, n1 in zip(rows, counts):
            actions = _reference_rollout(config, draws.model, own, noise)
            assert np.array_equal(n1, (actions == 1).sum(axis=1)), config
            assert np.array_equal(run_bandit(config, draws), _reference_losses(config, draws.model, actions)), config


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
    # configs of several families and readers, interleaved in one call: each sample
    # equals simulating its config alone, and each family is drawn once
    configs = [
        BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=4, seed=0),
        EstimationConfig(n=6, delta=0.2, estimator=Estimator.SAMPLE_MEAN, replicates=4, seed=0),
        BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=4, seed=1),
        BanditConfig(horizon=6, gap=0.2, policy=ThompsonGaussian(), replicates=4, seed=0),
        # explore-then-commit and UCB settings do not change the draws
        BanditConfig(horizon=6, gap=0.9, policy=UCB(2.0), replicates=4, seed=0),
        # nor does picking one of the two: both draw nothing of their own
        BanditConfig(horizon=6, gap=0.5, policy=ExploreThenCommit(), replicates=4, seed=0),
        BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=5, seed=0),
        EstimationConfig(n=3, delta=0.2, estimator=Estimator.SIGN_COMMIT, replicates=4, seed=0),
        BanditConfig(horizon=7, gap=0.2, policy=UniformRandom(), replicates=4, seed=0),
        EstimationConfig(n=6, delta=0.7, estimator=Estimator.ALWAYS_ZERO, replicates=4, seed=0),
        # another horizon reads a prefix of the same normals
        BanditConfig(horizon=4, gap=0.2, policy=UCB(), replicates=4, seed=0),
    ]
    alone = [simulate_shared([config])[0] for config in configs]
    drawn = []
    original = sim._draw

    def counted(family, replicates):
        drawn.append(family)
        return original(family, replicates)

    monkeypatch.setattr(sim, "_draw", counted)
    shared = simulate_shared(configs)
    # seed 0 with 4 replicates, seed 1, 5 replicates, and the uniform policy
    assert len(drawn) == 4
    # the largest draw per replicate, the family of Thompson's 3T normals, is drawn first
    assert drawn[0] == (0, 4, 0, 3 * 6, (3, 6))
    assert {family.arms for family in drawn} == {0, 7}
    for one, many, config in zip(alone, shared, configs):
        assert np.array_equal(one.values, many.values), config
    assert simulate_shared([]) == []


def test_run_bandit_rejects_draws_that_do_not_hold_its_stream():
    uniform = _own_draws(BanditConfig(horizon=6, gap=0.2, policy=UniformRandom(), replicates=4, seed=0), range(4))
    plain = _own_draws(BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=4, seed=0), range(4))
    with pytest.raises(ValueError):
        run_bandit(BanditConfig(horizon=6, gap=0.2, policy=ThompsonGaussian(), replicates=4, seed=0), uniform)
    with pytest.raises(ValueError):
        run_bandit(BanditConfig(horizon=6, gap=0.2, policy=UniformRandom(), replicates=4, seed=0), plain)
    with pytest.raises(ValueError):
        run_bandit(BanditConfig(horizon=7, gap=0.2, policy=UCB(), replicates=4, seed=0), plain)
    with pytest.raises(ValueError):
        run_bandit(BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=4, seed=1), plain)
    with pytest.raises(ValueError):
        run_bandit(BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=5, seed=0), plain)
    # explore-then-commit rolls out on UCB's draws
    run_bandit(BanditConfig(horizon=6, gap=0.2, policy=ExploreThenCommit(), replicates=4, seed=0), plain)
    # an estimation refuses draws of another n, seed or replicate count
    est = dict(n=5, delta=0.2, estimator=Estimator.SAMPLE_MEAN, replicates=4, seed=0)
    est_draws = _own_draws(EstimationConfig(**est), range(4))
    for bad in (dict(n=6), dict(seed=1), dict(replicates=5), dict(replicates=3)):
        with pytest.raises(ValueError):
            run_estimation(EstimationConfig(**{**est, **bad}), est_draws)
    # but runs any estimator and separation on them
    run_estimation(EstimationConfig(**{**est, "estimator": Estimator.SIGN_COMMIT, "delta": 0.7}), est_draws)
    # and neither problem runs on the other's draws
    with pytest.raises(ValueError):
        run_estimation(EstimationConfig(**est), plain)
    with pytest.raises(ValueError):
        run_bandit(BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=4, seed=0), est_draws)


def test_run_on_draws_of_another_family_member_equals_its_own():
    # draws that hold a config's stream serve it, whoever they were drawn for
    ucb4 = BanditConfig(horizon=4, gap=0.3, policy=UCB(), replicates=5, seed=2)
    ucb6 = BanditConfig(horizon=6, gap=0.3, policy=UCB(), replicates=5, seed=2)
    thompson6 = BanditConfig(horizon=6, gap=0.3, policy=ThompsonGaussian(), replicates=5, seed=2)
    for config, other in ((ucb4, ucb6), (ucb6, thompson6)):
        draws = _own_draws(other, range(5))
        assert np.array_equal(run_bandit(config, draws), _bandit(config)), (config, other)
    estimation = EstimationConfig(n=4, delta=0.3, estimator=Estimator.SAMPLE_MEAN, replicates=5, seed=2)
    (family,) = sim._families([thompson6, estimation, ucb4])
    assert family.sizes == (4,)
    draws = sim._draw(family, range(5))
    assert np.array_equal(run_estimation(estimation, draws), _estimation(estimation))
    assert np.array_equal(run_bandit(ucb4, draws), _bandit(ucb4))


def test_estimation_predraw_keeps_one_float_per_replicate():
    # the estimation keeps the mean of its n observation noises, their
    # sufficient statistic, so its predraw does not grow with n
    for n in (1, 6, 100_000):
        config = EstimationConfig(n=n, delta=0.2, estimator=Estimator.SAMPLE_MEAN, replicates=3, seed=2)
        draws = _own_draws(config, range(3))
        own, noise = sim._reads(config, draws)
        assert own is None and noise.shape == (3,)
        assert sum(a.nbytes for a in draws[1:]) == 3 * (1 + 8)
        assert sim._replicate_bytes(draws.family) == 8
        for r in range(3):
            rng = replicate_rng(2, r)
            assert draws.model[r] == 1 + rng.integers(0, 2)
            assert noise[r] == rng.standard_normal(n).mean()



def _assert_reads_are_own_stream(config, drawn, chunk):
    """The config's reads of its family's draws equal those of its own
    family's draws, and copy none of them."""
    (own, noise), alone = sim._reads(config, drawn), _own_draws(config, chunk)
    own_alone, noise_alone = sim._reads(config, alone)
    assert np.array_equal(drawn.model, alone.model)
    assert (own is None) == (own_alone is None)
    if own is not None:
        assert np.array_equal(own, own_alone)
        assert own is drawn.pulls or np.shares_memory(own, drawn.kept)
    if isinstance(config, EstimationConfig):
        assert np.array_equal(noise, noise_alone) and np.shares_memory(noise, drawn.means)
    else:
        assert np.array_equal(noise, noise_alone)
        assert noise.size == 0 or np.shares_memory(noise, drawn.kept)
    return own, noise


def test_shared_prefixes_match_each_configs_own_stream(monkeypatch):
    horizon, reps = 8, 13  # 13 is prime, so no chunk size below it divides it
    bandits = [BanditConfig(horizon=horizon, gap=0.4, policy=p, replicates=reps, seed=5) for p in ALL_POLICIES]
    estimations = [
        EstimationConfig(n=n, delta=0.3, estimator=Estimator.SAMPLE_MEAN, replicates=reps, seed=5)
        for n in (1, horizon, 3 * horizon + 5)
    ]
    etc = bandits[1]
    tau = resolve_tau(etc.policy, horizon)
    # each family by its arm draws: (normals kept, normals drawn) a replicate
    cases = [
        # the uniform policy's family keeps its arms and no normals; every
        # other config reads one family, Thompson's 3T normals kept and the
        # estimation at n > 3T the longest run drawn
        (bandits + estimations, {horizon: (0, 0), 0: (3 * horizon, 3 * horizon + 5)}),
        # explore-then-commit alone keeps its 2 tau exploration noises
        ([etc, estimations[1]], {0: (2 * tau, horizon)}),
    ]
    for configs, widths in cases:
        families = sim._families(configs)
        assert {family.arms: (family.width, sim._longest(family)) for family in families} == widths
        for family, members in families.items():
            # chunks of 3 replicates, and a last one of 1
            monkeypatch.setattr(sim, "_PREDRAW_BUDGET_BYTES", 3 * sim._replicate_bytes(family))
            chunks = sim._replicate_chunks(family)
            assert [len(chunk) for chunk in chunks] == [3, 3, 3, 3, 1]
            for chunk in chunks:
                drawn = sim._draw(family, chunk)
                reads = {configs[i]: _assert_reads_are_own_stream(configs[i], drawn, chunk) for i in members}
                if etc in reads:
                    assert reads[etc][1].shape[1] == 2 * tau
                if bandits[3] in reads:
                    assert reads[bandits[3]][0].shape == (len(chunk), horizon, 2)


def test_reads_do_not_depend_on_the_family():
    # each config's reads cut from its own family's draws equal those cut
    # from a family shared with Thompson, UCB and estimation members: every
    # bandit but Thompson reads exactly its count of leading normals
    horizon, reps, seed = 9, 4, 3
    configs = [
        BanditConfig(horizon, 0.5, policy, reps, seed) for policy in (*ALL_POLICIES, ExploreThenCommit(tau=2))
    ]
    configs.append(EstimationConfig(5, 0.3, Estimator.SAMPLE_MEAN, reps, seed))
    (shared,) = (family for family in sim._families(configs) if family.arms == 0)
    assert shared.width == 3 * horizon and shared.sizes == (5,)
    # the uniform policy's arm draws head a family as wide as the shared one
    families = {0: shared, horizon: shared._replace(arms=horizon)}
    columns = {}
    for config in configs:
        cut = sim._reads(config, sim._draw(families[sim._read_counts(config)[0]], range(reps)))
        for mine, theirs in zip(sim._reads(config, _own_draws(config, range(reps))), cut):
            assert (mine is None) == (theirs is None), config
            assert mine is None or (mine.shape == theirs.shape and np.array_equal(mine, theirs)), config
        columns[config] = cut[1].shape[1:]
    tau = resolve_tau(ExploreThenCommit(), horizon)
    assert [columns[config] for config in configs] == [(0,), (2 * tau,), (horizon,), (horizon,), (4,), ()]


def test_stream_over_the_draw_budget_is_refused_under_its_size(monkeypatch):
    # what one replicate draws past its model draw, 1 byte an arm draw and
    # 8 a normal it reads, must fit the draw budget; checked without drawing
    def draw(*args):
        raise AssertionError("drew while checking a config")

    monkeypatch.setattr(sim, "_draw", draw)
    # bytes a round, per n for the estimation, per tau for explore-then-commit
    per_unit = [(UniformRandom(), 1), (UCB(), 8), (ThompsonGaussian(), 24), (None, 8), (ExploreThenCommit, 16)]
    for policy, unit in per_unit:
        monkeypatch.setattr(sim, "_PREDRAW_BUDGET_BYTES", 10 * unit)
        if policy is None:
            name, size, make = "n", 11, lambda n: EstimationConfig(n, 0.2, Estimator.SAMPLE_MEAN, 4, 0)
        elif policy is ExploreThenCommit:
            # its 2 tau exploration noises, whatever the horizon
            name, size, make = "horizon", 100, lambda tau: BanditConfig(100, 0.2, ExploreThenCommit(tau), 4, 0)
        else:
            name, size, make = "horizon", 11, lambda horizon: BanditConfig(horizon, 0.2, policy, 4, 0)
        make(10)
        with pytest.raises(ValueError) as exc:
            make(11)
        why = f"one replicate's stream of {11 * unit} bytes outgrows the {10 * unit}-byte draw budget, got {size}"
        assert str(exc.value) == f"{name}: {why}"


_SWEEP = ["--alpha", "0", "--alpha", "0.5", "--alpha", "0.9", "--scale", "0.5", "--scale", "1", "--scale", "2"]
_TAILS = ["--alpha", "0", "--alpha", "0.9"]

# sha256 of each command's report; every output kind is pinned, so a change
# to drawing, row building or the bound closed forms must keep every byte
_PINNED_OUTPUTS = {
    "verify-csv": (
        ["verify", "--replicates", "5000", "--seed", "1"],
        "67a154a7d9bf5e97074447030a30f410a11aeab8a1dfbd77188a41834371562f",
    ),
    "verify-json": (
        ["verify", "--replicates", "2000", "--seed", "1", "--format", "json"],
        "1b516cc79cd6e6a124f87731595c87bb0ce59d46732b1f5a83bc61663e9272b1",
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
        "29352db754cc9cce1280a20fbdf0e736787a756a758c062f6ee096d7f8489200",
    ),
    "simulate-estimation": (
        ["simulate", "--n", "100", "--delta", "optimal", "--estimator", "sign_commit",
         "--replicates", "2000", "--seed", "3", *_TAILS, "--format", "json"],
        "017aff4e5cc8242ace272c4cdbf18d3838ec829cb64eb8fff3518d49cf3a5f76",
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
    cfg = BanditConfig(horizon=50, gap=0.3, policy=UCB(), replicates=2000, seed=77)
    whole = mc_transcript_kl(cfg)
    assert mc_transcript_kl(cfg) == whole
    # drawn in chunks of 7 replicates, the figures stay the same
    monkeypatch.setattr(sim, "_PREDRAW_BUDGET_BYTES", 7 * 50 * 8)
    assert mc_transcript_kl(cfg) == whole


def test_mc_transcript_kl_needs_replicates():
    cfg = BanditConfig(horizon=50, gap=0.3, policy=UCB(), replicates=999, seed=0)
    with pytest.raises(ValueError):
        mc_transcript_kl(cfg)
