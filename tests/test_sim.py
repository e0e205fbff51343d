import hashlib
import math

import numpy as np
import pytest
from oracles import _reference_rollout, mc_transcript_kl

from cvarbounds import sim
from cvarbounds.bounds import optimal_gap
from cvarbounds.cli import main as cli_main
from cvarbounds.errors import DomainError
from cvarbounds.experiments import parse_policy
from cvarbounds.risk import RiskLevel, exact_cvar
from cvarbounds.sim import (
    BanditConfig,
    EstimationConfig,
    Estimator,
    ExploreThenCommit,
    ThompsonGaussian,
    UCB,
    UniformRandom,
    _predraw,
    _predraw_estimation,
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


def _bandit(config):
    """The losses of every replicate, drawn at once."""
    return run_bandit(config, _predraw(config, range(config.replicates)))


def _estimation(config):
    """The losses of every replicate, drawn at once."""
    return run_estimation(config, _predraw_estimation(config, range(config.replicates)))


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
        draws = _predraw(config, range(250))
        n1 = sim._rollout(policy, 30, (0.3,), draws.model, draws.own, draws.noise)[0]
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
    draws = _predraw(config, range(config.replicates))
    actions = _reference_rollout(config, draws.model, draws.own, draws.noise)
    n1 = sim._rollout(config.policy, config.horizon, (config.gap,), draws.model, draws.own, draws.noise)[0]
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
        draws = _predraw(base, range(30))
        for gap in (0.1, 0.35, 2.0):
            cfg = BanditConfig(horizon=12, gap=gap, policy=policy, replicates=30, seed=8)
            alone = _bandit(cfg)
            assert np.array_equal(run_bandit(cfg, draws), alone), policy.name
            part = run_bandit(cfg, _predraw(cfg, range(11, 23)))
            assert np.array_equal(part, alone[11:23])
    for estimator in Estimator:
        draws = _predraw_estimation(
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
        draws = _predraw(rows[0], range(reps))
        counts = sim._rollout(policy, horizon, gaps, draws.model, draws.own, draws.noise)
        for config, n1 in zip(rows, counts):
            actions = _reference_rollout(config, draws.model, draws.own, draws.noise)
            losses = _reference_losses(config, draws.model, actions)
            assert np.array_equal(n1, (actions == 1).sum(axis=1)), config
            assert np.array_equal(run_bandit(config, draws), losses), config
            expected.append(losses)
    # drawn in chunks with a shorter last one, all rows in one call
    monkeypatch.setattr(sim, "_PREDRAW_BUDGET_BYTES", 50 * horizon * 24)
    assert len(sim._replicate_chunks(configs[-1])) >= 3  # Thompson's
    assert len(sim._replicate_chunks(configs[0])) >= 2  # the uniform policy's
    for sample, config, losses in zip(simulate_shared(configs), configs, expected):
        assert np.array_equal(sample.values, np.sort(losses, kind="stable")[::-1]), config


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
    # configs of every draw layout, interleaved in one call: each sample
    # equals simulating its config alone, and each layout is drawn once
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
    ]
    alone = [simulate_shared([config])[0] for config in configs]
    predraws = []
    for name in ("_predraw", "_predraw_estimation"):
        original = getattr(sim, name)

        def counted(config, replicates, original=original):
            predraws.append(config)
            return original(config, replicates)

        monkeypatch.setattr(sim, name, counted)
    shared = simulate_shared(configs)
    assert len(predraws) == 7
    # the largest predraw per replicate (Thompson) is drawn first
    assert isinstance(predraws[0].policy, ThompsonGaussian)
    for one, many, config in zip(alone, shared, configs):
        assert np.array_equal(one.values, many.values), config
    assert simulate_shared([]) == []


def test_run_bandit_rejects_draws_of_another_layout():
    uniform = _predraw(BanditConfig(horizon=6, gap=0.2, policy=UniformRandom(), replicates=4, seed=0), range(4))
    plain = _predraw(BanditConfig(horizon=6, gap=0.2, policy=UCB(), replicates=4, seed=0), range(4))
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
    est_draws = _predraw_estimation(EstimationConfig(**est), range(4))
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


_SWEEP = ["--alpha", "0", "--alpha", "0.5", "--alpha", "0.9", "--scale", "0.5", "--scale", "1", "--scale", "2"]
_TAILS = ["--alpha", "0", "--alpha", "0.9"]

# sha256 of each command's report; every output kind is pinned, so a change
# to drawing, row building or the bound closed forms must keep every byte
_PINNED_OUTPUTS = {
    "verify-csv": (
        ["verify", "--replicates", "5000", "--seed", "1"],
        "05291fc6a6d829ff8da59be876cc1e5a28f2fa3aa71b6fedb270bb240c41fbe2",
    ),
    "verify-json": (
        ["verify", "--replicates", "2000", "--seed", "1", "--format", "json"],
        "82db853d55bb10896deabf75f07bed37c92d1cdd393f2c6d55b5fad2342eff28",
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
        "7b4e64cdc0c33b7fa6f93c43bc10afd6c4c517409f40c428dfdb8214e573a605",
    ),
    "simulate-estimation": (
        ["simulate", "--n", "100", "--delta", "optimal", "--estimator", "sign_commit",
         "--replicates", "2000", "--seed", "3", *_TAILS, "--format", "json"],
        "74dd13086344df8bbb6bbf8c996ebf635046f42bce97a900ac885e0854ed8a7e",
    ),
    "psi": (
        ["psi", "--alpha", "0", "--alpha", "0.5", "--format", "json"],
        "618a97ea6d5cfbcdec66315c0dcc7391b6a73df3d83c2ac1ede64155f9c288d1",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_OUTPUTS))
def test_output_hash_is_pinned(name, tmp_path):
    argv, digest = _PINNED_OUTPUTS[name]
    out = tmp_path / "report"
    assert cli_main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
