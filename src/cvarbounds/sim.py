"""Monte Carlo sampling of prior-predictive losses, plus exact-law oracles.

Two problem families:

* mean estimation: theta is drawn uniformly from {-delta, +delta}, n
  unit-variance Gaussians are observed, and the loss is the clipped error
  min(|theta_hat - theta|, 2 delta);
* two-armed bandit: the model index is drawn uniformly from {1, 2}, arm
  means are (+g/2, -g/2) under model 1 and flipped under model 2, rewards
  are unit-variance Gaussian, and the loss is the realized pseudo-regret
  g * (pulls of the suboptimal arm).

Randomness contract: replicate r of a run with master seed s draws
everything from a Philox stream keyed by (s, r).  Per replicate the stream
is consumed in a fixed order (model draw, then any policy draws, then the
reward/observation noise), so results are independent of batch size and the
first replicates of a longer run reproduce a shorter one bit for bit.  The
rollout runs round by round in lockstep over replicates x gaps: a policy's
rows at every gap are one pass.  Explore-then-commit needs only its 2 tau
exploration rounds, since their two sums decide its commit, and the
uniform policy needs none, since its actions are its arm draws.

The draws do not depend on the gap, separation or estimator.
`simulate_shared` takes any list of configs, groups those whose draws
coincide, makes each group's draws once and runs every config of the group
on them, rolling out each policy once over all its gaps.  A simulation
keeps only each replicate's loss: a rollout yields arm-1 pull counts, which
give the regret, and no transcript is recorded.  A verification battery
draws once per kind of draw a policy makes for itself (the uniform policy's
arms, Thompson's posterior normals, and none for explore-then-commit and
UCB, which share one draw) and once for all its estimation rows.  Draws are
made in chunks of consecutive replicates whose predraw fits a fixed byte
budget, so memory stays bounded for any horizon and replicate count; the
group with the largest predraw per replicate is drawn first, before any
losses are held.  Every stream comes from one Philox generator re-keyed in
place to (s, r) for each replicate (`replicate_rng` with `reuse`); the
per-replicate contract above is unchanged.

`exact_loss_law` gives a config's loss law in closed form where one is
known: the uniform policy up to a horizon cap, the sign-commit estimator and
the always-zero estimator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterator, Mapping, NamedTuple, Sequence, Union, get_args

import numpy as np

from .errors import DomainError
from .risk import DiscreteLossDistribution, SampleSet

__all__ = [
    "Estimator",
    "UniformRandom",
    "ExploreThenCommit",
    "UCB",
    "ThompsonGaussian",
    "Policy",
    "EstimationConfig",
    "BanditConfig",
    "replicate_rng",
    "resolve_tau",
    "run_estimation",
    "run_bandit",
    "simulate_shared",
    "normal_upper_tail",
    "exact_loss_law",
    "exact_uniform_bandit_law",
    "exact_sign_estimator_law",
]

_MAX_EXACT_HORIZON = 64
_SEED_LIMIT = 2**64

# predrawn values held at once; bandit and estimation draws are made in
# chunks of consecutive replicates that fit it (the largest predraw of the
# 1000-replicate, T = 200 verify battery, Thompson's 4.8 MB, is one chunk)
_PREDRAW_BUDGET_BYTES = 128 * 2**20


class Estimator(Enum):
    SAMPLE_MEAN = "sample_mean"
    SIGN_COMMIT = "sign_commit"
    ALWAYS_ZERO = "always_zero"


@dataclass(frozen=True)
class UniformRandom:
    """Pick each arm with probability 1/2, independently every round."""

    name: ClassVar[str] = "uniform"


@dataclass(frozen=True)
class ExploreThenCommit:
    """Pull arm 1 for tau rounds, arm 2 for tau rounds, then commit to the
    empirical best (ties go to arm 1).  tau = None resolves to
    ceil(T^(2/3)) clipped into [1, T // 2]."""

    name: ClassVar[str] = "etc"
    tau: int | None = None


@dataclass(frozen=True)
class UCB:
    """Each arm once, then argmax of mean + c_explore sqrt(2 ln t / pulls),
    with t the 1-based round index; ties go to arm 1."""

    name: ClassVar[str] = "ucb"
    c_explore: float = 1.0


@dataclass(frozen=True)
class ThompsonGaussian:
    """Draw each arm mean from its conjugate posterior under a standard
    normal prior and unit observation variance; pull the argmax."""

    name: ClassVar[str] = "thompson"


# the policy registry: parse_policy, the CLI's choices and BanditConfig read it
Policy = Union[UniformRandom, ExploreThenCommit, UCB, ThompsonGaussian]


# what a policy draws for itself in a replicate, after the model draw and
# before the reward noise: (bytes per round, draw(rng, T) of all T rounds);
# explore-then-commit and UCB draw nothing of their own
_OWN_DRAWS = {
    UniformRandom: (1, lambda rng, horizon: rng.integers(1, 3, size=horizon, dtype=np.int8)),
    ThompsonGaussian: (16, lambda rng, horizon: rng.standard_normal((horizon, 2))),
}
_NO_OWN_DRAWS = (0, None)


def _is_int(value: object) -> bool:
    """A Python int; floats, strings, bools and numpy integers are refused
    rather than coerced (a numpy integer would reach problem_params, which
    JSON cannot render)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """A real number; strings, None and bools are refused.  Floats are
    tested first, because the numbers.Real test is several times slower."""
    return isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def _count_problem(value: object) -> str | None:
    return None if _is_int(value) and value >= 1 else "must be an int >= 1"


def _seed_problem(value: object) -> str | None:
    return None if _is_int(value) and 0 <= value < _SEED_LIMIT else "must be an unsigned 64-bit int"


def _positive_problem(value: object) -> str | None:
    return None if _is_real(value) and 0.0 < value < math.inf else "must be a finite real > 0"


# what a value of each field the experiment and sim configs share must be:
# the reason a value is refused, or None; every reader of these fields
# checks them here
_FIELD_PROBLEMS = {
    "n": _count_problem,
    "horizon": _count_problem,
    "replicates": _count_problem,
    "seed": _seed_problem,
    "delta": _positive_problem,
    "gap": _positive_problem,
}


def _field_problems(values: Mapping[str, object]) -> dict[str, str]:
    """Why each value `_FIELD_PROBLEMS` refuses is refused, by field name;
    names it does not hold are passed over."""
    problems = {}
    for name, value in values.items():
        check = _FIELD_PROBLEMS.get(name)
        why = check(value) if check else None
        if why:
            problems[name] = f"{why}, got {value!r}"
    return problems


def _check_fields(values: Mapping[str, object], **variant_problems: str | None) -> None:
    """Raise one ValueError naming every value `_FIELD_PROBLEMS` refuses and
    every variant given a problem."""
    problems = _field_problems(values)
    for name, why in variant_problems.items():
        if why:
            problems[name] = why
    if problems:
        raise ValueError("; ".join(f"{name}: {why}" for name, why in problems.items()))


def resolve_tau(policy: ExploreThenCommit, horizon: int) -> int:
    """Per-arm exploration length, defaulting to ceil(T^(2/3)) clipped into
    [1, T // 2].  Explicit values must satisfy 1 <= tau <= T/2."""
    tau = policy.tau
    if tau is not None:
        if not _is_int(tau):
            raise ValueError(f"tau must be an int, got {tau!r}")
        if tau < 1 or 2 * tau > horizon:
            raise ValueError(f"tau must satisfy 1 <= tau <= T/2, got tau={tau} for T={horizon}")
        return tau
    if horizon < 2:
        raise ValueError(f"explore-then-commit needs horizon >= 2, got {horizon}")
    return max(1, min(math.ceil(horizon ** (2.0 / 3.0)), horizon // 2))


def _policy_problem(policy: object, horizon: object) -> str | None:
    """Why the policy cannot run at this horizon, or None: it is not a
    policy, its UCB constant is not a finite real >= 0 (NaN would lose every
    index comparison), or its explore-then-commit tau does not fit the
    horizon.  The tau is checked only at a horizon `_FIELD_PROBLEMS` takes."""
    if not isinstance(policy, get_args(Policy)):
        return f"must be a policy, got {policy!r}"
    if isinstance(policy, UCB) and not (_is_real(policy.c_explore) and 0.0 <= policy.c_explore < math.inf):
        return f"c_explore must be a finite real >= 0, got {policy.c_explore!r}"
    if isinstance(policy, ExploreThenCommit) and _FIELD_PROBLEMS["horizon"](horizon) is None:
        try:
            resolve_tau(policy, horizon)
        except ValueError as exc:
            return str(exc)
    return None


def _estimator_problem(estimator: object) -> str | None:
    """Why the value is not an estimator, or None."""
    return None if isinstance(estimator, Estimator) else f"must be an Estimator, got {estimator!r}"


@dataclass(frozen=True)
class EstimationConfig:
    n: int
    delta: float
    estimator: Estimator
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        _check_fields(vars(self), estimator=_estimator_problem(self.estimator))
        object.__setattr__(self, "delta", float(self.delta))


@dataclass(frozen=True)
class BanditConfig:
    horizon: int
    gap: float
    policy: Policy
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        _check_fields(vars(self), policy=_policy_problem(self.policy, self.horizon))
        object.__setattr__(self, "gap", float(self.gap))


def replicate_rng(
    seed: int, replicate: int, reuse: np.random.Generator | None = None
) -> np.random.Generator:
    """Counter-based stream for one replicate, keyed by (master seed, index);
    streams for different keys are statistically independent and order free.

    With `reuse`, a generator returned by an earlier call, that generator is
    re-keyed in place (counter 0, nothing buffered) and returned: the same
    stream as a fresh one, without building a Philox, whose constructor also
    reads os.urandom.

    Both parts of the key must be ints in [0, 2**64); anything else raises
    ValueError rather than being truncated into another replicate's key.
    """
    if not (_is_int(seed) and _is_int(replicate) and 0 <= seed < _SEED_LIMIT and 0 <= replicate < _SEED_LIMIT):
        raise ValueError(f"seed and replicate must be unsigned 64-bit ints, got {seed!r} and {replicate!r}")
    key = [seed, replicate]
    if reuse is None:
        return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


def _replicate_bytes(config: BanditConfig | EstimationConfig) -> int:
    """Bytes predrawn per replicate: T times the bytes drawn per round for a
    bandit, the sign and noise mean for an estimation."""
    if isinstance(config, EstimationConfig):
        return 1 + 8
    own_bytes, _ = _OWN_DRAWS.get(type(config.policy), _NO_OWN_DRAWS)
    return config.horizon * (8 + own_bytes)


def _replicate_chunks(config: BanditConfig | EstimationConfig) -> list[range]:
    """Consecutive replicate ranges whose predraw fits _PREDRAW_BUDGET_BYTES."""
    size = max(1, _PREDRAW_BUDGET_BYTES // _replicate_bytes(config))
    reps = config.replicates
    return [range(start, min(start + size, reps)) for start in range(0, reps, size)]


def _chunk_draws(config: BanditConfig | EstimationConfig) -> Iterator[BanditDraws | EstimationDraws]:
    """The config's predrawn values, one chunk of replicates at a time."""
    predraw = _predraw_estimation if isinstance(config, EstimationConfig) else _predraw
    for chunk in _replicate_chunks(config):
        yield predraw(config, chunk)


# ---------------------------------------------------------------- estimation


class EstimationDraws(NamedTuple):
    """Predrawn stream values of consecutive estimation replicates."""

    positive: np.ndarray  # sign draw: theta is +delta where True
    noise_mean: np.ndarray  # mean of the n observation noises
    layout: tuple  # the `_draw_layout` they were drawn for


def _predraw_estimation(config: EstimationConfig, replicates: range) -> EstimationDraws:
    """Consume each replicate's stream in the documented order: one integer
    for the sign of theta, then the n standard normal observation noises
    (observations are theta + noise), kept as their mean.  Neither depends
    on delta or the estimator."""
    positive = np.empty(len(replicates), dtype=bool)
    noise_mean = np.empty(len(replicates))
    rng = None
    for i, r in enumerate(replicates):
        rng = replicate_rng(config.seed, r, rng)
        positive[i] = rng.integers(0, 2) == 1
        noise_mean[i] = rng.standard_normal(config.n).mean()
    return EstimationDraws(positive, noise_mean, _draw_layout(config))


def run_estimation(config: EstimationConfig, draws: EstimationDraws) -> np.ndarray:
    """(reps,) losses of the configured estimator on the replicates `draws`
    hold; `draws` come from `_predraw_estimation` for a config of this one's
    draw layout."""
    _check_layout(config, draws)
    delta = config.delta
    theta = np.where(draws.positive, delta, -delta)
    ybar = theta + draws.noise_mean
    if config.estimator is Estimator.SAMPLE_MEAN:
        theta_hat = ybar
    elif config.estimator is Estimator.SIGN_COMMIT:
        # sign(0) resolves to +1
        theta_hat = np.where(ybar >= 0.0, delta, -delta)
    else:
        theta_hat = np.zeros(theta.size)
    return np.minimum(np.abs(theta_hat - theta), 2.0 * delta)


# -------------------------------------------------------------------- bandit


class BanditDraws(NamedTuple):
    """Predrawn stream values of consecutive bandit replicates."""

    model: np.ndarray  # model index in {1, 2}
    own: np.ndarray | None  # the policy's own draws per replicate, if it makes any
    noise: np.ndarray  # (reps, T) reward noises
    layout: tuple  # the `_draw_layout` they were drawn for


def _predraw(config: BanditConfig, replicates: range) -> BanditDraws:
    """Consume each replicate's stream up front, in the documented order.
    The draws depend on the seed, horizon and the policy's own draws, not
    the gap."""
    reps, horizon = len(replicates), config.horizon
    model = np.empty(reps, dtype=np.int64)
    noise = np.empty((reps, horizon))
    _, own_draw = _OWN_DRAWS.get(type(config.policy), _NO_OWN_DRAWS)
    own = None
    rng = None
    for i, r in enumerate(replicates):
        rng = replicate_rng(config.seed, r, rng)
        model[i] = 1 + int(rng.integers(0, 2))
        if own_draw is not None:
            values = own_draw(rng, horizon)
            if own is None:
                own = np.empty((reps, *values.shape), dtype=values.dtype)
            own[i] = values
        noise[i] = rng.standard_normal(horizon)
    return BanditDraws(model, own, noise, _draw_layout(config))


def _rollout(policy: Policy, horizon: int, gaps, model, own, noise) -> np.ndarray:
    """Arm-1 pull counts, shaped (k, reps), of the replicates rolled out at
    each of the k gaps, each replicate under its drawn model.

    The rollout runs in lockstep over replicates x gaps, one round at a
    time: the state arrays are (k, reps) and each round's (reps,) noise and
    Thompson normals broadcast across the gaps, so every element sees the
    float operations of a rollout at its gap alone.  Explore-then-commit runs
    only its 2 tau exploration rounds, since the sums they leave decide its
    commit.  The uniform policy's actions are its own arm draws, whatever the
    gap, so its counts need no rollout.
    """
    k, reps = len(gaps), model.size
    if isinstance(policy, UniformRandom):
        return np.broadcast_to((own == 1).sum(axis=1), (k, reps))
    half = 0.5 * np.asarray(gaps, dtype=float)[:, None]
    mu1 = np.where(model == 1, half, -half)  # arm 1's mean
    mu2 = -mu1
    s1 = np.zeros((k, reps))
    s2 = np.zeros((k, reps))
    if isinstance(policy, ExploreThenCommit):
        tau = resolve_tau(policy, horizon)
        for t in range(tau):
            s1 += mu1 + noise[:, t]
        for t in range(tau, 2 * tau):
            s2 += mu2 + noise[:, t]
        # equal exploration counts, so compare sums; ties -> arm 1
        commit1 = s1 >= s2
        return tau + (horizon - 2 * tau) * commit1
    n1 = np.zeros((k, reps))  # counts held as floats, exact up to 2**53
    for t in range(horizon):
        n2 = t - n1
        if isinstance(policy, ThompsonGaussian):
            d1 = n1 + 1.0
            d2 = n2 + 1.0
            on1 = s1 / d1 + own[:, t, 0] / np.sqrt(d1) >= s2 / d2 + own[:, t, 1] / np.sqrt(d2)
        elif t < 2:
            on1 = np.full((k, reps), t == 0)
        else:
            radius = policy.c_explore * math.sqrt(2.0 * math.log(t + 1))
            on1 = s1 / n1 + radius / np.sqrt(n1) >= s2 / n2 + radius / np.sqrt(n2)
        y = np.where(on1, mu1, mu2) + noise[:, t]
        n1 += on1
        s1 += np.where(on1, y, 0.0)
        s2 += np.where(on1, 0.0, y)
    return n1.astype(np.int64)


def _regret(gaps, horizon: int, model, n1) -> np.ndarray:
    """(k, reps) realized pseudo-regret from `_rollout`'s arm-1 pull counts."""
    g = np.asarray(gaps, dtype=float)[:, None]
    return np.where(model == 1, g * (horizon - n1), g * n1)


def run_bandit(config: BanditConfig, draws: BanditDraws) -> np.ndarray:
    """(reps,) losses of the replicates `draws` hold, each rolled out under
    its drawn model; `draws` come from `_predraw` for a config of this one's
    draw layout."""
    _check_layout(config, draws)
    gaps = (config.gap,)
    n1 = _rollout(config.policy, config.horizon, gaps, draws.model, draws.own, draws.noise)
    return _regret(gaps, config.horizon, draws.model, n1)[0]


# ------------------------------------------------------------ shared draws


def _draw_layout(config: BanditConfig | EstimationConfig) -> tuple:
    """What a config's draws depend on; configs that agree share them."""
    if isinstance(config, EstimationConfig):
        return ("estimation", config.seed, config.replicates, config.n)
    own = _OWN_DRAWS.get(type(config.policy), _NO_OWN_DRAWS)
    return ("bandit", config.seed, config.replicates, config.horizon, own)


def _check_layout(config: BanditConfig | EstimationConfig, draws: BanditDraws | EstimationDraws) -> None:
    if draws.layout != _draw_layout(config):
        raise ValueError(
            "draws do not match the config's seed, replicates, problem size and the policy's own draws"
        )


def _chunk_losses(configs: Sequence[BanditConfig | EstimationConfig], draws) -> list[np.ndarray]:
    """Losses of configs of one draw layout on one chunk of its draws.  The
    bandit configs of one policy are rolled out together, in one lockstep
    pass over their distinct gaps."""
    if isinstance(draws, EstimationDraws):
        return [run_estimation(config, draws) for config in configs]
    by_policy: dict[Policy, list[int]] = {}
    for j, config in enumerate(configs):
        by_policy.setdefault(config.policy, []).append(j)
    losses: list[np.ndarray | None] = [None] * len(configs)
    horizon = configs[0].horizon
    for policy, rows in by_policy.items():
        gaps, row_gap = np.unique([configs[j].gap for j in rows], return_inverse=True)
        n1 = _rollout(policy, horizon, gaps, draws.model, draws.own, draws.noise)
        regret = _regret(gaps, horizon, draws.model, n1)
        for j, g in zip(rows, row_gap):
            losses[j] = regret[g]
    return losses


def simulate_shared(configs: Sequence[BanditConfig | EstimationConfig]) -> list[SampleSet]:
    """Loss samples of the configs, in their order.

    Configs whose draws coincide (the same seed and replicate count, and the
    same horizon and own draws of the policy for a bandit or the same n for
    an estimation) form one group.  Each chunk of a group's replicates is drawn
    once and run for every config of the group, one rollout per policy over
    all its gaps, and the losses are joined per config; every sample equals
    that of simulating its config alone.  The group with the largest predraw
    per replicate is drawn first, while no losses are held.
    """
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(_draw_layout(config), []).append(i)
    samples: list[SampleSet | None] = [None] * len(configs)
    for members in sorted(groups.values(), key=lambda m: _replicate_bytes(configs[m[0]]), reverse=True):
        group = [configs[i] for i in members]
        parts: list[list[np.ndarray]] = [[] for _ in members]
        for draws in _chunk_draws(group[0]):
            for part, losses in zip(parts, _chunk_losses(group, draws)):
                part.append(losses)
            del draws  # release this chunk before drawing the next
        for part, config, i in zip(parts, group, members):
            samples[i] = SampleSet(np.concatenate(part))
    return samples


# --------------------------------------------------------------- exact laws


def normal_upper_tail(x: float) -> float:
    """P(Z > x) for standard normal Z, via the complementary error function."""
    return 0.5 * math.erfc(float(x) / math.sqrt(2.0))


def exact_uniform_bandit_law(g: float, horizon: int) -> DiscreteLossDistribution:
    """Exact regret law of the uniform-random policy: g * Binomial(T, 1/2).

    Under either model the suboptimal arm is pulled Binomial(T, 1/2) times.
    Weights are exact integers divided by 2^T (one correctly rounded float
    division per atom); horizons above 64 raise DomainError rather than
    silently losing precision.
    """
    _check_fields({"horizon": horizon, "gap": g})
    if horizon > _MAX_EXACT_HORIZON:
        raise DomainError(
            f"exact uniform-policy law supports horizons up to {_MAX_EXACT_HORIZON}, got {horizon}"
        )
    g = float(g)
    denom = 1 << horizon
    atoms = tuple((g * k, math.comb(horizon, k) / denom) for k in range(horizon + 1))
    return DiscreteLossDistribution(atoms)


def exact_sign_estimator_law(n: int, delta: float) -> DiscreteLossDistribution:
    """Exact loss law of the sign-commit estimator: loss 0 with probability
    1 - p and 2 delta with p = P(Z > sqrt(n) delta), by symmetry of the two
    mean hypotheses."""
    _check_fields({"n": n, "delta": delta})
    delta = float(delta)
    p = normal_upper_tail(math.sqrt(n) * delta)
    return DiscreteLossDistribution(((0.0, 1.0 - p), (2.0 * delta, p)))


def exact_loss_law(config: BanditConfig | EstimationConfig) -> DiscreteLossDistribution | None:
    """The config's loss law in closed form, or None where none is known.

    Known laws: the uniform policy up to horizon _MAX_EXACT_HORIZON, the
    sign-commit estimator, and the always-zero estimator.
    """
    if isinstance(config, BanditConfig):
        if isinstance(config.policy, UniformRandom) and config.horizon <= _MAX_EXACT_HORIZON:
            return exact_uniform_bandit_law(config.gap, config.horizon)
        return None
    if config.estimator is Estimator.SIGN_COMMIT:
        return exact_sign_estimator_law(config.n, config.delta)
    if config.estimator is Estimator.ALWAYS_ZERO:
        # |0 - theta| = delta under either sign, with certainty
        return DiscreteLossDistribution(((config.delta, 1.0),))
    return None
