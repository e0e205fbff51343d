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
everything from a Philox stream keyed by (s, r), read in one order for both
problems: one integer for the model (the bandit's model index, the
estimation's sign of theta), then the uniform policy's T arm draws if it is
the policy, then standard normals: Thompson's 2T posterior normals, one pair
a round, followed by the T reward noises, every other bandit's T reward
noises, or the estimation's n observation noises, of which it keeps only
the mean.  So results are independent of batch size and the first
replicates of a longer run reproduce a shorter one bit for bit.  The
rollout runs round by round in lockstep over replicates x gaps: a policy's
rows at every gap are one pass.  UCB and Thompson pick each round's arm by
exact 0/1 arithmetic in a fixed workspace allocated once per rollout; their
sums are bit for bit those of `tests/oracles._reference_rollout`, which
selects each reward into one sum.  Explore-then-commit needs only its 2 tau
exploration rounds, since their two sums decide its commit, and the uniform
policy needs none: its arm-1 pull counts are taken as its arms are drawn.

The draws do not depend on the gap, separation or estimator, and a counter
based stream read further only extends what a shorter read gave: the first
m normals of a longer run are the m normals a shorter one draws.  So every
config of one seed and replicate count reads a prefix of one run of
normals, except the uniform policy's, whose arm draws come first; those
configs form one family, and the uniform policy's form one per horizon.
`_read_counts` names what one replicate of a config reads: the uniform
policy's T arm draws and no normals, Thompson's 3T normals, UCB's T,
explore-then-commit's 2 tau or an estimation's n.  `simulate_shared` draws
each replicate of a family once, as far as its longest reader needs, into
one `Draws` record; each config cuts its reads from it as views at its
rollout (`_reads`), and each policy is rolled out once per horizon over all
its gaps.  A verification battery so re-keys each replicate twice: once for
the uniform policy and once for every other row.  A simulation keeps only
each replicate's loss: a rollout yields arm-1 pull counts, which give the
regret, and no transcript is recorded.  Draws are made in chunks of
consecutive replicates whose kept draws fit a fixed byte budget, so memory
stays bounded for any horizon and replicate count, and a config is refused
when one replicate's draw, its arm draws and 8 bytes for each normal it
reads, outgrows the budget; the family with the largest draw per replicate
is drawn first, before any losses are held.  Every stream comes from one
Philox generator re-keyed in place to (s, r) for each replicate
(`replicate_rng` with `reuse`); the per-replicate contract above is
unchanged.  A chunk is rolled out in blocks of replicates that stay in
cache, and its replicates may be split over forked worker processes
(`simulate_shared`) with every byte unchanged.

`exact_loss_law` gives a config's loss law in closed form where one is
known: the uniform policy up to a horizon cap, the sign-commit estimator and
the always-zero estimator.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import signal
import threading
import traceback
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, NamedTuple, Sequence, Union, get_args

import numpy as np

from .errors import (
    _FIELD_PROBLEMS,
    _SEED_LIMIT,
    DomainError,
    _check_fields,
    _is_int,
    _regret_cap_problem,
    _stream_problem,
)
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

# predrawn values held at once; a family's draws are made in chunks of
# consecutive replicates that fit it (the 1000-replicate, T = 200 verify
# battery's shared family, 600 normals a replicate or 4.8 MB, is one
# chunk), and a config whose one replicate's stream outgrows it is refused;
# the workers draw disjoint ranges of a chunk, so it bounds them together
_PREDRAW_BUDGET_BYTES = 128 * 2**20

# elements of each (k, block) state array of a rollout: a chunk is rolled out
# in blocks of replicates whose state stays in cache, 2048 at 9 gaps
_ROLLOUT_ELEMENTS = 9 * 2048

# work, in replicates x (normals + arm draws) summed over the families, that
# each worker process must get before simulate_shared forks one: the T = 200
# verify battery's 800 a replicate keep it serial at 300 replicates, where a
# fork costs about what it saves, and give it two workers at 1000
_WORK_PER_WORKER = 300_000


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


def _ucb_radius(c_explore: float, t: int) -> float:
    """UCB's exploration radius c_explore sqrt(2 ln t) at 1-based round t."""
    # in float64 whatever the constant's type: a numpy float32 would round
    # the radius to float32, and overflow it with a warning
    return float(c_explore) * math.sqrt(2.0 * math.log(t))


def _policy_problem(policy: object, horizon: object) -> str | None:
    """Why the policy cannot run at this horizon, or None: it is not a
    policy, its UCB constant is not a finite real >= 0 (NaN would lose every
    index comparison) or makes the last round's radius overflow (every
    index would read inf, and the tie go to arm 1), or its
    explore-then-commit tau does not fit the horizon.  The radius and the
    tau are checked only at a horizon `_FIELD_PROBLEMS` takes."""
    if not isinstance(policy, get_args(Policy)):
        return f"must be a policy, got {policy!r}"
    horizon_ok = _FIELD_PROBLEMS["horizon"](horizon) is None
    if isinstance(policy, UCB):
        c = policy.c_explore
        if why := _FIELD_PROBLEMS["c_explore"](c):
            return f"c_explore {why}, got {c!r}"
        # rounds 0 and 1 are forced, and the radius grows with the round
        if horizon_ok and horizon >= 3 and not math.isfinite(_ucb_radius(c, horizon)):
            return f"c_explore makes the radius c sqrt(2 ln T) overflow a float at T = {horizon}, got {c!r}"
    if isinstance(policy, ExploreThenCommit) and horizon_ok:
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
        _check_fields({}, n=_stream_problem(self.n, _stream_bytes(self), _PREDRAW_BUDGET_BYTES))
        object.__setattr__(self, "delta", float(self.delta))


@dataclass(frozen=True)
class BanditConfig:
    horizon: int
    gap: float
    policy: Policy
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        _check_fields(
            vars(self),
            gap=_regret_cap_problem(self.gap, self.horizon),
            policy=_policy_problem(self.policy, self.horizon),
        )
        _check_fields({}, horizon=_stream_problem(self.horizon, _stream_bytes(self), _PREDRAW_BUDGET_BYTES))
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


# ------------------------------------------------------------------- draws


class _Family(NamedTuple):
    """Configs whose replicate streams are one stream, drawn once for all of
    them: the same seed and replicate count, and the same arm draws after the
    model draw, the uniform policy's T or none.  Past those, every member
    reads a prefix of one run of standard normals."""

    seed: int
    replicates: int
    arms: int  # the uniform policy's arm draws per replicate, or 0
    width: int  # leading normals kept per replicate: the longest run a bandit member reads
    sizes: tuple  # the estimation sizes n, ascending, whose leading normals' mean is kept


def _read_counts(config: BanditConfig | EstimationConfig) -> tuple[int, int]:
    """(arm draws, leading normals) one replicate of the config reads past
    its model draw: the uniform policy's T arm draws, which are its actions,
    Thompson's 2T posterior normals and T reward noises, UCB's T noises,
    explore-then-commit's 2 tau exploration noises or an estimation's n."""
    if isinstance(config, EstimationConfig):
        return 0, config.n
    horizon, policy = config.horizon, config.policy
    if isinstance(policy, UniformRandom):
        return horizon, 0
    if isinstance(policy, ThompsonGaussian):
        return 0, 3 * horizon
    if isinstance(policy, ExploreThenCommit):
        return 0, 2 * resolve_tau(policy, horizon)
    return 0, horizon


def _families(configs: Sequence[BanditConfig | EstimationConfig]) -> dict[_Family, list[int]]:
    """The families of the configs, each with its members' indices in input
    order."""
    members: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        members.setdefault((config.seed, config.replicates, _read_counts(config)[0]), []).append(i)
    families = {}
    for key, rows in members.items():
        group = [configs[i] for i in rows]
        width = max((_read_counts(c)[1] for c in group if isinstance(c, BanditConfig)), default=0)
        sizes = tuple(sorted({c.n for c in group if isinstance(c, EstimationConfig)}))
        families[_Family(*key, width, sizes)] = rows
    return families


def _longest(family: _Family) -> int:
    """Standard normals drawn per replicate: the family's longest run."""
    return max(family.width, *family.sizes, 0)


def _replicate_bytes(family: _Family) -> int:
    """Bytes a family keeps per replicate besides its one-byte model index:
    the uniform policy's arm-1 pull count, the bandit normals and one mean per
    estimation size."""
    return 8 * ((family.arms > 0) + family.width + len(family.sizes))


def _stream_bytes(config: BanditConfig | EstimationConfig) -> int:
    """Bytes one replicate of the config draws past its model draw: its arm
    draws and, at 8 bytes each, the normals it reads.  A family draws per
    replicate its members' arm draws and its longest reader's normals, the
    most any member draws, so a family of configs within the budget draws
    at least one replicate within it."""
    arms, normals = _read_counts(config)
    return arms + 8 * normals


def _replicate_chunks(family: _Family) -> list[range]:
    """Consecutive replicate ranges whose kept draws fit _PREDRAW_BUDGET_BYTES."""
    size = max(1, _PREDRAW_BUDGET_BYTES // _replicate_bytes(family))
    reps = family.replicates
    return [range(start, min(start + size, reps)) for start in range(0, reps, size)]


class Draws(NamedTuple):
    """A family's draws of consecutive replicates, the one draw record: each
    config cuts its reads from them with `_reads`."""

    family: _Family
    model: np.ndarray  # (reps,) model index in {1, 2}; for an estimation, theta is +delta under model 2
    pulls: np.ndarray  # (reps,) the uniform policy's arm-1 pull counts, or empty
    kept: np.ndarray  # (reps, width) leading normals
    means: np.ndarray  # (len(sizes), reps) mean of each estimation size's leading normals


def _draw(family: _Family, replicates: range) -> Draws:
    """Consume each replicate's stream once, in the documented order: the
    one drawing loop.  A replicate's normals are drawn straight into its row
    of `kept` when the bandit width is the longest run, else into one reused
    buffer whose prefix is kept; the means read them there.  Arm draws are
    1 or 2, so a replicate's sum to 2 T less its arm-1 pulls; only that count
    is kept.  A mean is the float64 sum and division of `normals[:n].mean()`,
    without its Python overhead."""
    reps = len(replicates)
    model = np.empty(reps, dtype=np.int8)
    pulls = np.empty(reps if family.arms else 0, dtype=np.int64)
    kept = np.empty((reps, family.width))
    means = np.empty((len(family.sizes), reps))
    longest = _longest(family)
    buffer = None if longest == family.width else np.empty(longest)
    rng = None
    for i, r in enumerate(replicates):
        rng = replicate_rng(family.seed, r, rng)
        model[i] = 1 + int(rng.integers(0, 2))
        if family.arms:
            pulls[i] = 2 * family.arms - rng.integers(1, 3, size=family.arms, dtype=np.int8).sum(dtype=np.int64)
        normals = kept[i] if buffer is None else buffer
        rng.standard_normal(out=normals)
        if buffer is not None:
            kept[i] = normals[: family.width]
        for j, n in enumerate(family.sizes):
            means[j, i] = np.add.reduce(normals[:n]) / n
    return Draws(family, model, pulls, kept, means)


def _reads(config: BanditConfig | EstimationConfig, draws: Draws) -> tuple[np.ndarray | None, np.ndarray]:
    """The config's own draws, if it makes any, and the normals it reads
    (`_read_counts`) or its (reps,) observation-noise mean, as views into a
    family's draws: Thompson's (reps, T, 2) posterior normals lead its
    (reps, T) reward noises, and every other bandit reads exactly its count
    of leading normals as its reward noises, whatever family they come from.

    Raises ValueError unless the draws hold the config's stream: its
    family's seed, replicate count and arm draws, and its normals among
    those kept or its n among the sizes whose means are kept."""
    family = draws.family
    arms, normals = _read_counts(config)
    estimation = isinstance(config, EstimationConfig)
    held = config.n in family.sizes if estimation else normals <= family.width
    if not held or (config.seed, config.replicates, arms) != family[:3]:
        raise ValueError("draws do not hold the config's stream: its seed, replicates, arm draws and normals")
    if estimation:
        return None, draws.means[family.sizes.index(config.n)]
    horizon, kept = config.horizon, draws.kept
    if isinstance(config.policy, ThompsonGaussian):
        return kept[:, : 2 * horizon].reshape(len(kept), horizon, 2), kept[:, 2 * horizon : normals]
    return draws.pulls if arms else None, kept[:, :normals]


# ---------------------------------------------------------------- estimation


def run_estimation(config: EstimationConfig, draws: Draws) -> np.ndarray:
    """(reps,) losses of the configured estimator on the replicates `draws`
    hold; the draws must hold the config's stream (see `_reads`)."""
    _, noise = _reads(config, draws)
    delta = config.delta
    theta = np.where(draws.model == 2, delta, -delta)
    ybar = theta + noise
    if config.estimator is Estimator.SAMPLE_MEAN:
        theta_hat = ybar
    elif config.estimator is Estimator.SIGN_COMMIT:
        # sign(0) resolves to +1
        theta_hat = np.where(ybar >= 0.0, delta, -delta)
    else:
        theta_hat = np.zeros(theta.size)
    return np.minimum(np.abs(theta_hat - theta), 2.0 * delta)


# -------------------------------------------------------------------- bandit


def _arm_index(s, m, w, out, tmp) -> None:
    """out = s / m + w / sqrt(m), an arm's UCB index or Thompson draw, built
    in the workspace arrays `out` and `tmp`; `m` may be `out` itself."""
    np.divide(s, m, out=tmp)
    np.sqrt(m, out=out)
    np.divide(w, out, out=out)
    out += tmp


def _rollout(policy: Policy, horizon: int, gaps, model, own, noise) -> np.ndarray:
    """Arm-1 pull counts, shaped (k, reps), of the replicates rolled out at
    each of the k gaps, each replicate under its drawn model.

    The rollout runs in lockstep over replicates x gaps, one round at a
    time: the state arrays are (k, reps) and each round's (reps,) noise and
    Thompson normals broadcast across the gaps, so every element sees the
    float operations of a rollout at its gap alone.  Explore-then-commit runs
    only its 2 tau exploration rounds, since the sums they leave decide its
    commit.  The uniform policy's counts, its `own` draws, do not depend on
    the gap and need no rollout.

    UCB and Thompson pick the arm branch-free in a fixed workspace of
    (k, reps) arrays made once per call: `pick` is 1.0 where arm 1 is pulled
    and 0.0 elsewhere, the reward is y = mu1 (2 pick - 1) + noise, arm 1's sum
    gains pick y and arm 2's gains y - pick y.  The sums are bit for bit
    those of the oracle `tests/oracles._reference_rollout`, which adds y to
    the pulled arm's sum and 0.0 to the other's:

    * mu1 * (+-1) is mu1 or -mu1 = mu2 exactly, zero signs included, also at
      a subnormal gap whose half rounds to +-0;
    * y is finite (the config refuses a gap whose g T overflows), so y * 0.0
      is a signed zero, never NaN, and y - y is +0.0;
    * both sums start at +0.0, and a round-to-nearest sum is -0.0 only when
      both addends are, so neither sum is ever -0.0 and adding +-0.0 leaves
      it unchanged, as adding the oracle's 0.0 does.
    """
    k, reps = len(gaps), model.size
    if isinstance(policy, UniformRandom):
        return np.broadcast_to(own, (k, reps))
    half = 0.5 * np.asarray(gaps, dtype=float)[:, None]
    mu1 = np.where(model == 1, half, -half)  # arm 1's mean
    s1 = np.zeros((k, reps))
    s2 = np.zeros((k, reps))
    if isinstance(policy, ExploreThenCommit):
        mu2 = -mu1
        tau = resolve_tau(policy, horizon)
        for t in range(tau):
            s1 += mu1 + noise[:, t]
        for t in range(tau, 2 * tau):
            s2 += mu2 + noise[:, t]
        # equal exploration counts, so compare sums; ties -> arm 1
        commit1 = s1 >= s2
        return tau + (horizon - 2 * tau) * commit1
    n1 = np.zeros((k, reps))  # counts held as floats, exact up to 2**53
    pick, y, idx1, idx2 = (np.empty((k, reps)) for _ in range(4))
    for t in range(horizon):
        if isinstance(policy, ThompsonGaussian):
            np.add(n1, 1.0, out=idx1)
            _arm_index(s1, idx1, own[:, t, 0], idx1, y)
            np.subtract(t + 1.0, n1, out=idx2)  # arm 2's pulls + 1, exact
            _arm_index(s2, idx2, own[:, t, 1], idx2, y)
            np.greater_equal(idx1, idx2, out=pick)
        elif t < 2:
            pick.fill(t == 0)
        else:
            radius = _ucb_radius(policy.c_explore, t + 1)
            _arm_index(s1, n1, radius, idx1, y)
            np.subtract(t, n1, out=idx2)
            _arm_index(s2, idx2, radius, idx2, y)
            np.greater_equal(idx1, idx2, out=pick)
        # y = mu1 (2 pick - 1) + noise; arm 1's sum gains pick y, arm 2's y - pick y
        n1 += pick
        np.multiply(pick, 2.0, out=y)
        y -= 1.0
        y *= mu1
        y += noise[:, t]
        pick *= y
        s1 += pick
        y -= pick
        s2 += y
    return n1.astype(np.int64)


def _regret(gaps, horizon: int, model, n1) -> np.ndarray:
    """(k, reps) realized pseudo-regret from `_rollout`'s arm-1 pull counts."""
    g = np.asarray(gaps, dtype=float)[:, None]
    return np.where(model == 1, g * (horizon - n1), g * n1)


def run_bandit(config: BanditConfig, draws: Draws) -> np.ndarray:
    """(reps,) losses of the replicates `draws` hold, each rolled out under
    its drawn model; the draws must hold the config's stream (see
    `_reads`)."""
    return _losses([config], draws)[0]


# ------------------------------------------------------------ shared draws


def _losses(configs: Sequence[BanditConfig | EstimationConfig], draws: Draws) -> list[np.ndarray]:
    """Losses of members of one family on one chunk of its draws.  Each
    estimation runs on its mean, and the bandit configs of one policy and
    horizon are rolled out together, in one lockstep pass over their
    distinct gaps, block by block of _ROLLOUT_ELEMENTS // gaps replicates."""
    passes: dict[tuple, list[int]] = {}
    for j, config in enumerate(configs):
        if isinstance(config, BanditConfig):
            passes.setdefault((config.policy, config.horizon), []).append(j)
    losses: list[np.ndarray | None] = [None] * len(configs)
    model = draws.model
    for (policy, horizon), rows in passes.items():
        own, noise = _reads(configs[rows[0]], draws)
        gaps, row_gap = np.unique([configs[j].gap for j in rows], return_inverse=True)
        step = max(1, _ROLLOUT_ELEMENTS // len(gaps))
        blocks = [slice(start, start + step) for start in range(0, model.size, step)]
        n1 = [_rollout(policy, horizon, gaps, model[b], own if own is None else own[b], noise[b]) for b in blocks]
        # no pass's counts outlive it into the next rollout
        regret = _regret(gaps, horizon, model, np.concatenate(n1, axis=1))
        for j, g in zip(rows, row_gap):
            losses[j] = regret[g]
    # estimations run last, so their losses are not held beside a rollout's workspace
    for j, config in enumerate(configs):
        if isinstance(config, EstimationConfig):
            losses[j] = run_estimation(config, draws)
    return losses


def _threads() -> int:
    """Threads of this process as CPython counts them when it warns of a
    fork: the OS's count where /proc lists it, so numpy's BLAS pool counts
    too, else the Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _workers(families: Sequence[_Family]) -> int:
    """Processes that draw and roll out the families: one per usable CPU, as
    far as each gets _WORK_PER_WORKER, and 1 where the process may not fork:
    no os.fork or CPU affinity, or a second OS thread, which could hold a lock
    that the child would never see released."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or _threads() > 1:
        return 1
    work = sum(family.replicates * (_longest(family) + family.arms) for family in families)
    return max(1, min(len(os.sched_getaffinity(0)), work // _WORK_PER_WORKER))


def simulate_shared(configs: Sequence[BanditConfig | EstimationConfig]) -> list[SampleSet]:
    """Loss samples of the configs, in their order.

    Configs of one seed and replicate count form one family, apart from the
    uniform policy's configs, one family per horizon.  Each chunk of a
    family's replicates is drawn once, every config reads its views of
    those draws at its rollout, each policy is rolled out once per horizon
    over all its gaps, and the losses are joined per config; every sample
    equals that of simulating its config alone.  The family with the
    largest draw per replicate is drawn first, while no losses are held.

    Each chunk is split into one consecutive replicate range per worker
    (`_workers`).  The process forks the other workers once, works the last
    range of every chunk itself, and any range whose fork failed, and reaps
    every child before it returns or raises.  A failed child writes its
    traceback to stderr, and a child whose caller is gone stops at its next
    chunk.  Workers write their losses into one shared anonymous mapping;
    a replicate's draws depend only on (seed, replicate), so no byte changes.
    """
    families = sorted(_families(configs).items(), key=lambda item: _replicate_bytes(item[0]), reverse=True)
    workers = _workers([family for family, _ in families])
    # one (members, replicates) table of losses per family; the mapping is
    # released with the last array that views it
    sizes = [len(members) * family.replicates for family, members in families]
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(1, sum(sizes))), dtype=float)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    tables = [part.reshape(len(members), -1) for part, (_, members) in zip(parts, families)]

    caller = os.getpid()

    def work(worker: int) -> None:
        for (family, members), table in zip(families, tables):
            group = [configs[i] for i in members]
            for chunk in _replicate_chunks(family):
                if os.getpid() != caller and os.getppid() != caller:
                    os._exit(1)  # the caller is gone, and nothing reads the losses
                share = chunk[worker * len(chunk) // workers : (worker + 1) * len(chunk) // workers]
                if share:
                    # each chunk's draws are released once its losses are taken
                    for row, losses in zip(table, _losses(group, _draw(family, share))):
                        row[share.start : share.stop] = losses

    pids = []
    # the last range of a chunk is never empty, so the process draws every
    # chunk, and what fails in every draw fails in it, as it raised
    own = [workers - 1]
    try:
        for worker in range(workers - 1):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller works the rest
                own += range(worker, workers - 1)
                break
            if pid == 0:  # a child leaves only here, so it flushes no buffer
                code = 1
                try:
                    work(worker)
                    code = 0
                except Exception:
                    # written past Python's buffers, so nothing is written twice
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(code)
            pids.append(pid)
        for worker in own:
            work(worker)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    failed = [code for code in codes if code]
    if failed:
        raise RuntimeError(
            f"{len(failed)} of {len(pids)} simulation worker processes failed, exit codes {failed}"
            " (-N: ended by signal N); one that raised wrote its traceback to stderr"
        )
    samples: list[SampleSet | None] = [None] * len(configs)
    for (_, members), table in zip(families, tables):
        for i, row in zip(members, table):
            samples[i] = SampleSet(row)
    return samples


# --------------------------------------------------------------- exact laws


def normal_upper_tail(x: float) -> float:
    """P(Z > x) for standard normal Z, via the complementary error function."""
    return 0.5 * math.erfc(float(x) / math.sqrt(2.0))


@functools.lru_cache(maxsize=_MAX_EXACT_HORIZON)
def _binomial_row(horizon: int) -> tuple[float, ...]:
    """P(Binomial(T, 1/2) = k) for k = 0..T, each an exact integer divided
    by 2^T (one correctly rounded float division); one row per horizon."""
    denom = 1 << horizon
    return tuple(math.comb(horizon, k) / denom for k in range(horizon + 1))


def exact_uniform_bandit_law(g: float, horizon: int) -> DiscreteLossDistribution:
    """Exact regret law of the uniform-random policy: g * Binomial(T, 1/2).

    Under either model the suboptimal arm is pulled Binomial(T, 1/2) times.
    The weights are `_binomial_row`'s, cached for at most 64 horizons;
    horizons above 64 raise DomainError rather than silently losing
    precision.
    """
    _check_fields({"horizon": horizon, "gap": g})
    if horizon > _MAX_EXACT_HORIZON:
        raise DomainError(
            f"exact uniform-policy law supports horizons up to {_MAX_EXACT_HORIZON}, got {horizon}"
        )
    g = float(g)
    if g * horizon == math.inf:
        _check_fields({}, gap=_regret_cap_problem(g, horizon))
    # every law at this horizon shares the cached row as its probs column
    return DiscreteLossDistribution._from_columns(tuple(map(g.__mul__, range(horizon + 1))), _binomial_row(horizon))


def exact_sign_estimator_law(n: int, delta: float) -> DiscreteLossDistribution:
    """Exact loss law of the sign-commit estimator: loss 0 with probability
    1 - p and 2 delta with p = P(Z > sqrt(n) delta), by symmetry of the two
    mean hypotheses."""
    _check_fields({"n": n, "delta": delta})
    delta = float(delta)
    if 2.0 * delta == math.inf:
        _check_fields({}, delta=f"2 delta overflows a float, got {delta!r}")
    p = normal_upper_tail(math.sqrt(n) * delta)
    # p may underflow to 0.0; its atom is kept
    return DiscreteLossDistribution._from_columns((0.0, 2.0 * delta), (1.0 - p, p))


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
        return DiscreteLossDistribution._from_columns((config.delta,), (1.0,))
    return None
