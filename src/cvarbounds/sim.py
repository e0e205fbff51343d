"""Monte Carlo sampling of prior-predictive losses, plus exact-law oracles.

Two problem families:

* mean estimation: theta is drawn uniformly from {-delta, +delta}, n
  unit-variance Gaussians are observed, and the loss is the clipped error
  min(|theta_hat - theta|, 2 delta);
* two-armed bandit: the model index is drawn uniformly from {1, 2}, arm
  means are (+g/2, -g/2) under model 1 and flipped under model 2, rewards
  are unit-variance Gaussian, and the loss is the realized pseudo-regret
  g * (pulls of the suboptimal arm).

Randomness contract, `philox-seed-block-v2`: replicate r of a run with master
seed s lies in block b = r // 256, and block b reads one Philox stream keyed
by (s, b).  A pass reads it from counter 0: one policy at one horizon, or one
estimation size.  It reads first `integers(0, 2, size=256, dtype=int8)`, each
replicate's model less 1 (the bandit's model index, the estimation's sign of
theta), then the pass's rows, round-major: row i holds the i-th value of all
256 replicates.  The uniform policy reads T rows of arm draws,
`integers(1, 3, dtype=int8)`.  The others read standard normals: Thompson
three rows a round, its two posterior normals and then its reward noise;
UCB its T reward noises; explore-then-commit the 2 tau of its exploration
rounds; an estimation its n observation noises, of which it keeps the mean,
summed row by row.  A run of R replicates reads ceil(R / 256) whole blocks,
as much for 1 replicate as for 256, and keeps the first R columns.  So a
replicate's values depend on (s, r)
alone: results are independent of batch size and worker count, and the
first replicates of a longer run reproduce a shorter one bit for bit.

A pass draws each block's rows in strips of at most _STRIP_ROWS and rolls
a strip out before it draws the next; a counter-based stream drawn in strips
gives exactly the values of one draw, and memory stays bounded for any
horizon or size.  The rollout runs round by round in lockstep over a
cache-sized group of blocks x gaps: a policy's rows at every gap are one
pass.  UCB and Thompson pick each round's arm by exact 0/1 arithmetic in a
fixed workspace allocated once per rollout; their sums are bit for bit those
of `tests/oracles._reference_rollout`, which selects each reward into one
sum.  Explore-then-commit needs only its 2 tau exploration rounds, since
their two sums decide its commit, and the uniform policy needs none: its
arm-1 pull counts are summed from its arm draws.  A simulation keeps only
each replicate's loss, and no transcript is recorded.  A call's blocks may
be split over forked worker processes (`simulate_shared`) with every byte
unchanged.

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
from typing import ClassVar, Iterator, Sequence, Union, get_args

import numpy as np

from .errors import (
    _FIELD_PROBLEMS,
    _SEED_LIMIT,
    DomainError,
    _check_fields,
    _is_int,
    _regret_cap_problem,
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

# the randomness contract above, named in a simulated report's metadata
RNG_CONTRACT = "philox-seed-block-v2"

_MAX_EXACT_HORIZON = 64

# replicates per stream block; part of the contract, so every Monte Carlo
# output moves with it
_BLOCK = 256

# rows of a block's stream drawn at a time, rounded down to whole rounds:
# the memory a pass holds does not grow with its horizon or size
_STRIP_ROWS = 64

# elements of each (k, blocks, 256) state array of a rollout: a pass is
# rolled out over groups of blocks whose state stays in cache, 8 at 9 gaps
_ROLLOUT_ELEMENTS = 9 * 2048

# work, in replicates x rows read summed over the passes, that each worker
# process must get before simulate_shared forks one: the T = 200 verify
# battery's 1170 rows a replicate keep it serial at 300 replicates, where a
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
        object.__setattr__(self, "gap", float(self.gap))


def replicate_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based stream of one block of replicates, keyed by (master
    seed, block index); streams for different keys are statistically
    independent and order free.

    Both parts of the key must be ints in [0, 2**64); anything else raises
    ValueError rather than being truncated into another block's key.
    """
    if not (_is_int(seed) and _is_int(block) and 0 <= seed < _SEED_LIMIT and 0 <= block < _SEED_LIMIT):
        raise ValueError(f"seed and block must be unsigned 64-bit ints, got {seed!r} and {block!r}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


# ------------------------------------------------------------------- draws


def _reads(config: BanditConfig | EstimationConfig) -> tuple[int, int]:
    """(rows, rows a round) that a pass of the config reads from each
    block's stream past its model draw: the uniform policy's T rows of arm
    draws, Thompson's 3T normals, three a round, UCB's T, explore-then-
    commit's 2 tau or an estimation's n."""
    if isinstance(config, EstimationConfig):
        return config.n, 1
    horizon, policy = config.horizon, config.policy
    if isinstance(policy, ThompsonGaussian):
        return 3 * horizon, 3
    if isinstance(policy, ExploreThenCommit):
        return 2 * resolve_tau(policy, horizon), 1
    return horizon, 1


def _pass_key(config: BanditConfig | EstimationConfig) -> tuple:
    """Configs of one key form one pass: they read the same rows of the
    same blocks, so each block is drawn once for all of them, and a bandit
    pass is rolled out once over all its gaps."""
    if isinstance(config, EstimationConfig):
        return config.seed, config.replicates, config.n
    return config.seed, config.replicates, config.policy, config.horizon


def _blocks(replicates: int) -> range:
    """The blocks that hold replicates 0 to R - 1."""
    return range(-(-replicates // _BLOCK))


def _draw(seed: int, blocks: range, rows: int, per: int, arms: bool, cols: int) -> Iterator[np.ndarray]:
    """Read one pass's rows of the blocks' streams in the contract's order:
    the one drawing loop.  Yields the (G, cols) models in {1, 2} of the G
    blocks, then the `rows` rows in strips of whole rounds of `per` rows,
    each (G, S, cols): standard normals, drawn into one reused buffer and so
    valid until the next strip is drawn, or arm draws in {1, 2} if `arms`.
    Every row is drawn whole; only its first `cols` replicates are yielded."""
    rngs = [replicate_rng(seed, block) for block in blocks]
    yield 1 + np.stack([rng.integers(0, 2, size=_BLOCK, dtype=np.int8) for rng in rngs])[:, :cols]
    size = max(1, _STRIP_ROWS // per) * per
    strip = None if arms else np.empty((len(rngs), min(size, rows), _BLOCK))
    for start in range(0, rows, size):
        if arms:
            shape = (min(size, rows - start), _BLOCK)
            yield np.stack([rng.integers(1, 3, size=shape, dtype=np.int8) for rng in rngs])[..., :cols]
        else:
            # each block's rows are one C-contiguous (S, 256) slab, as out= needs
            part = strip[:, : rows - start]
            for rng, out in zip(rngs, part):
                rng.standard_normal(out=out)
            yield part[..., :cols]


def _rounds(strips: Iterator[np.ndarray], per: int) -> Iterator[np.ndarray]:
    """Each round's (G, per, 256) rows of a pass's strips, in order."""
    for strip in strips:
        for i in range(0, strip.shape[1], per):
            yield strip[:, i : i + per]


# ---------------------------------------------------------------- estimation


def _noise_mean(n: int, shape: tuple, strips: Iterator[np.ndarray]) -> np.ndarray:
    """Each replicate's mean of its n observation noises, summed row by row
    in round order, so that no strip size changes a bit."""
    total = np.zeros(shape)
    for strip in strips:
        for row in strip.swapaxes(0, 1):
            total += row
    return total / n


def _estimate(config: EstimationConfig, model: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """(reps,) losses of the configured estimator, given each replicate's
    model (theta is +delta under model 2) and observation-noise mean."""
    delta = config.delta
    theta = np.where(model == 2, delta, -delta)
    ybar = theta + noise
    if config.estimator is Estimator.SAMPLE_MEAN:
        theta_hat = ybar
    elif config.estimator is Estimator.SIGN_COMMIT:
        # sign(0) resolves to +1
        theta_hat = np.where(ybar >= 0.0, delta, -delta)
    else:
        theta_hat = np.zeros(theta.size)
    return np.minimum(np.abs(theta_hat - theta), 2.0 * delta)


def run_estimation(config: EstimationConfig) -> np.ndarray:
    """(reps,) losses of the config's replicates, drawn in this process."""
    return _pass_losses([config], _blocks(config.replicates))[0]


# -------------------------------------------------------------------- bandit


def _arm_index(s, m, w, out, tmp) -> None:
    """out = s / m + w / sqrt(m), an arm's UCB index or Thompson draw, built
    in the workspace arrays `out` and `tmp`; `m` may be `out` itself."""
    np.divide(s, m, out=tmp)
    np.sqrt(m, out=out)
    np.divide(w, out, out=out)
    out += tmp


def _rollout(policy: Policy, horizon: int, gaps, model, strips) -> np.ndarray:
    """Arm-1 pull counts, shaped (k, G, 256), of a group of G blocks rolled
    out at each of the k gaps, each replicate under its drawn model; `model`
    and `strips` are the group's draws (`_draw`).

    The rollout runs in lockstep over replicates x gaps, one round at a
    time: the state arrays are (k, G, 256) and each round's (G, 256) noise
    and Thompson normals broadcast across the gaps, so every element sees
    the float operations of a rollout at its gap alone.  Explore-then-commit
    runs only its 2 tau exploration rounds, since the sums they leave decide
    its commit.  The uniform policy's counts do not depend on the gap: m
    rows of its arm draws, each 1 or 2, sum to 2 m less its arm-1 pulls.

    UCB and Thompson pick the arm branch-free in a fixed workspace of
    (k, G, 256) arrays made once per call: `pick` is 1.0 where arm 1 is
    pulled and 0.0 elsewhere, the reward is y = mu1 (2 pick - 1) + noise,
    arm 1's sum gains pick y and arm 2's gains y - pick y.  The sums are bit
    for bit those of the oracle `tests/oracles._reference_rollout`, which
    adds y to the pulled arm's sum and 0.0 to the other's:

    * mu1 * (+-1) is mu1 or -mu1 = mu2 exactly, zero signs included, also at
      a subnormal gap whose half rounds to +-0;
    * y is finite (the config refuses a gap whose g T overflows), so y * 0.0
      is a signed zero, never NaN, and y - y is +0.0;
    * both sums start at +0.0, and a round-to-nearest sum is -0.0 only when
      both addends are, so neither sum is ever -0.0 and adding +-0.0 leaves
      it unchanged, as adding the oracle's 0.0 does.
    """
    shape = (len(gaps), *model.shape)
    if isinstance(policy, UniformRandom):
        pulls = np.zeros(model.shape, dtype=np.int64)
        for strip in strips:
            pulls += 2 * strip.shape[1] - strip.sum(axis=1, dtype=np.int64)
        return np.broadcast_to(pulls, shape)
    half = 0.5 * np.asarray(gaps, dtype=float)[:, None, None]
    mu1 = np.where(model == 1, half, -half)  # arm 1's mean
    s1 = np.zeros(shape)
    s2 = np.zeros(shape)
    thompson = isinstance(policy, ThompsonGaussian)
    rounds = _rounds(strips, 3 if thompson else 1)
    if isinstance(policy, ExploreThenCommit):
        mu2 = -mu1
        tau = resolve_tau(policy, horizon)
        for t, rows in enumerate(rounds):
            if t < tau:
                s1 += mu1 + rows[:, 0]
            else:
                s2 += mu2 + rows[:, 0]
        # equal exploration counts, so compare sums; ties -> arm 1
        commit1 = s1 >= s2
        return tau + (horizon - 2 * tau) * commit1
    n1 = np.zeros(shape)  # counts held as floats, exact up to 2**53
    pick, y, idx1, idx2 = (np.empty(shape) for _ in range(4))
    for t, rows in enumerate(rounds):
        if thompson:
            np.add(n1, 1.0, out=idx1)
            _arm_index(s1, idx1, rows[:, 0], idx1, y)
            np.subtract(t + 1.0, n1, out=idx2)  # arm 2's pulls + 1, exact
            _arm_index(s2, idx2, rows[:, 1], idx2, y)
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
        y += rows[:, -1]
        pick *= y
        s1 += pick
        y -= pick
        s2 += y
    return n1.astype(np.int64)


def _regret(gaps, horizon: int, model, n1) -> np.ndarray:
    """(k, reps) realized pseudo-regret from `_rollout`'s arm-1 pull counts."""
    g = np.asarray(gaps, dtype=float)[:, None]
    return np.where(model == 1, g * (horizon - n1), g * n1)


def run_bandit(config: BanditConfig) -> np.ndarray:
    """(reps,) losses of the config's replicates, each rolled out under its
    drawn model, in this process."""
    return _pass_losses([config], _blocks(config.replicates))[0]


# ------------------------------------------------------------------ passes


def _pass_losses(configs: Sequence[BanditConfig | EstimationConfig], blocks: range) -> list[np.ndarray]:
    """Losses of the configs of one pass (`_pass_key`) on their replicates
    in the blocks, in input order.  The blocks are drawn and rolled out in
    groups whose (k, G, 256) state holds at most _ROLLOUT_ELEMENTS values,
    or one block, k being the pass's distinct gaps, or 1 for an estimation,
    whose configs all run on the one noise mean.  A group of one block is
    rolled out over the replicates it keeps only, so a short run does not
    roll out a whole block."""
    first = configs[0]
    rows, per = _reads(first)
    estimation = isinstance(first, EstimationConfig)
    if estimation:
        k, arms = 1, False
    else:
        gaps, row_gap = np.unique([config.gap for config in configs], return_inverse=True)
        k, arms = len(gaps), isinstance(first.policy, UniformRandom)
    step = max(1, _ROLLOUT_ELEMENTS // (k * _BLOCK))
    models, outs = [], []
    for start in range(0, len(blocks), step):
        group = blocks[start : start + step]
        # a group of one block rolls out only the replicates it keeps
        cols = min(_BLOCK, first.replicates - group.start * _BLOCK) if len(group) == 1 else _BLOCK
        draws = _draw(first.seed, group, rows, per, arms, cols)
        model = next(draws)
        models.append(model.ravel())
        if estimation:
            outs.append(_noise_mean(rows, model.shape, draws).ravel())
        else:
            outs.append(_rollout(first.policy, first.horizon, gaps, model, draws).reshape(k, -1))
    # the replicates past R that a group of blocks rolled out are dropped here
    kept = min(blocks.stop * _BLOCK, first.replicates) - blocks.start * _BLOCK
    model = np.concatenate(models)[:kept]
    if estimation:
        noise = np.concatenate(outs)[:kept]
        return [_estimate(config, model, noise) for config in configs]
    n1 = np.concatenate(outs, axis=1)[:, :kept]
    regret = _regret(gaps, first.horizon, model, n1)
    return [regret[g] for g in row_gap]


def _threads() -> int:
    """Threads of this process as CPython counts them when it warns of a
    fork: the OS's count where /proc lists it, so numpy's BLAS pool counts
    too, else the Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _workers(passes: Sequence[BanditConfig | EstimationConfig]) -> int:
    """Processes that draw and roll out the passes, given one config of
    each: one per usable CPU, as far as each gets _WORK_PER_WORKER and a
    block of some pass, and 1 where the process may not fork: no os.fork or
    CPU affinity, or a second OS thread, which could hold a lock that the
    child would never see released."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or _threads() > 1:
        return 1
    work = sum(config.replicates * _reads(config)[0] for config in passes)
    blocks = max((len(_blocks(config.replicates)) for config in passes), default=1)
    return max(1, min(len(os.sched_getaffinity(0)), work // _WORK_PER_WORKER, blocks))


def simulate_shared(configs: Sequence[BanditConfig | EstimationConfig]) -> list[SampleSet]:
    """Loss samples of the configs, in their order.

    Configs that read the same rows of the same blocks form one pass
    (`_pass_key`): each block is drawn once for the pass, each policy is
    rolled out once per horizon over all its gaps, and each estimation size
    is drawn once for all its estimators and separations.  Every sample
    equals that of simulating its config alone.

    Each pass's blocks are split into one consecutive range per worker
    (`_workers`).  The process forks the other workers once, works the last
    range of every pass itself, and any range whose fork failed, and reaps
    every child before it returns or raises.  A failed child writes its
    traceback to stderr, and a child whose caller is gone stops at its next
    pass.  Workers write their losses into one shared anonymous mapping;
    a replicate's draws depend only on (seed, replicate), so no byte changes.
    """
    passes: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        passes.setdefault(_pass_key(config), []).append(i)
    groups = [[configs[i] for i in members] for members in passes.values()]
    workers = _workers([group[0] for group in groups])
    # one (members, replicates) table of losses per pass; the mapping is
    # released with the last array that views it
    sizes = [len(group) * group[0].replicates for group in groups]
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(1, sum(sizes))), dtype=float)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    tables = [part.reshape(len(group), -1) for part, group in zip(parts, groups)]
    if workers > 1:
        # loads numpy.random, which the children then inherit rather than
        # each import it anew
        replicate_rng(configs[0].seed, 0)

    caller = os.getpid()

    def work(worker: int) -> None:
        for group, table in zip(groups, tables):
            if os.getpid() != caller and os.getppid() != caller:
                os._exit(1)  # the caller is gone, and nothing reads the losses
            blocks = _blocks(group[0].replicates)
            share = blocks[worker * len(blocks) // workers : (worker + 1) * len(blocks) // workers]
            if share:
                start = share.start * _BLOCK
                for row, losses in zip(table, _pass_losses(group, share)):
                    row[start : start + losses.size] = losses

    pids = []
    # the last range of a pass is never empty, so the process draws from
    # every pass, and what fails in every draw fails in it, as it raised
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
    for members, table in zip(passes.values(), tables):
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
