"""Monte Carlo sampling of prior-predictive losses, plus exact-law oracles.

Two problem families:

* mean estimation: theta is drawn uniformly from {-delta, +delta}, n
  unit-variance Gaussians are observed, and the loss is the clipped error
  min(|theta_hat - theta|, 2 delta);
* two-armed bandit: the model index is drawn uniformly from {1, 2}, arm
  means are (+g/2, -g/2) under model 1 and flipped under model 2, rewards
  are unit-variance Gaussian, and the loss is the realized pseudo-regret
  g * (pulls of the suboptimal arm).

Randomness contract, `philox-seed-block-v3`: replicate r of a run with master
seed s lies in block b = r // 256, and block b reads one Philox stream keyed
by (s, b).  A pass reads it from counter 0: one policy at one horizon, or one
estimation size.  It reads first `integers(0, 2, size=256, dtype=int8)`, each
replicate's model less 1 (the bandit's model index, the estimation's sign of
theta), then the pass's rows, round-major: row i holds the i-th value of all
256 replicates.  A pass whose loss is a function of one statistic of known
law draws that statistic, in one row: an estimation one standard normal z, its
observation mean being theta + z / sqrt(n); explore-then-commit one standard
normal z, its arm sums after tau pulls of each arm differing by
2 tau mu1 + sqrt(2 tau) z; the uniform policy one `binomial(T, 0.5)`, its
arm-1 pull count.  UCB reads T rows of standard normals, its reward noises,
and Thompson 2 rows a round, the normal W of its posterior difference and
then its reward noise.  A run of R replicates reads ceil(R / 256) whole
blocks, as much for 1 replicate as for 256, and keeps the first R columns.
So a replicate's values depend on (s, r) alone: results are independent of
batch size and worker count, and the first replicates of a longer run
reproduce a shorter one bit for bit.

UCB and Thompson draw each block's rows in strips of at most _STRIP_ROWS and
roll a strip out before they draw the next; a counter-based stream drawn in
strips gives exactly the values of one draw, and memory stays bounded for
any horizon.  The rollout runs round by round in lockstep over a cache-sized
group of blocks x gaps: a policy's rows at every gap are one pass.  UCB and
Thompson pick each round's arm by exact 0/1 arithmetic in a fixed workspace
allocated once per rollout; their sums are bit for bit those of
`tests/oracles._reference_rollout`, which selects each reward into one sum.
Explore-then-commit and the uniform policy have no round loop: a
replicate's arm-1 pull count is one expression of its one drawn value.  A
simulation keeps only each replicate's loss, and no transcript is recorded.
A call's passes are cut into their groups of blocks, cut finer where they
are fewer than the workers, and whole groups are dealt to forked worker
processes by their cost, largest first (`simulate_shared`), with every byte
unchanged.

`exact_loss_law` gives a config's loss law in closed form where one is
known: the uniform policy up to a horizon cap, explore-then-commit, the
sign-commit estimator and the always-zero estimator.
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
RNG_CONTRACT = "philox-seed-block-v3"

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

# work (`_cost`) that each worker process must get before simulate_shared
# forks one, about 15 ms: the T = 200 verify battery's 90,000 a block keep
# it serial at 300 replicates (2 blocks), where a fork costs about what it
# saves, and give it two workers at 1,000 (4 blocks), or three
_WORK_PER_WORKER = 100_000


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
    explore-then-commit tau does not fit the horizon, or, for the uniform
    policy and explore-then-commit, whose pull counts are drawn as int64 in
    one row, the horizon does not fit an int64.  The radius and the tau are
    checked only at a horizon `_FIELD_PROBLEMS` takes."""
    if not isinstance(policy, get_args(Policy)):
        return f"must be a policy, got {policy!r}"
    horizon_ok = _FIELD_PROBLEMS["horizon"](horizon) is None
    if isinstance(policy, (UniformRandom, ExploreThenCommit)) and horizon_ok and horizon >= 2**63:
        return f"{policy.name} runs at horizons below 2**63, got horizon = {horizon}"
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


def _draw(seed: int, blocks: range, cols: int) -> tuple[np.ndarray, list]:
    """Key the streams of the G blocks and read their models, which every
    pass reads first: the one place a pass starts drawing.  Returns the
    (G, cols) models in {1, 2} and the streams, which the pass reads on."""
    rngs = [replicate_rng(seed, block) for block in blocks]
    return 1 + np.stack([rng.integers(0, 2, size=_BLOCK, dtype=np.int8) for rng in rngs])[:, :cols], rngs


def _normals(rngs: list, cols: int) -> np.ndarray:
    """(G, cols): one row of standard normals of each stream."""
    return np.stack([rng.standard_normal(_BLOCK) for rng in rngs])[:, :cols]


def _rounds(rngs: list, rows: int, per: int, cols: int) -> Iterator[np.ndarray]:
    """Each round's (G, per, cols) standard normals of `rows` rows of the
    streams, in order.  The rows are drawn in strips of whole rounds into
    one reused buffer, so a round is valid until the next strip is drawn.
    Every row is drawn whole; only its first `cols` replicates are yielded."""
    size = max(1, _STRIP_ROWS // per) * per
    strip = np.empty((len(rngs), min(size, rows), _BLOCK))
    for start in range(0, rows, size):
        # each block's rows are one C-contiguous (S, 256) slab, as out= needs
        part = strip[:, : rows - start]
        for rng, out in zip(rngs, part):
            rng.standard_normal(out=out)
        for i in range(0, part.shape[1], per):
            yield part[:, i : i + per, :cols]


# ---------------------------------------------------------------- estimation


def _estimate(config: EstimationConfig, model: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """(reps,) losses of the configured estimator, given each replicate's
    model (theta is +delta under model 2) and observation-noise mean
    ybar - theta."""
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
    return _alone(config)


# -------------------------------------------------------------------- bandit


def _arm_index(s, m, w, out, tmp) -> None:
    """out = s / m + w / sqrt(m), an arm's UCB index, built in the
    workspace arrays `out` and `tmp`; `m` may be `out` itself."""
    np.divide(s, m, out=tmp)
    np.sqrt(m, out=out)
    np.divide(w, out, out=out)
    out += tmp


def _rollout(policy: Policy, horizon: int, gaps, model, rngs) -> np.ndarray:
    """Arm-1 pull counts, shaped (k, G, cols), of a group of G blocks rolled
    out at each of the k gaps, each replicate under its drawn model; `model`
    and `rngs` are the group's models and streams (`_draw`), from which the
    rollout reads its rows.

    The uniform policy's count is its one binomial draw, whatever the gap.
    Explore-then-commit's arm sums after tau pulls of each arm differ by
    2 tau mu1 + sqrt(2 tau) z for its one standard normal z, so it commits
    to arm 1, ties included, where that is >= 0.

    UCB and Thompson run in lockstep over replicates x gaps, one round at a
    time: the state arrays are (k, G, cols) and each round's (G, cols) rows
    broadcast across the gaps, so every element sees the float operations
    of a rollout at its gap alone.  Thompson pulls arm 1 where its posterior
    draws' difference s1 / d1 - s2 / d2 + sqrt(1 / d1 + 1 / d2) W is >= 0,
    with d = pulls + 1 and W the round's first row.

    Both pick the arm branch-free in a fixed workspace of (k, G, cols)
    arrays made once per call: `pick` is 1.0 where arm 1 is pulled and 0.0
    elsewhere, the reward is y = mu1 (2 pick - 1) + noise, arm 1's sum gains
    pick y and arm 2's gains y - pick y.  The sums are bit for bit those of
    the oracle `tests/oracles._reference_rollout`, which adds y to the
    pulled arm's sum and 0.0 to the other's:

    * mu1 * (+-1) is mu1 or -mu1 = mu2 exactly, zero signs included, also at
      a subnormal gap whose half rounds to +-0;
    * y is finite (the config refuses a gap whose g T overflows), so y * 0.0
      is a signed zero, never NaN, and y - y is +0.0;
    * both sums start at +0.0, and a round-to-nearest sum is -0.0 only when
      both addends are, so neither sum is ever -0.0 and adding +-0.0 leaves
      it unchanged, as adding the oracle's 0.0 does.
    """
    shape = (len(gaps), *model.shape)
    cols = model.shape[1]
    if isinstance(policy, UniformRandom):
        pulls = np.stack([rng.binomial(horizon, 0.5, _BLOCK) for rng in rngs])[:, :cols]
        return np.broadcast_to(pulls, shape)
    half = 0.5 * np.asarray(gaps, dtype=float)[:, None, None]
    mu1 = np.where(model == 1, half, -half)  # arm 1's mean
    if isinstance(policy, ExploreThenCommit):
        tau = resolve_tau(policy, horizon)
        commit1 = 2.0 * tau * mu1 + math.sqrt(2.0 * tau) * _normals(rngs, cols) >= 0.0
        return tau + (horizon - 2 * tau) * commit1
    thompson = isinstance(policy, ThompsonGaussian)
    per = 2 if thompson else 1
    s1 = np.zeros(shape)
    s2 = np.zeros(shape)
    n1 = np.zeros(shape)  # counts held as floats, exact up to 2**53
    pick, y, idx1, idx2 = (np.empty(shape) for _ in range(4))
    for t, rows in enumerate(_rounds(rngs, per * horizon, per, cols)):
        if thompson:
            # pick = s1 / d1 - s2 / d2 + sqrt(1 / d1 + 1 / d2) W >= 0, with
            # d1 and then 1 / d1 in idx1, d2 and then 1 / d2 in idx2
            np.add(n1, 1.0, out=idx1)
            np.subtract(t + 1.0, n1, out=idx2)  # arm 2's pulls + 1, exact
            np.divide(s1, idx1, out=pick)
            np.divide(s2, idx2, out=y)
            pick -= y
            np.divide(1.0, idx1, out=idx1)
            np.divide(1.0, idx2, out=idx2)
            idx1 += idx2
            np.sqrt(idx1, out=idx1)
            idx1 *= rows[:, 0]
            pick += idx1
            np.greater_equal(pick, 0.0, out=pick)
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
    return _alone(config)


# ------------------------------------------------------------------ passes


def _gaps(configs: Sequence[BanditConfig]) -> tuple[np.ndarray, np.ndarray]:
    """A bandit pass's distinct gaps, ascending, and each config's index
    among them."""
    return np.unique([config.gap for config in configs], return_inverse=True)


def _width(configs: Sequence[BanditConfig | EstimationConfig]) -> int:
    """k, the rows of a pass's (k, G, 256) rollout state: its distinct
    gaps (`_gaps`), or 1 for an estimation, whose configs all run on the
    one noise mean."""
    if isinstance(configs[0], EstimationConfig):
        return 1
    return len(_gaps(configs)[0])


def _groups(configs: Sequence[BanditConfig | EstimationConfig]) -> list[range]:
    """The consecutive groups of blocks that a pass (`_pass_key`) is drawn
    and rolled out in: each holds at most _ROLLOUT_ELEMENTS values of
    (k, G, 256) state, or one block."""
    blocks = _blocks(configs[0].replicates)
    step = max(1, _ROLLOUT_ELEMENTS // (_width(configs) * _BLOCK))
    return [blocks[start : start + step] for start in range(0, len(blocks), step)]


def _cost(configs: Sequence[BanditConfig | EstimationConfig], group: range) -> int:
    """The time of rolling a pass out over a group, in array operations on
    one gap's (256,) state: per block 600 to key the stream and draw and
    finish a pass of one row, and for UCB and Thompson 25 more a row of
    normals and 20 per round and gap.  At the default verify battery
    (T = 200, 9 gaps, n = 100) a block costs 46,600 for Thompson, 41,600
    for UCB and 600 for each of the uniform policy, explore-then-commit and
    the estimation; timed at 50,000 replicates on a 2-CPU Xeon VM, UCB and
    Thompson took 0.14 to 0.15 us a unit and the others 0.11 to 0.23."""
    first = configs[0]
    policy = getattr(first, "policy", None)
    if not isinstance(policy, (UCB, ThompsonGaussian)):
        return len(group) * 600
    rows = first.horizon * (2 if isinstance(policy, ThompsonGaussian) else 1)
    return len(group) * (600 + 25 * rows + 20 * first.horizon * _width(configs))


def _pass_losses(configs: Sequence[BanditConfig | EstimationConfig], group: range) -> list[np.ndarray]:
    """Losses of the configs of one pass (`_pass_key`) on their replicates
    in one group of blocks (`_groups`), in input order, drawn and rolled out
    at once.  A group of one block is rolled out over the replicates it
    keeps only, so a short run does not roll out a whole block."""
    first = configs[0]
    kept = min(group.stop * _BLOCK, first.replicates) - group.start * _BLOCK
    model, rngs = _draw(first.seed, group, kept if len(group) == 1 else _BLOCK)
    # the replicates past R that a group of blocks rolled out are dropped here
    if isinstance(first, EstimationConfig):
        # ybar - theta is z / sqrt(n) for one standard normal z
        noise = (_normals(rngs, model.shape[1]) / math.sqrt(first.n)).ravel()[:kept]
        return [_estimate(config, model.ravel()[:kept], noise) for config in configs]
    gaps, row_gap = _gaps(configs)
    n1 = _rollout(first.policy, first.horizon, gaps, model, rngs).reshape(len(gaps), -1)[:, :kept]
    regret = _regret(gaps, first.horizon, model.ravel()[:kept], n1)
    return [regret[g] for g in row_gap]


def _alone(config: BanditConfig | EstimationConfig) -> np.ndarray:
    """(reps,) losses of one config, group by group, in this process."""
    return np.concatenate([_pass_losses([config], group)[0] for group in _groups([config])])


def _threads() -> int:
    """Threads of this process as CPython counts them when it warns of a
    fork: the OS's count where /proc lists it, so numpy's BLAS pool counts
    too, else the Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _workers(work: int) -> int:
    """Processes that share this much work (`_cost`): one per usable CPU,
    as far as each gets _WORK_PER_WORKER, and 1 where the process may not
    fork: no os.fork or CPU affinity, or a second OS thread, which could
    hold a lock that the child would never see released."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or _threads() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // _WORK_PER_WORKER))


def _split(pieces: list[tuple], workers: int) -> list[tuple]:
    """The (configs, group, ...) pieces of a call's passes, the costliest
    of more than one block cut in two, until there are `workers` of them or
    each is one block.  A whole group rolls out fastest, but a worker left
    without one would idle: a call of one pass would run in one process."""
    pieces = list(pieces)
    while len(pieces) < workers:
        cuttable = [i for i, (configs, group, *_) in enumerate(pieces) if len(group) > 1]
        if not cuttable:
            break
        i = max(cuttable, key=lambda i: _cost(*pieces[i][:2]))
        configs, group, *rest = pieces[i]
        half = (len(group) + 1) // 2
        pieces[i : i + 1] = [(configs, group[:half], *rest), (configs, group[half:], *rest)]
    return pieces


def _deal(costs: Sequence[int], workers: int) -> list[int]:
    """The worker of each group: largest cost first, each to the least
    loaded worker, the lowest-numbered of a tie (longest processing time
    first; Graham, SIAM J. Appl. Math. 1969).  Worker 0 takes the largest,
    and as every cost is positive, each worker gets a group."""
    loads, owners = [0] * workers, [0] * len(costs)
    for i in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
        owners[i] = worker = loads.index(min(loads))
        loads[worker] += costs[i]
    return owners


def simulate_shared(configs: Sequence[BanditConfig | EstimationConfig]) -> list[SampleSet]:
    """Loss samples of the configs, in their order.

    Configs that read the same rows of the same blocks form one pass
    (`_pass_key`): each block is drawn once for the pass, each policy is
    rolled out once per horizon over all its gaps, and each estimation size
    is drawn once for all its estimators and separations.  Every sample
    equals that of simulating its config alone.

    Each pass is cut into its groups of blocks (`_groups`), groups fewer
    than the workers (`_workers`) are cut finer (`_split`), and whole
    groups are dealt to the workers by their cost (`_deal`).  The
    process forks the other workers once, works the groups of worker 0,
    the largest group among them, and those of any worker whose fork
    failed, and reaps every child before it returns or raises.  A failed
    child writes its traceback to stderr, and a child whose caller is gone
    stops at its next group.  Workers write their losses into one shared
    anonymous mapping; a replicate's draws depend only on (seed,
    replicate), so no byte changes.
    """
    passes: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        passes.setdefault(_pass_key(config), []).append(i)
    members = [[configs[i] for i in indices] for indices in passes.values()]
    # one (members, replicates) table of losses per pass; the mapping is
    # released with the last array that views it
    sizes = [len(pass_configs) * pass_configs[0].replicates for pass_configs in members]
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(1, sum(sizes))), dtype=float)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    tables = [part.reshape(len(pass_configs), -1) for part, pass_configs in zip(parts, members)]
    groups = [
        (pass_configs, group, table)
        for pass_configs, table in zip(members, tables)
        for group in _groups(pass_configs)
    ]
    workers = _workers(sum(_cost(pass_configs, group) for pass_configs, group, _ in groups))
    groups = _split(groups, workers)
    workers = min(workers, len(groups))
    owners = _deal([_cost(pass_configs, group) for pass_configs, group, _ in groups], workers)
    if workers > 1:
        # loads numpy.random, which the children then inherit rather than
        # each import it anew
        replicate_rng(configs[0].seed, 0)

    caller = os.getpid()

    def work(worker: int) -> None:
        for (pass_configs, group, table), owner in zip(groups, owners):
            if owner != worker:
                continue
            if os.getpid() != caller and os.getppid() != caller:
                os._exit(1)  # the caller is gone, and nothing reads the losses
            start = group.start * _BLOCK
            for row, losses in zip(table, _pass_losses(pass_configs, group)):
                row[start : start + losses.size] = losses

    pids = []
    # worker 0 holds the largest group, so what fails in every draw fails
    # in this process, as it raised
    own = [0]
    try:
        for worker in range(1, workers):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller works the rest
                own += range(worker, workers)
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
    for indices, table in zip(passes.values(), tables):
        for i, row in zip(indices, table):
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

    Known laws: the uniform policy up to horizon _MAX_EXACT_HORIZON,
    explore-then-commit, the sign-commit estimator, and the always-zero
    estimator.  Explore-then-commit pulls the worse arm tau times, and
    T - tau times where it commits to it, with probability
    P(Z > g sqrt(tau / 2)) under either model (Garivier, Lattimore and
    Kaufmann, NeurIPS 2016); at 2 tau = T the two regrets are one.
    """
    if isinstance(config, BanditConfig):
        policy, horizon = config.policy, config.horizon
        if isinstance(policy, UniformRandom) and horizon <= _MAX_EXACT_HORIZON:
            return exact_uniform_bandit_law(config.gap, horizon)
        if isinstance(policy, ExploreThenCommit):
            tau = resolve_tau(policy, horizon)
            right, wrong = config.gap * tau, config.gap * (horizon - tau)
            if wrong == right:
                return DiscreteLossDistribution._from_columns((right,), (1.0,))
            # p may underflow to 0.0; its atom is kept
            p = normal_upper_tail(config.gap * math.sqrt(tau / 2))
            return DiscreteLossDistribution._from_columns((right, wrong), (1.0 - p, p))
        return None
    if config.estimator is Estimator.SIGN_COMMIT:
        return exact_sign_estimator_law(config.n, config.delta)
    if config.estimator is Estimator.ALWAYS_ZERO:
        # |0 - theta| = delta under either sign, with certainty
        return DiscreteLossDistribution._from_columns((config.delta,), (1.0,))
    return None
