"""Independent oracles that only the tests use: brute-force and reference
forms of what the package computes in closed or batched form, and identities
it must satisfy."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from cvarbounds import sim
from cvarbounds.divergences import DivergenceKind, hellinger2_bernoulli, kl_bernoulli
from cvarbounds.errors import _check_fields
from cvarbounds.inversion import BRACKET_TOL, InversionResult
from cvarbounds.risk import EXACT_TOL, DiscreteLossDistribution, RiskLevel, SampleSet, empirical_cvar
from cvarbounds.sim import BanditConfig, ExploreThenCommit, UCB, UniformRandom, resolve_tau

_MIN_ORACLE_GRID = 1_000
_MIN_KL_REPLICATES = 1_000
# slack for the hellinger <= kl comparison; both sides are closed forms
_ORDER_TOL = 1e-12


# ------------------------------------------------------------------- bounds


@lru_cache(maxsize=8)
def _half_unit_grid(points: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.linspace(0.0, 0.5, points)
    roots = np.sqrt(xs)
    xs.setflags(write=False)
    roots.setflags(write=False)
    return xs, roots


def bound_factor_grid_min(level: RiskLevel, rho: float, grid_points: int) -> float:
    """Brute-force check of `bound_factor`: minimize
    1/2 - x + (sqrt(x) - rho/sqrt(2))_+^2 / (1 - alpha) over an even grid of
    x in [0, 1/2] including both endpoints.  Never below the closed form by
    more than grid resolution."""
    grid_points = int(grid_points)
    if grid_points < _MIN_ORACLE_GRID:
        raise ValueError(f"grid_points must be >= {_MIN_ORACLE_GRID}, got {grid_points}")
    _check_fields({"rho": rho})
    rho = float(rho)
    xs, roots = _half_unit_grid(grid_points)
    gap = np.maximum(roots - rho / math.sqrt(2.0), 0.0)
    vals = 0.5 - xs + gap * gap / (1.0 - level.alpha)
    return float(vals.min())


# -------------------------------------------------------------- divergences


def kl_gaussian_unit_var(mu1: float, mu2: float) -> float:
    """KL(N(mu1, 1) || N(mu2, 1)) = (mu1 - mu2)^2 / 2."""
    d = float(mu1) - float(mu2)
    return 0.5 * d * d


def hellinger_le_kl_check(a: float, b: float) -> bool:
    """Squared Hellinger <= KL on the Bernoulli family (within rounding)."""
    return hellinger2_bernoulli(a, b) <= kl_bernoulli(a, b) + _ORDER_TOL


# ---------------------------------------------------------------- inversion

# the bisection stops once its bracket is BRACKET_TOL narrow AND the
# divergence gap across it is <= _BISECTION_GAP_TOL
_BISECTION_GAP_TOL = 1e-10
_MAX_BISECTIONS = 200


def bernoulli_inverse_bisection(kind: DivergenceKind, budget: float, b: float) -> InversionResult:
    """The bisection that `bernoulli_inverse` replaced, kept as its oracle:
    the smallest a in [0, b] with divergence from Bern(b) within the budget,
    as the feasible end of a bracket that halves until it closes.  Takes
    in-range floats only; `iterations` counts halvings."""
    div = kl_bernoulli if kind is DivergenceKind.KL else hellinger2_bernoulli
    if budget == 0.0:
        return InversionResult(a_minus=b, achieved_divergence=0.0, iterations=0)
    d_zero = div(0.0, b)
    if d_zero <= budget:
        return InversionResult(a_minus=0.0, achieved_divergence=d_zero, iterations=0)
    # invariant: div(lo) > budget >= div(hi)
    lo, hi = 0.0, b
    iterations = 0
    while iterations < _MAX_BISECTIONS:
        if hi - lo <= BRACKET_TOL and div(lo, b) - div(hi, b) <= _BISECTION_GAP_TOL:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if div(mid, b) <= budget:
            hi = mid
        else:
            lo = mid
        iterations += 1
    return InversionResult(a_minus=hi, achieved_divergence=div(hi, b), iterations=iterations)


def hellinger_inverse_closed(budget: float, b: float) -> float:
    """The relaxation oracle (sqrt(b) - sqrt(2 budget))_+^2: the bound
    template's move across a squared-Hellinger ball.  Never above the exact
    inverse, and exact at budget = 0."""
    _check_fields({"budget": budget, "b": b})
    budget, b = float(budget), float(b)
    root = math.sqrt(b) - math.sqrt(2.0 * budget)
    return root * root if root > 0.0 else 0.0


# --------------------------------------------------------------------- risk


def law_from_samples(samples: SampleSet) -> DiscreteLossDistribution:
    """Empirical measure of a sample set (equal weight per draw)."""
    n = samples.count
    return DiscreteLossDistribution(tuple((float(v), 1.0 / n) for v in samples.values))


def hinge_mean(samples: SampleSet, t: float) -> float:
    """Empirical hinge expectation (1/N) sum_i (x_i - t)_+.

    Nonincreasing and convex in t; equals mean(x) - t for t below every
    sample and 0 above every sample.
    """
    return float(np.maximum(samples.values - t, 0.0).mean())


def cvar_dominates_mean(samples: SampleSet, level: RiskLevel) -> bool:
    """True when empirical CVaR >= sample mean - EXACT_TOL.

    The inequality is an identity of the tail average, so a False return
    indicates a numerical defect rather than a property of the data.
    """
    return empirical_cvar(samples, level) >= samples.mean() - EXACT_TOL


# ------------------------------------------------------------------ bandits


def _reference_rollout(config: BanditConfig, model, own, noise) -> np.ndarray:
    """The round loop that rolled out one gap at a time, kept as the oracle
    of the batched rollout; returns the (reps, T) action array."""
    policy = config.policy
    if isinstance(policy, UniformRandom):
        return own
    reps, horizon, g = model.size, config.horizon, config.gap
    mu_arm1 = np.where(model == 1, 0.5 * g, -0.5 * g)
    actions = np.empty((reps, horizon), dtype=np.int8)
    n1 = np.zeros(reps, dtype=np.int64)
    s1 = np.zeros(reps)
    n2 = np.zeros(reps, dtype=np.int64)
    s2 = np.zeros(reps)
    committed = None
    tau = resolve_tau(policy, horizon) if isinstance(policy, ExploreThenCommit) else 0

    for t in range(horizon):
        if isinstance(policy, ExploreThenCommit):
            if t < tau:
                a = np.ones(reps, dtype=np.int8)
            elif t < 2 * tau:
                a = np.full(reps, 2, dtype=np.int8)
            else:
                if committed is None:
                    # equal exploration counts, so compare sums; ties -> arm 1
                    committed = np.where(s1 >= s2, 1, 2).astype(np.int8)
                a = committed
        elif isinstance(policy, UCB):
            if t == 0:
                a = np.ones(reps, dtype=np.int8)
            elif t == 1:
                a = np.full(reps, 2, dtype=np.int8)
            else:
                radius = policy.c_explore * math.sqrt(2.0 * math.log(t + 1))
                idx1 = s1 / n1 + radius / np.sqrt(n1)
                idx2 = s2 / n2 + radius / np.sqrt(n2)
                a = np.where(idx1 >= idx2, 1, 2).astype(np.int8)
        else:
            d1 = n1 + 1.0
            d2 = n2 + 1.0
            draw1 = s1 / d1 + own[:, t, 0] / np.sqrt(d1)
            draw2 = s2 / d2 + own[:, t, 1] / np.sqrt(d2)
            a = np.where(draw1 >= draw2, 1, 2).astype(np.int8)
        actions[:, t] = a
        on1 = a == 1
        y = np.where(on1, mu_arm1, -mu_arm1) + noise[:, t]
        n1 += on1
        n2 += ~on1
        s1 += np.where(on1, y, 0.0)
        s2 += np.where(on1, 0.0, y)
    return actions


def mc_transcript_kl(config: BanditConfig) -> tuple[float, float]:
    """Monte Carlo (estimate, standard error) of the transcript KL between
    the two models, simulated under model 1.

    Each replicate accumulates sum_t [(Y_t - mu_2(A_t))^2 - (Y_t - mu_1(A_t))^2] / 2
    along a transcript rolled out under model 1.  The model draw at the head
    of each replicate stream is consumed but ignored so the remaining draws
    align with the package's simulations.  Population value is g^2 T / 2 for
    any policy.
    """
    if config.replicates < _MIN_KL_REPLICATES:
        raise ValueError(
            f"mc_transcript_kl needs >= {_MIN_KL_REPLICATES} replicates, got {config.replicates}"
        )
    half_g = 0.5 * config.gap
    parts = []
    for draws in sim._chunk_draws(config):
        forced = np.ones(draws.model.size, dtype=np.int64)
        actions = _reference_rollout(config, forced, draws.own, draws.noise)
        mu1 = np.where(actions == 1, half_g, -half_g)  # chosen-arm mean under model 1
        y = mu1 + draws.noise
        parts.append(0.5 * ((y + mu1) ** 2 - (y - mu1) ** 2).sum(axis=1))
    per_transcript = np.concatenate(parts)
    estimate = float(per_transcript.mean())
    stderr = float(per_transcript.std(ddof=1)) / math.sqrt(config.replicates)
    return estimate, stderr
