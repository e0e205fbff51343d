"""Acceptance gate: one test per release criterion, each printing a PASS or
FAIL line with the measured quantity so the run log doubles as a report."""

import csv
import math
import random
import time

import numpy as np
from oracles import bound_factor_grid_min, cvar_dominates_mean, hellinger_inverse_closed, mc_transcript_kl

from cvarbounds.bounds import (
    TwoPointSpec,
    balanced_bound,
    bandit_bound,
    bound_factor,
    estimation_bound,
    optimal_bound_constant,
    optimal_gap,
    optimal_separation,
    two_point_bound,
)
from cvarbounds.cli import main as cli_main
from cvarbounds.divergences import (
    DivergenceKind,
    HellingerBudget,
    hellinger2_bernoulli,
    kl_bernoulli,
)
from cvarbounds.inversion import bernoulli_inverse
from cvarbounds.risk import RiskLevel, SampleSet
from cvarbounds.sim import (
    BanditConfig,
    UCB,
    UniformRandom,
    exact_sign_estimator_law,
    exact_uniform_bandit_law,
)
from cvarbounds.risk import exact_cvar

ALPHA_GRID = [i * 0.05 for i in range(20)]  # 0, 0.05, ..., 0.95


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_01_factor_matches_grid_oracle():
    started = time.perf_counter()
    rhos = [i * 0.01 for i in range(121)]  # 0, 0.01, ..., 1.2
    worst = 0.0
    for alpha in ALPHA_GRID:
        level = RiskLevel(alpha)
        for rho in rhos:
            err = abs(bound_factor(level, rho).value - bound_factor_grid_min(level, rho, 10**6))
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    _criterion(
        "closed-form profile matches 1e6-point grid oracle within 1e-5",
        worst <= 1e-5 and elapsed <= 60.0,
        f"worst err {worst:.2e}, {elapsed:.1f}s over {len(ALPHA_GRID) * len(rhos)} points",
    )


def test_02_optimal_constant_matches_grid_argmax():
    grid = np.arange(0.0, 1.0 + 1e-5, 1e-5)
    worst = 0.0
    for alpha in ALPHA_GRID:
        level = RiskLevel(alpha)
        best = max(r * bound_factor(level, float(r)).value for r in grid)
        worst = max(worst, abs(best - optimal_bound_constant(level)))
    exact_anchors = (
        optimal_bound_constant(RiskLevel(0.0)) == 2.0 / 27.0
        and optimal_bound_constant(RiskLevel(1.0 / 3.0)) == 1.0 / 9.0
    )
    _criterion(
        "optimized constant matches rho-grid argmax within 1e-5 and hits 2/27, 1/9 exactly",
        worst <= 1e-5 and exact_anchors,
        f"worst err {worst:.2e}, anchors exact: {exact_anchors}",
    )


def test_03_template_consistency():
    rng = random.Random(314159)
    worst_pair = 0.0
    for _ in range(1000):
        l_max = rng.uniform(0.05, 50.0)
        gamma = rng.uniform(0.0, 0.8)
        alpha = rng.uniform(0.0, 0.999)
        tp = two_point_bound(TwoPointSpec(l_max, l_max, HellingerBudget(gamma)), RiskLevel(alpha))
        bal = balanced_bound(l_max, HellingerBudget(gamma), RiskLevel(alpha))
        worst_pair = max(worst_pair, abs(tp.value - bal.value))
    worst_closed = 0.0
    for n, delta, alpha in [(100, 1 / 60, 0.0), (4, 0.2, 0.5), (250, 0.01, 0.9), (1, 1 / 6, 0.3)]:
        level = RiskLevel(alpha)
        got = estimation_bound(n, delta, level).value
        want = 2.0 * delta * bound_factor(level, 2.0 * math.sqrt(n) * delta).value
        worst_closed = max(worst_closed, abs(got - want) / max(want, 1e-300))
    for g, horizon, alpha in [(1 / 90, 900, 0.0), (0.02, 100, 0.5), (0.3, 10, 0.9), (1 / 6, 4, 0.3)]:
        level = RiskLevel(alpha)
        got = bandit_bound(g, horizon, level).value
        want = g * horizon * bound_factor(level, g * math.sqrt(horizon)).value
        worst_closed = max(worst_closed, abs(got - want) / max(want, 1e-300))
    _criterion(
        "balanced template agrees with the general template and the problem closed forms",
        worst_pair <= 1e-9 and worst_closed <= 1e-12,
        f"worst pair gap {worst_pair:.2e}, worst closed-form rel gap {worst_closed:.2e}",
    )


def test_04_exact_law_dominance():
    started = time.perf_counter()
    worst_margin = math.inf
    ok = True
    for alpha in (0.0, 0.5, 0.9):
        level = RiskLevel(alpha)
        for horizon in (4, 16, 64):
            g, _ = optimal_gap(horizon, level)
            exact = exact_cvar(exact_uniform_bandit_law(g, horizon), level)
            bound = bandit_bound(g, horizon, level).value
            ok &= exact >= bound - 1e-9
            worst_margin = min(worst_margin, exact - bound)
        for n in (4, 100):
            delta, _ = optimal_separation(n, level)
            exact = exact_cvar(exact_sign_estimator_law(n, delta), level)
            bound = estimation_bound(n, delta, level).value
            ok &= exact >= bound - 1e-9
            worst_margin = min(worst_margin, exact - bound)
    elapsed = time.perf_counter() - started
    _criterion(
        "exact-law CVaR dominates the bound at worst-case parameters",
        ok and elapsed <= 5.0,
        f"worst margin {worst_margin:+.4f}, {elapsed:.2f}s",
    )


def test_05_monte_carlo_dominance(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "verify.csv"
    rc = cli_main(["verify", "--out", str(out)])
    elapsed = time.perf_counter() - started
    with out.open() as f:
        rows = list(csv.DictReader(f))
    n_rows = len(rows)
    bad = [r for r in rows if r["dominated"] != "true"]
    # re-derive each verdict from the emitted numbers
    consistent = True
    for r in rows:
        emp = float(r["empirical_cvar"])
        slack = float(r["mc_slack"])
        bound = float(r["bound"])
        emp_ok = emp >= bound - slack
        exact_ok = r["exact_cvar"] == "" or float(r["exact_cvar"]) >= bound - 1e-9
        consistent &= (emp_ok and exact_ok) == (r["dominated"] == "true")
    _criterion(
        "full verify battery dominates within Monte Carlo slack and exits 0",
        rc == 0 and n_rows == 63 and not bad and consistent and elapsed <= 180.0,
        f"exit {rc}, {n_rows} rows, {len(bad)} violations, {elapsed:.0f}s",
    )


def test_06_cvar_never_below_mean():
    rng = np.random.default_rng(60)
    ok = True
    checked = 0
    for _ in range(1000):
        size = int(rng.integers(1, 200))
        kind = rng.integers(0, 3)
        if kind == 0:
            xs = rng.normal(scale=rng.uniform(0.1, 10.0), size=size)
        elif kind == 1:
            xs = rng.exponential(scale=rng.uniform(0.1, 5.0), size=size)
        else:
            xs = rng.integers(-3, 4, size=size).astype(float)
        samples = SampleSet(xs)
        for alpha in (0.0, 0.1, 0.5, 0.9, 0.99):
            ok &= cvar_dominates_mean(samples, RiskLevel(alpha))
            checked += 1
    _criterion(
        "empirical CVaR never drops below the mean (1e-12 tolerance)",
        ok,
        f"{checked} sample-set/level pairs",
    )


def test_07_transcript_kl_calibration():
    g, horizon, reps = 0.2, 100, 100_000
    target = g * g * horizon / 2.0
    ok = True
    details = []
    for policy in (UniformRandom(), UCB()):
        cfg = BanditConfig(horizon=horizon, gap=g, policy=policy, replicates=reps, seed=0)
        est, stderr = mc_transcript_kl(cfg)
        z = (est - target) / stderr
        ok &= abs(est - target) <= 4.0 * stderr
        details.append(f"{type(policy).__name__} z={z:+.2f}")
    _criterion(
        "Monte Carlo transcript KL sits within 4 standard errors of g^2 T / 2",
        ok,
        ", ".join(details),
    )


def test_08_inversion_round_trip():
    rng = np.random.default_rng(80)
    ok_round = ok_closed = ok_order = True
    worst_gap = 0.0
    for _ in range(10_000):
        b = float(rng.uniform(1e-3, 1.0 - 1e-3))
        kind = DivergenceKind.KL if rng.integers(0, 2) else DivergenceKind.SQUARED_HELLINGER
        full = kl_bernoulli(0.0, b) if kind is DivergenceKind.KL else hellinger2_bernoulli(0.0, b)
        budget = float(rng.uniform(1e-6, full * 0.999))
        res = bernoulli_inverse(kind, budget, b)
        ok_round &= budget - 1e-8 <= res.achieved_divergence <= budget
        worst_gap = max(worst_gap, budget - res.achieved_divergence)
    for _ in range(10_000):
        b = float(rng.uniform(0.0, 1.0))
        budget = float(rng.uniform(0.0, 1.2))
        closed = hellinger_inverse_closed(budget, b)
        exact = bernoulli_inverse(DivergenceKind.SQUARED_HELLINGER, budget, b).a_minus
        ok_closed &= closed <= exact + 1e-12
    for _ in range(10_000):
        a = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(1e-9, 1.0 - 1e-9))
        ok_order &= hellinger2_bernoulli(a, b) <= kl_bernoulli(a, b) + 1e-12
    _criterion(
        "divergence-ball inversion round-trips and orderings hold on 3x1e4 draws",
        ok_round and ok_closed and ok_order,
        f"worst active-budget gap {worst_gap:.2e}",
    )


def test_09_worst_case_scaling():
    ok = True
    details = []
    for alpha in (0.0, 0.5, 0.9):
        level = RiskLevel(alpha)
        for horizon in (100, 400, 1600):
            ratio = optimal_gap(4 * horizon, level)[1] / optimal_gap(horizon, level)[1]
            ok &= abs(ratio - 2.0) <= 1e-9
        for n in (100, 400, 1600):
            ratio = optimal_separation(4 * n, level)[1] / optimal_separation(n, level)[1]
            ok &= abs(ratio - 0.5) <= 1e-9
        details.append(f"a={alpha} ok")
    _criterion(
        "worst-case values scale as sqrt(T) for regret and 1/sqrt(n) for estimation",
        ok,
        ", ".join(details),
    )
