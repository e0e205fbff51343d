#!/usr/bin/env python3
"""Bound vs simulated tail risk for every policy and estimator.

Runs a reduced-size version of the verify battery and prints the margin by
which each simulated CVaR clears its lower bound.
"""

import argparse
from typing import get_args

from cvarbounds.experiments import ExperimentConfig, ExperimentKind, parse_policy, run_experiment
from cvarbounds.sim import Estimator, Policy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, default=64)
    parser.add_argument("--n", type=int, default=49)
    parser.add_argument("--replicates", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = ExperimentConfig(
        kind=ExperimentKind.VERIFY,
        alphas=(0.0, 0.5, 0.9),
        horizon=args.horizon,
        gap="optimal",
        n=args.n,
        delta="optimal",
        policies=tuple(parse_policy(cls.name) for cls in get_args(Policy)),
        estimators=tuple(Estimator),
        replicates=args.replicates,
        seed=args.seed,
        scales=(0.5, 1.0, 2.0),
    )
    report = run_experiment(config)

    print(f"{'subject':<22}{'alpha':>6}{'scale':>7}{'bound':>10}{'cvar':>10}{'margin':>10}  ok")
    for row in report.rows:
        margin = row.empirical_cvar - row.bound
        scale = row.problem_params["scale"]
        flag = "yes" if row.dominated else "NO"
        print(
            f"{row.param_name:<22}{row.alpha:>6.2f}{scale:>7.2f}"
            f"{row.bound:>10.4f}{row.empirical_cvar:>10.4f}{margin:>+10.4f}  {flag}"
        )
    print(f"\nall dominated: {report.all_dominated}")
    print(f"wall time: {report.metadata['wall_time_s']:.1f}s")


if __name__ == "__main__":
    main()
