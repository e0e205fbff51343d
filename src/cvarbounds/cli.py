"""Command line front end.

Subcommands: psi (profile table), bound (closed-form bounds), simulate
(Monte Carlo for one policy or estimator), verify (bound vs simulation for
batteries of policies and estimators).  Exit codes: 0 success (and, for
verify, every row dominated), 1 verify found a violated bound, 2 usage or
validation error, 3 report I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import get_args

from .experiments import (
    OPTIMAL,
    ConfigError,
    ExperimentConfig,
    ExperimentKind,
    OutputFormat,
    ReportIOError,
    parse_policy,
    run_experiment,
    emit_report,
)
from .sim import Estimator, Policy

__all__ = ["main", "build_parser"]

_POLICY_CHOICES = tuple(policy.name for policy in get_args(Policy))
_ESTIMATOR_CHOICES = tuple(e.value for e in Estimator)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _add_common(sub: argparse.ArgumentParser, default_alphas: tuple[float, ...]) -> None:
    sub.add_argument(
        "--alpha",
        action="append",
        type=float,
        default=None,
        help=f"tail level in [0, 1); repeatable (default {list(default_alphas)})",
    )
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument(
        "--format",
        choices=[f.value for f in OutputFormat],
        default=OutputFormat.CSV.value,
        help="report format (default csv)",
    )
    sub.add_argument("--out", default=None, metavar="PATH", help="write the report here instead of stdout")
    sub.set_defaults(default_alphas=default_alphas)


def _add_scale(sub: argparse.ArgumentParser, default: tuple[float, ...]) -> None:
    sub.add_argument(
        "--scale",
        action="append",
        type=float,
        default=None,
        help=f"multiplier on the separation/gap; repeatable (default {list(default)})",
    )
    sub.set_defaults(default_scales=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvarbounds",
        description="Tail-risk lower bounds for two-point Gaussian decision problems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    psi = subs.add_parser("psi", help="tabulate the normalized bound profile")
    _add_common(psi, (0.0,))
    psi.add_argument("--rho-max", type=float, default=1.2, help="largest rho (default 1.2)")
    psi.add_argument("--rho-step", type=float, default=0.01, help="rho grid step (default 0.01)")

    bound = subs.add_parser("bound", help="closed-form bounds for one problem")
    _add_common(bound, (0.0,))
    _add_scale(bound, (1.0,))
    bound.add_argument("--n", type=int, default=None, help="estimation sample count")
    bound.add_argument("--delta", default=None, help=f"separation, or '{OPTIMAL}'")
    bound.add_argument("--horizon", type=int, default=None, help="bandit horizon T")
    bound.add_argument("--gap", default=None, help=f"arm gap g, or '{OPTIMAL}'")

    sim = subs.add_parser("simulate", help="Monte Carlo CVaR vs bound")
    _add_common(sim, (0.0,))
    _add_scale(sim, (1.0,))
    sim.add_argument("--n", type=int, default=None, help="estimation sample count")
    sim.add_argument("--delta", default=None, help=f"separation, or '{OPTIMAL}'")
    sim.add_argument("--estimator", choices=_ESTIMATOR_CHOICES, default=None)
    sim.add_argument("--horizon", type=int, default=None, help="bandit horizon T")
    sim.add_argument("--gap", default=None, help=f"arm gap g, or '{OPTIMAL}'")
    sim.add_argument("--policy", choices=_POLICY_CHOICES, default=None)
    sim.add_argument("--tau", type=int, default=None, help="explore length per arm (etc)")
    sim.add_argument("--ucb-c", type=float, default=1.0, help="ucb exploration constant")
    sim.add_argument("--replicates", type=int, default=10_000)

    verify = subs.add_parser("verify", help="check dominance across policy/estimator batteries")
    _add_common(verify, (0.0, 0.5, 0.9))
    _add_scale(verify, (0.5, 1.0, 2.0))
    verify.add_argument("--horizon", type=int, default=200)
    verify.add_argument("--n", type=int, default=100)
    verify.add_argument("--gap", default=OPTIMAL, help=f"arm gap g (default '{OPTIMAL}')")
    verify.add_argument("--delta", default=OPTIMAL, help=f"separation (default '{OPTIMAL}')")
    verify.add_argument(
        "--policy",
        action="append",
        choices=_POLICY_CHOICES,
        default=None,
        help="repeatable; default all four policies",
    )
    verify.add_argument(
        "--estimator",
        action="append",
        choices=_ESTIMATOR_CHOICES,
        default=None,
        help="repeatable; default all three estimators",
    )
    verify.add_argument("--tau", type=int, default=None, help="explore length per arm (etc)")
    verify.add_argument("--ucb-c", type=float, default=1.0, help="ucb exploration constant")
    verify.add_argument("--replicates", type=int, default=50_000)
    return parser


def _numeric_or_optimal(raw: str | None) -> float | str | None:
    """The number `raw` spells, or `raw` itself: OPTIMAL, None, or a string
    that `validate` then reports under its field."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        return raw


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    alphas = tuple(args.alpha) if args.alpha else args.default_alphas
    common = dict(alphas=alphas, seed=args.seed)
    if args.command == "psi":
        return ExperimentConfig(
            kind=ExperimentKind.PSI, rho_max=args.rho_max, rho_step=args.rho_step, **common
        )
    scales = tuple(args.scale) if args.scale else args.default_scales
    if args.command == "bound":
        return ExperimentConfig(
            kind=ExperimentKind.BOUND,
            n=args.n,
            delta=_numeric_or_optimal(args.delta),
            horizon=args.horizon,
            gap=_numeric_or_optimal(args.gap),
            scales=scales,
            **common,
        )
    if args.command == "simulate":
        bandit_side = args.policy is not None or args.horizon is not None or args.gap is not None
        est_side = args.estimator is not None or args.n is not None or args.delta is not None
        if bandit_side == est_side:
            raise ConfigError(
                {"command": "simulate needs either --horizon/--gap/--policy or --n/--delta/--estimator"}
            )
        # validate reports a missing --policy or --estimator
        kind = ExperimentKind.SIMULATE_BANDIT if bandit_side else ExperimentKind.SIMULATE_ESTIMATION
        policy_names = () if args.policy is None else (args.policy,)
        estimator_names = () if args.estimator is None else (args.estimator,)
    else:
        kind = ExperimentKind.VERIFY
        policy_names = tuple(args.policy) if args.policy else _POLICY_CHOICES
        estimator_names = tuple(args.estimator) if args.estimator else _ESTIMATOR_CHOICES
    return ExperimentConfig(
        kind=kind,
        n=args.n,
        delta=_numeric_or_optimal(args.delta),
        horizon=args.horizon,
        gap=_numeric_or_optimal(args.gap),
        policies=tuple(parse_policy(p, args.tau, args.ucb_c) for p in policy_names),
        estimators=tuple(Estimator(e) for e in estimator_names),
        replicates=args.replicates,
        scales=scales,
        **common,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        report = run_experiment(config)
        text = emit_report(report, OutputFormat(args.format), args.out)
    except ReportIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out is None:
        sys.stdout.write(text)
    if config.kind is ExperimentKind.VERIFY and not report.all_dominated:
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
