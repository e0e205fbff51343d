"""Command line front end.

Subcommands: psi (profile table), bound (closed-form bounds), simulate
(Monte Carlo for one policy or estimator), verify (bound vs simulation for
batteries of policies and estimators), each the `ExperimentKind` of its
name.  Each takes only flags it reads: `--seed`, `--tau` and `--ucb-c` go
to simulate and verify alone, and a `--tau` or `--ucb-c` that no selected
policy reads is refused.  Exit codes: 0 success (and, for verify, every
row dominated), 1 verify found a violated bound, 2 usage or validation
error, 3 report I/O failure.
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
    _readers,
    parse_policy,
    run_experiment,
    emit_report,
)
from .sim import UCB, Estimator, Policy

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
    sub.add_argument(
        "--format",
        choices=[f.value for f in OutputFormat],
        default=OutputFormat.CSV.value,
        help="report format (default csv)",
    )
    sub.add_argument("--out", default=None, metavar="PATH", help="write the report here instead of stdout")
    sub.set_defaults(default_alphas=default_alphas)


def _numeric_or_optimal(raw: str) -> float | str:
    """The number `raw` spells, or `raw` itself: OPTIMAL, or a string that
    `validate` then reports under its field."""
    try:
        return float(raw)
    except ValueError:
        return raw


def _add_problem(
    sub: argparse.ArgumentParser,
    default_scales: tuple[float, ...],
    n: int | None = None,
    delta: str | None = None,
    horizon: int | None = None,
    gap: str | None = None,
) -> None:
    """The scale flag and both problems' flags.  A size with a default goes
    without help, and a parameter's help names its default."""
    sub.add_argument(
        "--scale",
        action="append",
        type=float,
        default=None,
        help=f"multiplier on the separation/gap; repeatable (default {list(default_scales)})",
    )
    sub.set_defaults(default_scales=default_scales)
    for size, size_default, size_help, param, param_default, what in (
        ("--n", n, "estimation sample count", "--delta", delta, "separation"),
        ("--horizon", horizon, "bandit horizon T", "--gap", gap, "arm gap g"),
    ):
        sub.add_argument(size, type=int, default=size_default, help=size_help if size_default is None else None)
        text = f"{what}, or '{OPTIMAL}'" if param_default is None else f"{what} (default '{OPTIMAL}')"
        sub.add_argument(param, type=_numeric_or_optimal, default=param_default, help=text)


def _add_variants(sub: argparse.ArgumentParser, default_replicates: int) -> None:
    """The variant flags; the estimator and policy flags repeat, so that
    `validate` sees every value given, and refuses a second one to simulate."""
    for flag, choices in (("--estimator", _ESTIMATOR_CHOICES), ("--policy", _POLICY_CHOICES)):
        text = f"repeatable; simulate takes exactly one, verify defaults to every {flag[2:]}"
        sub.add_argument(flag, action="append", choices=choices, help=text)
    # unset by default, so that the policy's field states its default
    sub.add_argument("--tau", type=int, help="explore length per arm (etc only)")
    sub.add_argument("--ucb-c", type=float, help=f"exploration constant (ucb only; default {UCB.c_explore})")
    sub.add_argument("--replicates", type=int, default=default_replicates)
    sub.add_argument("--seed", type=int, default=ExperimentConfig.seed, help="master seed (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvarbounds",
        description="Tail-risk lower bounds for two-point Gaussian decision problems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    psi = subs.add_parser("psi", help="tabulate the normalized bound profile")
    _add_common(psi, (0.0,))
    psi.add_argument(
        "--rho-max", type=float, default=ExperimentConfig.rho_max, help="largest rho (default %(default)s)"
    )
    psi.add_argument(
        "--rho-step", type=float, default=ExperimentConfig.rho_step, help="rho grid step (default %(default)s)"
    )

    bound = subs.add_parser("bound", help="closed-form bounds for one problem")
    _add_common(bound, (0.0,))
    _add_problem(bound, ExperimentConfig.scales)

    sim = subs.add_parser("simulate", help="Monte Carlo CVaR vs bound")
    _add_common(sim, (0.0,))
    _add_problem(sim, ExperimentConfig.scales)
    _add_variants(sim, ExperimentConfig.replicates)

    verify = subs.add_parser("verify", help="check dominance across policy/estimator batteries")
    _add_common(verify, (0.0, 0.5, 0.9))
    _add_problem(verify, (0.5, 1.0, 2.0), n=100, delta=OPTIMAL, horizon=200, gap=OPTIMAL)
    _add_variants(verify, 50_000)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    alphas = tuple(args.alpha) if args.alpha else args.default_alphas
    common = dict(kind=ExperimentKind(args.command), alphas=alphas)
    if args.command == "psi":
        return ExperimentConfig(rho_max=args.rho_max, rho_step=args.rho_step, **common)
    # bound takes no variant flags and keeps the default replicate count and
    # seed; validate infers the problem of bound and simulate from the fields set
    policy_names, estimator_names, settings = (), (), {}
    if args.command in ("simulate", "verify"):
        common.update(replicates=args.replicates, seed=args.seed)
        policy_names, estimator_names = tuple(args.policy or ()), tuple(args.estimator or ())
        settings = {"tau": args.tau, "ucb_c": args.ucb_c}
    if args.command == "verify":
        policy_names = policy_names or _POLICY_CHOICES
        estimator_names = estimator_names or _ESTIMATOR_CHOICES
    config = ExperimentConfig(
        n=args.n,
        delta=args.delta,
        horizon=args.horizon,
        gap=args.gap,
        policies=tuple(parse_policy(p, args.tau, args.ucb_c) for p in policy_names),
        estimators=tuple(Estimator(e) for e in estimator_names),
        scales=tuple(args.scale) if args.scale else args.default_scales,
        **common,
    )
    # a setting no selected policy reads would change nothing: refused, with
    # every other problem of the config
    problems = {
        setting: f"read by no selected policy, only by {', '.join(_readers(setting))}, got {value!r}"
        for setting, value in settings.items()
        if value is not None and not set(_readers(setting)) & set(policy_names)
    }
    if problems:
        try:
            config.validate()
        except ConfigError as exc:
            problems.update(exc.problems)
        raise ConfigError(problems)
    return config


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
