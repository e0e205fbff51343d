"""Command line front end.

Subcommands: psi (profile table), bound (closed-form bounds), simulate
(Monte Carlo for one policy or estimator), verify (bound vs simulation for
batteries of policies and estimators), each the `ExperimentKind` of its
name.  Each offers --alpha, --format, --out and a flag for each config
field its kind reads (`experiments._READ_FIELDS`), with --tau and --ucb-c
beside --policy; a --tau or --ucb-c that no selected policy reads is
refused.  Exit codes: 0 success (and, for verify, every row dominated),
1 verify found a violated bound, 2 usage or validation error, 3 report I/O
failure.
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
    _READ_FIELDS,
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


def _numeric_or_optimal(raw: str) -> float | str:
    """The number `raw` spells, or `raw` itself: OPTIMAL, or a string that
    `validate` then reports under its field."""
    try:
        return float(raw)
    except ValueError:
        return raw


# each config field's flag, argparse settings and help; a subcommand takes
# --alpha and the flags of the fields its kind reads (`_READ_FIELDS`), and a
# repeatable flag defaults to None, so that `append` starts from an empty list
_FLAGS = {
    "alphas": ("--alpha", dict(action="append", type=float), "tail level in [0, 1); repeatable"),
    "scales": ("--scale", dict(action="append", type=float), "multiplier on the separation/gap; repeatable"),
    "n": ("--n", dict(type=int), "estimation sample count"),
    "delta": ("--delta", dict(type=_numeric_or_optimal), f"separation, or '{OPTIMAL}'"),
    "horizon": ("--horizon", dict(type=int), "bandit horizon T"),
    "gap": ("--gap", dict(type=_numeric_or_optimal), f"arm gap g, or '{OPTIMAL}'"),
    "estimators": ("--estimator", dict(action="append", choices=_ESTIMATOR_CHOICES), "estimator to run; repeatable"),
    "policies": ("--policy", dict(action="append", choices=_POLICY_CHOICES), "policy to run; repeatable"),
    "replicates": ("--replicates", dict(type=int), "Monte Carlo replicates"),
    "seed": ("--seed", dict(type=int), "master seed"),
    "rho_max": ("--rho-max", dict(type=float), "largest rho"),
    "rho_step": ("--rho-step", dict(type=float), "rho grid step"),
}

_SUBCOMMAND_HELP = {
    ExperimentKind.PSI: "tabulate the normalized bound profile",
    ExperimentKind.BOUND: "closed-form bounds for one problem",
    ExperimentKind.SIMULATE: "Monte Carlo CVaR vs bound",
    ExperimentKind.VERIFY: "check dominance across policy/estimator batteries",
}

# verify's battery: three tail levels and scales at the worst-case gap and
# separation, every policy and every estimator
_VERIFY_DEFAULTS = dict(
    alphas=(0.0, 0.5, 0.9), scales=(0.5, 1.0, 2.0), n=100, delta=OPTIMAL, horizon=200, gap=OPTIMAL,
    replicates=50_000, policies=_POLICY_CHOICES, estimators=_ESTIMATOR_CHOICES,
)


def _default(kind: ExperimentKind, field: str) -> object:
    """What a subcommand takes for a field whose flag is not given: verify's
    battery, else one tail level and the `ExperimentConfig` default."""
    if kind is ExperimentKind.VERIFY and field in _VERIFY_DEFAULTS:
        return _VERIFY_DEFAULTS[field]
    return (0.0,) if field == "alphas" else getattr(ExperimentConfig, field)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvarbounds",
        description="Tail-risk lower bounds for two-point Gaussian decision problems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for kind in ExperimentKind:
        sub = subs.add_parser(kind.value, help=_SUBCOMMAND_HELP[kind])
        for field in ("alphas", *_READ_FIELDS[kind]):
            flag, settings, text = _FLAGS[field]
            default = _default(kind, field)
            if default not in (None, ()):
                text += f" (default {list(default) if isinstance(default, tuple) else default})"
            sub.add_argument(flag, **settings, default=None if "action" in settings else default, help=text)
            if field == "policies":
                # unset by default, so that the policy's field states its default
                sub.add_argument("--tau", type=int, help="explore length per arm (etc only)")
                text = f"exploration constant (ucb only; default {UCB.c_explore})"
                sub.add_argument("--ucb-c", type=float, help=text)
        formats, csv = [f.value for f in OutputFormat], OutputFormat.CSV.value
        sub.add_argument("--format", choices=formats, default=csv, help=f"report format (default {csv})")
        sub.add_argument("--out", default=None, metavar="PATH", help="write the report here instead of stdout")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    kind = ExperimentKind(args.command)
    values = {}
    for field in ("alphas", *_READ_FIELDS[kind]):
        given = getattr(args, _FLAGS[field][0][2:].replace("-", "_"))  # the flag's dest
        if given is None:
            given = _default(kind, field)
        values[field] = tuple(given) if isinstance(given, list) else given
    # variants are named on the command line; a kind that reads none keeps
    # the empty default, and validate infers the problem of bound and
    # simulate from the fields set
    settings = {setting: getattr(args, setting, None) for setting in ("tau", "ucb_c")}
    policy_names = values.get("policies", ())
    values["policies"] = tuple(parse_policy(name, **settings) for name in policy_names)
    values["estimators"] = tuple(map(Estimator, values.get("estimators", ())))
    config = ExperimentConfig(kind=kind, **values)
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
