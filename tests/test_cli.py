import argparse
import csv
import json
import sys
from dataclasses import replace

import pytest

from cvarbounds import experiments, sim
from cvarbounds.bounds import estimation_bound
from cvarbounds.cli import _config_from_args, build_parser, main
from cvarbounds.risk import RiskLevel


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["psi", "--wat", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_alpha_is_usage_error(capsys):
    rc = main(["psi", "--alpha", "1.5"])
    assert rc == 2
    assert "alpha" in capsys.readouterr().err


def test_infinite_psi_grid_is_usage_error(capsys):
    assert main(["psi", "--rho-max", "inf"]) == 2
    assert "rho_max" in capsys.readouterr().err


def test_psi_table(tmp_path, capsys):
    out = tmp_path / "psi.csv"
    rc = main(["psi", "--alpha", "0.5", "--rho-max", "0.2", "--rho-step", "0.1", "--out", str(out)])
    assert rc == 0
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert [float(r["param_value"]) for r in rows] == [0.0, 0.1, 0.2]
    assert float(rows[0]["bound"]) == 0.5
    assert rows[0]["param_name"] == "rho"
    assert capsys.readouterr().out == ""  # written to file, not stdout


def test_psi_stdout(capsys):
    rc = main(["psi", "--rho-max", "0.1", "--rho-step", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha,param_name,param_value")
    assert len(out.strip().split("\n")) == 3  # header + rho in {0, 0.1} at alpha 0


@pytest.mark.parametrize(
    "rho_max, rho_step, want",
    [("1", "0.6", [0.0, 0.6]), ("0.36", "0.1", [0.0, 0.1, 0.2, 0.3]), ("0.3", "0.1", [0.0, 0.1, 0.2, 0.3])],
)
def test_psi_grid_ends_at_rho_max(rho_max, rho_step, want, capsys):
    # the grid stops at the last point not above --rho-max, and keeps one
    # that rounding puts a hair above it (3 * 0.1 is 0.30000000000000004)
    assert main(["psi", "--rho-max", rho_max, "--rho-step", rho_step]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [float(r["param_value"]) for r in rows] == pytest.approx(want, abs=1e-12)


def test_bound_estimation(capsys):
    rc = main(["bound", "--n", "100", "--delta", "0.0166666666667", "--alpha", "0"])
    assert rc == 0
    line = capsys.readouterr().out.strip().split("\n")[1]
    cells = line.split(",")
    want = estimation_bound(100, 0.0166666666667, RiskLevel(0.0)).value
    assert float(cells[3]) == pytest.approx(want, rel=1e-11)


def test_bound_requires_exactly_one_problem(capsys):
    rc = main(["bound", "--n", "10", "--delta", "0.1", "--horizon", "5", "--gap", "0.1"])
    assert rc == 2
    rc = main(["bound"])
    assert rc == 2
    capsys.readouterr()


def test_bound_rejects_garbage_param(capsys):
    # a value that is neither a number nor 'optimal' is reported under its field
    for flag, size in (("--delta", "--n"), ("--gap", "--horizon")):
        assert main(["bound", size, "10", flag, "tiny"]) == 2
        err = capsys.readouterr().err
        assert f"{flag[2:]}: " in err and "optimal" in err and "'tiny'" in err


def test_bound_at_underflowing_tail_level(capsys):
    # alpha^2 underflows to 0 at this level; the bound still renders
    assert main(["bound", "--alpha", "1e-200", "--horizon", "10", "--gap", "1e-300"]) == 0
    cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert float(cells[3]) == float(cells[4]) == 5e-300


_HUGE = str(10**400)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["bound", "--horizon", _HUGE, "--gap", "0.1"], "horizon"),
        (["bound", "--n", _HUGE, "--delta", "optimal"], "n"),
        (["bound", "--horizon", "5", "--gap", "1e308"], "gap"),
        (["simulate", "--n", "1", "--delta", "1e200", "--estimator", "sample_mean"], "delta"),
        # g^2 T / 2 fits a float but the regret cap g T does not
        (["bound", "--horizon", str(15 * 10**307), "--gap", "1.5"], "gap"),
        # the parameter fits a float but its product with a scale does not
        (["simulate", "--horizon", "10", "--gap", "1e308", "--scale", "2", "--policy", "uniform"], "gap"),
        (["simulate", "--n", "10", "--delta", "1e308", "--scale", "2", "--estimator", "sample_mean"], "delta"),
    ],
    ids=[
        "huge-horizon",
        "huge-n",
        "overflowing-bandit-budget",
        "overflowing-estimation-budget",
        "overflowing-regret-cap",
        "overflowing-scaled-gap",
        "overflowing-scaled-delta",
    ],
)
def test_overflowing_input_is_usage_error(argv, name, capsys):
    # a size no float holds, or a budget that overflows, is refused under the
    # argument that was passed, not as a traceback or as the budget's gamma
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f" {name}: " in err and "gamma" not in err and "inf" not in err
    if "--scale" in argv:
        # named with the value given and the scale that overflows it
        assert "got 1e+308" in err and "scale = 2.0" in err


@pytest.mark.parametrize("flag", ["--gap", "--delta"])
def test_verify_refuses_an_overflowing_parameter_before_drawing(flag, monkeypatch, capsys, tmp_path):
    # every case is bounded before any is drawn, so a parameter the closed
    # forms refuse costs no Monte Carlo time
    draw, calls = sim._draw, []

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(sim, "_draw", counted)
    assert main(["verify", "--replicates", "2000", flag, "1e200"]) == 2
    assert f" {flag[2:]}: " in capsys.readouterr().err
    assert calls == []
    # the counter sees the draws of a run that is not refused
    assert main(["verify", "--replicates", "40", "--horizon", "8", "--n", "4", "--out", str(tmp_path / "r")]) in (0, 1)
    assert calls


@pytest.mark.parametrize(
    "argv, name, got",
    [
        (["bound", "--horizon", "200", "--gap", "1e200"], "gap", "scale = 1.0, got 1e+200"),
        (["verify", "--gap", "1e200", "--replicates", "20"], "gap", "scale = 0.5, got 1e+200"),
        (["bound", "--horizon", "200", "--gap", "optimal", "--scale", "1e200"], "scales", "got 1e+200"),
        (["bound", "--n", "100", "--delta", "optimal", "--scale", "1e200"], "scales", "got 1e+200"),
    ],
    ids=["bound-gap", "verify-gap", "bound-optimal-gap", "bound-optimal-delta"],
)
def test_closed_form_refusal_names_the_field_set(argv, name, got, capsys):
    # a case the closed forms refuse is reported under the field the user
    # set, with the value given, not under the closed forms' g at the scaled value
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert not err.startswith("error: g:")
    assert f" {name}: " in err and err.rstrip().endswith(got), err


# the verify command line the benchmark's verify-default workload builds; it
# reads these attributes of the parsed line to build its config
_BENCH_VERIFY_ARGV = [
    "verify", "--replicates", "1000", "--seed", "7",
    "--alpha=0", "--alpha=0.5", "--alpha=0.9", "--scale=0.5", "--scale=1", "--scale=2",
    "--horizon", "200", "--n", "100", "--gap", "optimal", "--delta", "optimal",
    "--policy=uniform", "--policy=etc", "--policy=ucb", "--policy=thompson",
    "--estimator=sample_mean", "--estimator=sign_commit", "--estimator=always_zero",
]


def test_parsed_verify_line_keeps_the_names_the_benchmark_reads():
    args = build_parser().parse_args(_BENCH_VERIFY_ARGV)
    assert args.alpha == [0.0, 0.5, 0.9] and args.scale == [0.5, 1.0, 2.0]
    assert args.policy == ["uniform", "etc", "ucb", "thompson"]
    assert args.estimator == ["sample_mean", "sign_commit", "always_zero"]
    assert (args.horizon, args.n, args.gap, args.delta) == (200, 100, "optimal", "optimal")
    assert (args.tau, args.ucb_c, args.replicates, args.seed) == (None, None, 1000, 7)
    # and the config built from them is the one the command runs
    assert experiments.ExperimentConfig(
        kind=experiments.ExperimentKind.VERIFY,
        alphas=tuple(args.alpha),
        scales=tuple(args.scale),
        horizon=args.horizon,
        gap=args.gap,
        policies=tuple(experiments.parse_policy(p, args.tau, args.ucb_c) for p in args.policy),
        replicates=args.replicates,
        seed=args.seed,
        n=args.n,
        delta=args.delta,
        estimators=tuple(sim.Estimator(e) for e in args.estimator),
    ) == _config_from_args(args)


_PSI, _BOUND, _SIMULATE = (experiments.ExperimentKind(k) for k in ("psi", "bound", "simulate"))


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["psi"], {"kind": _PSI}),
        (["bound", "--horizon", "10", "--gap", "0.1"], {"kind": _BOUND, "horizon": 10, "gap": 0.1}),
        (
            ["simulate", "--policy", "ucb", "--horizon", "10", "--gap", "0.1"],
            {"kind": _SIMULATE, "horizon": 10, "gap": 0.1, "policies": (sim.UCB(),)},
        ),
    ],
    ids=["psi", "bound", "simulate"],
)
def test_unset_flags_take_the_library_defaults(argv, fields):
    # seed, scales, replicates, the psi grid and the UCB constant
    assert _config_from_args(build_parser().parse_args(argv)) == experiments.ExperimentConfig(
        alphas=(0.0,), **fields
    )


def test_verify_defaults_its_seed_and_ucb_constant_from_the_library():
    config = _config_from_args(build_parser().parse_args(["verify"]))
    assert config.seed == experiments.ExperimentConfig.seed
    assert sim.UCB() in config.policies


def test_simulate_bandit_json(tmp_path):
    out = tmp_path / "sim.json"
    rc = main(
        [
            "simulate",
            "--horizon", "16",
            "--gap", "optimal",
            "--policy", "etc",
            "--tau", "3",
            "--alpha", "0.5",
            "--replicates", "500",
            "--seed", "3",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["policies"] == ["etc"]
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["param_name"] == "g"


def test_simulate_estimation_stdout(capsys):
    rc = main(
        [
            "simulate",
            "--n", "4",
            "--delta", "0.2",
            "--estimator", "always_zero",
            "--alpha", "0.5",
            "--replicates", "50",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    cells = lines[1].split(",")
    assert cells[1] == "delta"
    assert cells[-1] == "true"


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "1e308"])
def test_bad_ucb_constant_is_usage_error(value, capsys):
    # NaN would lose every index comparison and send each round to arm 2; at
    # 1e308 the radius overflows from round 5 and every index reads inf
    for command in ("simulate", "verify"):
        argv = [command, "--horizon", "10", "--gap", "0.1", "--policy", "ucb", "--ucb-c", value]
        assert main([*argv, "--replicates", "10"]) == 2
        assert "policies" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["simulate", "--horizon", "10", "--gap", "0.1", "--policy", "ucb", "--tau", "3"],
            "error: invalid experiment config: tau: read by no selected policy, only by etc, got 3\n",
        ),
        (
            ["simulate", "--n", "4", "--delta", "0.1", "--estimator", "sign_commit", "--tau", "3", "--ucb-c", "5"],
            "error: invalid experiment config: tau: read by no selected policy, only by etc, got 3; "
            "ucb_c: read by no selected policy, only by ucb, got 5.0\n",
        ),
        (
            ["verify", "--policy", "ucb", "--tau", "3"],
            "error: invalid experiment config: tau: read by no selected policy, only by etc, got 3\n",
        ),
        (
            ["simulate", "--horizon", "0", "--gap", "0.1", "--policy", "etc", "--ucb-c", "2"],
            "error: invalid experiment config: horizon: must be an int >= 1 that a float can hold, got 0; "
            "ucb_c: read by no selected policy, only by ucb, got 2.0\n",
        ),
        (
            # a case refusal, which only bounding the battery's cases finds
            ["verify", "--policy", "ucb", "--tau", "3", "--delta", "1e200"],
            "error: invalid experiment config: delta: 2 n delta^2 overflows a float at n = 100, where delta is "
            "the given delta times scale = 0.5, got 1e+200; tau: read by no selected policy, only by etc, got 3\n",
        ),
    ],
    ids=["simulate-ucb-tau", "simulate-estimation", "verify-ucb-tau", "with-other-problems", "with-case-problems"],
)
def test_a_setting_no_selected_policy_reads_is_refused(argv, err, capsys):
    # it would change nothing, so it is refused with the config's other problems
    assert main([*argv, "--replicates", "100"]) == 2
    assert capsys.readouterr().err == err


# each subcommand's report at a small base command line, one base per
# problem it takes
_FLAG_BASES = {
    "psi": ["psi", "--rho-max", "0.2", "--rho-step", "0.1"],
    "bound-bandit": ["bound", "--horizon", "100", "--gap", "0.1"],
    "bound-estimation": ["bound", "--n", "100", "--delta", "0.1"],
    "simulate-bandit": ["simulate", "--horizon", "10", "--gap", "0.1", "--policy", "ucb", "--replicates", "100"],
    "simulate-estimation": [
        "simulate", "--n", "4", "--delta", "0.1", "--estimator", "sign_commit", "--replicates", "100"
    ],
    "verify": ["verify", "--horizon", "8", "--n", "4", "--alpha", "0.5", "--scale", "1", "--replicates", "100"],
}

# a value each flag is not given in any base
_NON_DEFAULT = {
    "--alpha": "0.9",
    "--seed": "4",
    "--rho-max": "0.3",
    "--rho-step": "0.05",
    "--scale": "2",
    "--n": "9",
    "--delta": "0.2",
    "--horizon": "12",
    "--gap": "0.2",
    "--estimator": "sample_mean",
    "--policy": "etc",
    "--tau": "3",
    "--ucb-c": "2",
    "--replicates": "200",
}


def _flags(command):
    (subcommands,) = (action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    actions = subcommands.choices[command]._actions
    return [a.option_strings[-1] for a in actions if a.option_strings and a.dest not in ("help", "format", "out")]


def _report(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "base, flag", [(base, flag) for base, argv in _FLAG_BASES.items() for flag in _flags(argv[0])]
)
def test_every_flag_is_read_or_refused(base, flag, capsys):
    # a flag that moves no row (or only the metadata) would be a settable
    # value that changes nothing; given in place of the base's value, or
    # added, each must change the rows or exit 2
    argv = _FLAG_BASES[base]
    assert flag in _NON_DEFAULT, f"no test value for {flag}"
    changed = list(argv)
    if flag in argv:
        changed[argv.index(flag) + 1] = _NON_DEFAULT[flag]
    else:
        changed += [flag, _NON_DEFAULT[flag]]
    code, rows = _report(argv, capsys)
    assert code in (0, 1) and rows
    code, changed_rows = _report(changed, capsys)
    assert code == 2 or changed_rows != rows, f"{' '.join(changed)} exits {code} with the base's rows"


_ONE_PROBLEM = "simulate needs exactly one of (n, delta, estimators) or (horizon, gap, policies)"


@pytest.mark.parametrize(
    "argv, field, why",
    [
        (["--n", "4", "--delta", "0.2", "--policy", "ucb"], "kind", _ONE_PROBLEM),
        (["--horizon", "10", "--gap", "0.1", "--estimator", "sign_commit"], "kind", _ONE_PROBLEM),
        (["--replicates", "10"], "kind", _ONE_PROBLEM),
        (["--n", "4", "--delta", "0.2", "--horizon", "10", "--gap", "0.1"], "kind", _ONE_PROBLEM),
        (["--horizon", "10", "--gap", "0.1"], "policies", "simulate takes exactly one policy"),
        (["--n", "4", "--delta", "0.2"], "estimators", "simulate takes exactly one estimator"),
        (
            ["--horizon", "10", "--gap", "0.1", "--policy", "ucb", "--policy", "etc"],
            "policies",
            "simulate takes exactly one policy",
        ),
        (
            ["--n", "4", "--delta", "0.1", "--estimator", "sign_commit", "--estimator", "always_zero"],
            "estimators",
            "simulate takes exactly one estimator",
        ),
    ],
    ids=[
        "stray-policy",
        "stray-estimator",
        "no-problem",
        "both-problems",
        "no-policy",
        "no-estimator",
        "repeated-policy",
        "repeated-estimator",
    ],
)
def test_simulate_takes_one_problem_and_one_variant(argv, field, why, capsys):
    # validate infers the problem from the flags given, a variant flag
    # included, and sees every value a repeated variant flag was given
    assert main(["simulate", *argv]) == 2
    assert capsys.readouterr().err == f"error: invalid experiment config: {field}: {why}\n"


def test_each_subcommand_is_the_experiment_kind_of_its_name():
    # _config_from_args builds a config's kind from the subcommand's name
    (subcommands,) = (action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    assert sorted(subcommands.choices) == sorted(kind.value for kind in experiments.ExperimentKind)


# each default a subcommand's flags have, as its --help names it
_HELP_DEFAULTS = {
    "psi": ["[0.0]", "1.2", "0.01", "csv"],
    "bound": ["[0.0]", "[1.0]", "csv"],
    "simulate": ["[0.0]", "[1.0]", "1.0", "10000", "0", "csv"],
    "verify": [
        "[0.0, 0.5, 0.9]", "[0.5, 1.0, 2.0]", "100", "optimal", "200", "optimal",
        "['sample_mean', 'sign_commit', 'always_zero']", "['uniform', 'etc', 'ucb', 'thompson']",
        "1.0", "50000", "0", "csv",
    ],
}


@pytest.mark.parametrize("command", sorted(_HELP_DEFAULTS))
def test_help_names_each_default(command, capsys):
    # argparse formats a help string only when it prints it, so a stray %
    # in one would raise only here
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert [d for d in _HELP_DEFAULTS[command] if f"default {d})" not in text] == []
    assert text.count("default ") == len(_HELP_DEFAULTS[command])


def test_verify_small_passes(tmp_path):
    out = tmp_path / "verify.csv"
    rc = main(
        [
            "verify",
            "--horizon", "16",
            "--n", "9",
            "--policy", "uniform",
            "--estimator", "sign_commit",
            "--alpha", "0.5",
            "--scale", "1",
            "--replicates", "2000",
            "--out", str(out),
        ]
    )
    assert rc == 0
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert all(r["dominated"] == "true" for r in rows)


@pytest.mark.parametrize("scale", ["1e-100", "1e-200", "1e-300"])
def test_verify_gate_holds_at_tiny_scales(scale):
    # at 1e-100 a constant tail block has stderr 0 and its CVaR one ulp below
    # an equal bound; at 1e-200 the losses' squares underflow
    assert main(["verify", "--replicates", "20", "--scale", scale]) == 0


_SMALLEST_NORMAL = repr(sys.float_info.min)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "--scale", "1e-310"], "scales"),
        (["verify", "--scale", "1e-320"], "scales"),
        (["simulate", "--n", "10", "--delta", "optimal", "--scale", "1e-320", "--estimator", "always_zero"], "scales"),
        (["simulate", "--n", "10", "--delta", "1e-310", "--estimator", "always_zero"], "delta"),
        (["simulate", "--horizon", "10", "--gap", "0.1", "--scale", "1e-309", "--policy", "uniform"], "gap"),
    ],
)
def test_simulated_kinds_refuse_a_subnormal_parameter(argv, name, capsys):
    # the verdict's relative rounding allowance is 0 at subnormal losses, so
    # a gap or delta times scale below the smallest normal float is refused
    # under the field the user set, the scales for the optimal one
    assert main([*argv, "--replicates", "20"]) == 2
    err = capsys.readouterr().err
    assert f" {name}: must be at least the smallest normal float, {_SMALLEST_NORMAL}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "10", "--delta", _SMALLEST_NORMAL, "--estimator", "always_zero", "--replicates", "20"],
        ["bound", "--horizon", "10", "--gap", "1e-310"],
    ],
)
def test_a_smallest_normal_or_bound_only_parameter_is_accepted(argv, capsys):
    # the smallest normal float passes, and `bound` prints no verdict to guard
    assert main(argv) == 0


def test_verify_violation_exit_code(monkeypatch, capsys):
    # a bound above every sample, whatever the Monte Carlo slack, is a
    # violation and must exit 1
    args = [
        "verify",
        "--horizon", "4",
        "--n", "1",
        "--policy", "uniform",
        "--estimator", "sample_mean",
        "--alpha", "0.9",
        "--scale", "1",
        "--replicates", "200",
    ]
    assert main(args) == 0
    bound = experiments.bandit_bound

    def above_every_sample(g, horizon, level):
        return replace(bound(g, horizon, level), value=2.0 * g * horizon)

    monkeypatch.setattr(experiments, "bandit_bound", above_every_sample)
    assert main(args) == 1
    assert ",false" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_one_sample_tail_block_is_usage_error(command, capsys):
    # with 1 replicate, or 2 at alpha = 0.9, the tail block is a single sample
    # with no standard error, so no Monte Carlo slack: refused, not reported
    # as a violated bound
    sides = ["--horizon", "8", "--gap", "optimal", "--policy", "uniform"]
    if command == "verify":
        sides += ["--n", "4"]
    assert main([command, *sides, "--replicates", "1"]) == 2
    err = capsys.readouterr().err
    assert "config: replicates: must leave at least 2 samples in every tail block" in err and ";" not in err
    assert main([command, *sides, "--alpha", "0.9", "--replicates", "2"]) == 2
    assert "leaves 1 at alpha = 0.9" in capsys.readouterr().err
    assert main([command, *sides, "--alpha", "0.9", "--replicates", "11"]) == 0
    capsys.readouterr()


def test_out_path_unwritable(tmp_path, capsys):
    missing = tmp_path / "nope" / "deep" / "out.csv"
    rc = main(["psi", "--rho-max", "0.1", "--rho-step", "0.1", "--out", str(missing)])
    assert rc == 3
    assert "cannot write" in capsys.readouterr().err
