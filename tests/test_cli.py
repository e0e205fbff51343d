import csv
import json

import pytest

from cvarbounds.bounds import estimation_bound
from cvarbounds.cli import main
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
        (["bound", "--horizon", "5", "--gap", "1e308"], "g"),
        (["simulate", "--n", "1", "--delta", "1e200", "--estimator", "sample_mean"], "delta"),
    ],
    ids=["huge-horizon", "huge-n", "overflowing-bandit-budget", "overflowing-estimation-budget"],
)
def test_overflowing_input_is_usage_error(argv, name, capsys):
    # a size no float holds, or a budget that overflows, is refused under the
    # argument that was passed, not as a traceback or as the budget's gamma
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f" {name}: " in err and "gamma" not in err


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


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_ucb_constant_is_usage_error(value, capsys):
    # NaN would lose every index comparison and send each round to arm 2
    for command in ("simulate", "verify"):
        argv = [command, "--horizon", "10", "--gap", "0.1", "--policy", "ucb", "--ucb-c", value]
        assert main([*argv, "--replicates", "10"]) == 2
        assert "policies" in capsys.readouterr().err


def test_simulate_needs_one_side(capsys):
    rc = main(["simulate", "--n", "4", "--delta", "0.2", "--policy", "ucb"])
    assert rc == 2
    rc = main(["simulate", "--replicates", "10"])
    assert rc == 2
    capsys.readouterr()
    # one side without its policy or estimator: validate names the field
    for argv, field in (
        (["simulate", "--horizon", "10", "--gap", "0.1"], "policies"),
        (["simulate", "--n", "4", "--delta", "0.2"], "estimators"),
    ):
        assert main(argv) == 2
        assert field in capsys.readouterr().err


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


def test_verify_violation_exit_code(capsys):
    # two-replicate fluke: with alpha = 0.9 the tail block is a single sample,
    # Monte Carlo slack is zero, and a lucky pair of transcripts undershoots
    # the bound; seed 4 is pinned to such a draw and must exit 1
    args = [
        "verify",
        "--horizon", "4",
        "--n", "1",
        "--policy", "uniform",
        "--estimator", "sample_mean",
        "--alpha", "0.9",
        "--scale", "1",
        "--replicates", "2",
    ]
    assert main(args + ["--seed", "4"]) == 1
    assert main(args + ["--seed", "0"]) == 0
    capsys.readouterr()


def test_out_path_unwritable(tmp_path, capsys):
    missing = tmp_path / "nope" / "deep" / "out.csv"
    rc = main(["psi", "--rho-max", "0.1", "--rho-step", "0.1", "--out", str(missing)])
    assert rc == 3
    assert "cannot write" in capsys.readouterr().err
