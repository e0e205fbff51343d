import argparse
import json
import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvarbounds.bounds import Branch, bandit_bound, bound_factor, estimation_bound, optimal_gap
from cvarbounds.cli import build_parser, main as cli_main
from cvarbounds.experiments import (
    CSV_COLUMNS,
    OPTIMAL,
    ConfigError,
    ExperimentConfig,
    ExperimentKind,
    ExperimentReport,
    ExperimentRow,
    OutputFormat,
    ReportIOError,
    emit_report,
    parse_policy,
    render_csv,
    render_json,
    _tail_stats,
    run_experiment,
)
from cvarbounds import experiments, sim
from cvarbounds.risk import DiscreteLossDistribution, RiskLevel, SampleSet, empirical_cvar, exact_cvar
from cvarbounds.sim import (
    BanditConfig,
    EstimationConfig,
    Estimator,
    ExploreThenCommit,
    ThompsonGaussian,
    UCB,
    UniformRandom,
    exact_uniform_bandit_law,
    simulate_shared,
)


def _bandit_config(**overrides):
    base = dict(
        kind=ExperimentKind.SIMULATE,
        alphas=(0.5,),
        horizon=16,
        gap=0.25,
        policies=(UniformRandom(),),
        replicates=2000,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_parse_policy():
    assert parse_policy("uniform") == UniformRandom()
    assert parse_policy("etc", tau=5) == ExploreThenCommit(tau=5)
    assert parse_policy("ucb", ucb_c=2.0) == UCB(c_explore=2.0)
    assert parse_policy("ucb") == UCB()
    # an unset setting leaves the policy's default, and one the policy has
    # no field for is passed over
    for cls in (UniformRandom, ExploreThenCommit, UCB, ThompsonGaussian):
        assert parse_policy(cls.name, None, None) == parse_policy(cls.name) == cls()
    assert parse_policy("ucb", tau=5) == UCB()
    assert parse_policy("etc", tau=5, ucb_c=2.0) == ExploreThenCommit(tau=5)
    assert experiments._readers("tau") == ["etc"] and experiments._readers("ucb_c") == ["ucb"]
    with pytest.raises(ConfigError):
        parse_policy("greedy")


def test_validation_collects_all_problems():
    cfg = ExperimentConfig(
        kind=ExperimentKind.VERIFY,
        alphas=(),
        n=None,
        delta=None,
        horizon=0,
        gap=-1.0,
        replicates=0,
    )
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    problems = exc.value.problems
    for field in ("alphas", "n", "delta", "horizon", "gap", "replicates", "policies", "estimators"):
        assert field in problems, field
    msg = str(exc.value)
    assert "horizon" in msg and "replicates" in msg
    # integer fields must be Python ints: a float, a list, a string, a bool
    # or a numpy integer is reported along with every other problem
    cfg = ExperimentConfig(
        kind=ExperimentKind.VERIFY,
        alphas=(0.5,),
        n=1.5,
        delta="optimal",
        horizon=[1],
        gap="optimal",
        policies=(UniformRandom(),),
        estimators=(Estimator.SIGN_COMMIT,),
        replicates="5",
        seed=True,
    )
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert set(exc.value.problems) == {"n", "horizon", "replicates", "seed"}
    # so are a gap or separation that is a bool, a string other than 'optimal'
    # or an int no float can hold
    for bad in (dict(seed=1.0), dict(seed="0"), dict(horizon=True), dict(horizon=np.int64(16)),
                dict(gap=True), dict(gap="0.5"), dict(gap=math.nan), dict(gap=10**400)):
        with pytest.raises(ConfigError) as exc:
            _bandit_config(**bad).validate()
        assert set(exc.value.problems) == set(bad)
    for bad in (dict(delta=True), dict(delta="0.1"), dict(gap=False, delta=True)):
        with pytest.raises(ConfigError) as exc:
            replace(_verify_config(100), **bad).validate()
        assert set(exc.value.problems) == set(bad)
        assert all(OPTIMAL in exc.value.problems[name] for name in bad)
    replace(_verify_config(100), gap=np.float64(0.3), delta=np.float64(0.2)).validate()
    # an array there is refused under its field, not compared with 'optimal'
    for bad in (dict(gap=np.array([0.1, 0.2])), dict(delta=np.array([0.1, 0.2]))):
        with pytest.raises(ConfigError) as exc:
            replace(_verify_config(100), **bad).validate()
        assert set(exc.value.problems) == set(bad)
    # non-numeric tail levels, scales and psi grid settings are reported too
    for bad in (dict(alphas=("x",)), dict(scales=("x",)), dict(scales=(None,)), dict(alphas=(True,)),
                dict(scales=(math.inf,)), dict(scales=(10**400,))):
        with pytest.raises(ConfigError) as exc:
            _bandit_config(**bad).validate()
        assert set(exc.value.problems) == set(bad)
    for bad in (dict(rho_max="x"), dict(rho_step=None), dict(rho_max="x", rho_step=None), dict(rho_max=math.inf)):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind=ExperimentKind.PSI, alphas=(0.5,), **bad).validate()
        assert set(exc.value.problems) == set(bad)
    # a psi grid of more than 10**6 steps is refused before it is built
    ExperimentConfig(kind=ExperimentKind.PSI, alphas=(0.5,), rho_max=1.0, rho_step=1e-6).validate()
    for grid in (
        dict(rho_max=1.0, rho_step=9.99e-7),
        dict(rho_max=1e12, rho_step=1e-6),
        dict(rho_max=1e300, rho_step=1e-300),
    ):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind=ExperimentKind.PSI, alphas=(0.5,), **grid).validate()
        assert set(exc.value.problems) == {"rho_step"}
    # values of the wrong type are reported, not raised from the library
    for bad in (dict(alphas=0.5), dict(scales=2.0), dict(policies=("ucb",)), dict(policies=UCB()),
                dict(estimators=("sign_commit",))):
        with pytest.raises(ConfigError) as exc:
            replace(_verify_config(100), **bad).validate()
        assert set(exc.value.problems) == set(bad)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(kind=ExperimentKind.BOUND, alphas=(0.5,), n=10, delta=0.1, policies=("ucb",)).validate()
    assert set(exc.value.problems) == {"policies"}
    # an explore-then-commit tau the horizon cannot hold is a policies problem
    for policy, horizon in ((ExploreThenCommit(tau=6), 10), (ExploreThenCommit(tau=0), 10), (ExploreThenCommit(), 1)):
        with pytest.raises(ConfigError) as exc:
            _bandit_config(horizon=horizon, policies=(policy,)).validate()
        assert set(exc.value.problems) == {"policies"}, policy
        with pytest.raises(ConfigError) as exc:
            replace(_verify_config(100), horizon=horizon, policies=(UCB(), policy), replicates=0).validate()
        assert set(exc.value.problems) == {"policies", "replicates"}, policy
    _bandit_config(horizon=10, policies=(ExploreThenCommit(tau=5),)).validate()
    # so are a tau that is not an int and a UCB constant that is not a finite real >= 0
    bad_policies = (
        ExploreThenCommit(tau=2.5),
        ExploreThenCommit(tau=True),
        ExploreThenCommit(tau=[3]),
        UCB(c_explore=math.nan),
        UCB(c_explore=math.inf),
        UCB(c_explore=-1.0),
        UCB(c_explore="x"),
    )
    for policy in bad_policies:
        with pytest.raises(ConfigError) as exc:
            _bandit_config(horizon=10, policies=(policy,)).validate()
        assert set(exc.value.problems) == {"policies"}, policy
        with pytest.raises(ConfigError) as exc:
            replace(_verify_config(100), policies=(UCB(), policy), replicates=0).validate()
        assert set(exc.value.problems) == {"policies", "replicates"}, policy
    _bandit_config(policies=(UCB(c_explore=0.0),)).validate()
    # a constant whose last radius overflows at the horizon is refused there
    with pytest.raises(ConfigError) as exc:
        _bandit_config(horizon=10, policies=(UCB(c_explore=1e308),)).validate()
    assert exc.value.problems == {
        "policies": "c_explore makes the radius c sqrt(2 ln T) overflow a float at T = 10, got 1e+308"
    }
    _bandit_config(horizon=10, policies=(UCB(c_explore=1e307),)).validate()
    # a bad horizon skips only the tau check, which needs it: a policy that
    # is bad at any horizon is reported with it
    for policy in (UCB(c_explore=math.nan), ExploreThenCommit(tau=2.5)):
        with pytest.raises(ConfigError) as exc:
            _bandit_config(horizon=0, policies=(policy,)).validate()
        want = {"horizon", "policies"} if isinstance(policy, UCB) else {"horizon"}
        assert set(exc.value.problems) == want, policy
    with pytest.raises(ConfigError) as exc:
        replace(_verify_config(100), kind="verify", horizon=0).validate()
    # the subject checks are skipped for a kind that is not an ExperimentKind
    assert set(exc.value.problems) == {"kind"}


# the fields each kind reads, besides kind and alphas, each with the dest of
# its flag: stated here, so that an edit to the package's table shows
_BOUND_READS = {"scales": "scale", "n": "n", "delta": "delta", "horizon": "horizon", "gap": "gap"}
_SIMULATED_READS = {
    **_BOUND_READS, "estimators": "estimator", "policies": "policy", "replicates": "replicates", "seed": "seed"
}
_READS = {
    ExperimentKind.PSI: {"rho_max": "rho_max", "rho_step": "rho_step"},
    ExperimentKind.BOUND: _BOUND_READS,
    ExperimentKind.SIMULATE: _SIMULATED_READS,
    ExperimentKind.VERIFY: _SIMULATED_READS,
}
# a config of each kind that validates, and a value away from each field's default
_READ_BASES = {
    ExperimentKind.PSI: dict(rho_max=0.1, rho_step=0.1),
    ExperimentKind.BOUND: dict(horizon=10, gap=0.1),
    ExperimentKind.SIMULATE: dict(horizon=10, gap=0.1, policies=(UCB(),), replicates=100),
    ExperimentKind.VERIFY: dict(
        horizon=10, gap=0.1, n=4, delta=0.1, policies=(UCB(),), estimators=(Estimator.SIGN_COMMIT,), replicates=100
    ),
}
_NON_DEFAULT = dict(
    n=5, delta=0.2, horizon=12, gap=0.2, policies=(ExploreThenCommit(),), estimators=(Estimator.SAMPLE_MEAN,),
    replicates=200, seed=9, scales=(2.0,), rho_max=0.3, rho_step=0.05,
)


@pytest.mark.parametrize("kind", list(ExperimentKind), ids=lambda kind: kind.value)
def test_a_field_the_kind_does_not_read_is_refused(kind):
    # a field no row of the kind reads, set away from its default, would
    # change nothing but the metadata: each is refused by name, and the
    # kind's subcommand offers exactly one flag for each field it reads
    reads = _READS[kind]
    (subcommands,) = (action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    dests = sorted(action.dest for action in subcommands.choices[kind.value]._actions)
    settings = ("tau", "ucb_c") if "policies" in reads else ()
    assert dests == sorted(("help", "alpha", *reads.values(), *settings, "format", "out"))
    base = ExperimentConfig(kind=kind, alphas=(0.5,), **_READ_BASES[kind])
    base.validate()
    assert set(_NON_DEFAULT) == {f.name for f in fields(ExperimentConfig)} - {"kind", "alphas"}
    for name, value in _NON_DEFAULT.items():
        try:
            replace(base, **{name: value}).validate()
            problems = {}
        except ConfigError as exc:
            problems = exc.problems
        if name in reads:
            assert "does not read" not in problems.get(name, ""), (name, problems)
        else:
            assert problems == {name: f"{kind.value} does not read it, got {value!r}"}


def test_an_unread_field_is_compared_with_its_default():
    psi = dict(kind=ExperimentKind.PSI, alphas=(0.5,), rho_max=0.1, rho_step=0.1)
    # every unread field set is named at once
    with pytest.raises(ConfigError) as exc:
        run_experiment(ExperimentConfig(**psi, seed=9, scales=(2.0,)))
    assert set(exc.value.problems) == {"seed", "scales"}
    # an array is refused with a message, never asked for its truth value
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(**psi, gap=np.array([0.1, 0.2]), scales=(np.array([1.0, 2.0]),)).validate()
    assert set(exc.value.problems) == {"gap", "scales"}
    # a default value given is no setting: a list, an int or a numpy float holding it passes
    ExperimentConfig(**psi, seed=0, replicates=10_000, scales=[1], policies=[], estimators=()).validate()
    bound = dict(kind=ExperimentKind.BOUND, alphas=(0.5,), horizon=10, gap=0.1)
    ExperimentConfig(**bound, rho_max=np.float64(1.2), rho_step=0.01).validate()


def test_validation_bound_needs_one_problem():
    cfg = ExperimentConfig(kind=ExperimentKind.BOUND, alphas=(0.1,), n=10, delta=0.1, horizon=5, gap=0.1)
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ExperimentConfig(kind=ExperimentKind.BOUND, alphas=(0.1,))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_validation_simulate_needs_one_problem():
    # simulate's problem is the one whose size, parameter or variants are
    # set; a stray variant of the other problem is refused under kind
    estimation = dict(kind=ExperimentKind.SIMULATE, alphas=(0.5,), n=4, delta=0.1, estimators=(Estimator.SIGN_COMMIT,))
    ExperimentConfig(**estimation).validate()
    for bad in (dict(policies=(UCB(),)), dict(horizon=10), dict(gap=0.1), dict(n=None, delta=None, estimators=())):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{**estimation, **bad}).validate()
        assert exc.value.problems == {
            "kind": "simulate needs exactly one of (n, delta, estimators) or (horizon, gap, policies)"
        }, bad
    # a variants field that is no tuple or list picks no problem, and is refused under its name
    for bad in (UCB(), np.array([UCB(), UCB()], dtype=object)):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**estimation, policies=bad).validate()
        assert set(exc.value.problems) == {"policies"}


def test_psi_rows():
    cfg = ExperimentConfig(
        kind=ExperimentKind.PSI, alphas=(0.0, 0.5), rho_max=0.1, rho_step=0.05
    )
    report = run_experiment(cfg)
    assert len(report.rows) == 6
    first = report.rows[0]
    assert first.param_name == "rho"
    assert first.param_value == 0.0
    assert first.bound == 0.5
    assert first.t_star is None
    assert report.all_dominated
    row = report.rows[4]  # alpha=0.5, rho=0.05
    assert row.bound == bound_factor(RiskLevel(0.5), 0.05).value


@pytest.mark.parametrize("rho_max, rho_step", [(1.5, 0.01), (1.2, 1e-4)])
def test_psi_rows_match_bound_factor(rho_max, rho_step):
    # the table is evaluated a grid at a time; every row must be what the
    # scalar profile gives, bit for bit, on grids that hit rho = alpha and
    # rho = 1 exactly, at tail levels down to the smallest subnormal
    alphas = (0.0, 5e-324, 1e-200, 0.25, 0.5, 0.9, 0.999)
    cfg = ExperimentConfig(kind=ExperimentKind.PSI, alphas=alphas, rho_max=rho_max, rho_step=rho_step)
    rows = run_experiment(cfg).rows
    steps = round(rho_max / rho_step)
    assert len(rows) == len(alphas) * (steps + 1)
    grid = [row.param_value for row in rows[: steps + 1]]
    assert 1.0 in grid and all(alpha in grid for alpha in (0.25, 0.5, 0.9))
    for i, row in enumerate(rows):
        alpha, rho = alphas[i // (steps + 1)], (i % (steps + 1)) * rho_step
        want = bound_factor(RiskLevel(alpha), rho)
        assert (row.alpha, row.param_value) == (alpha, rho)
        assert type(row.param_value) is float and type(row.bound) is float
        assert row.bound == want.value and row.problem_params == {"branch": want.branch.value}, (alpha, rho)


def test_psi_rows_share_one_read_only_mapping_per_branch():
    cfg = ExperimentConfig(kind=ExperimentKind.PSI, alphas=(0.0, 0.5, 0.9), rho_max=1.2, rho_step=0.01)
    rows = run_experiment(cfg).rows
    mappings = {id(row.problem_params): row.problem_params for row in rows}
    assert 1 < len(mappings) <= len(Branch)
    for params in mappings.values():
        with pytest.raises(TypeError):
            params["branch"] = "zero"
    # one mapping object per branch the table reaches
    assert len({params["branch"] for params in mappings.values()}) == len(mappings)
    for row in rows:
        assert row.problem_params == {"branch": bound_factor(RiskLevel(row.alpha), row.param_value).branch.value}
    # a row varied with _replace takes its own mapping and leaves the shared one be
    row = rows[0]
    shared = dict(row.problem_params)
    varied = row._replace(problem_params={"branch": "zero", "note": 1})
    assert varied.problem_params == {"branch": "zero", "note": 1} and varied[:3] == row[:3]
    assert row.problem_params == shared and mappings[id(row.problem_params)] == shared
    # JSON renders the shared mapping as a plain object
    head = json.loads(render_json(run_experiment(replace(cfg, rho_max=0.02))))["rows"][0]
    assert head["problem_params"] == shared


def test_bound_rows_estimation_with_scales():
    cfg = ExperimentConfig(
        kind=ExperimentKind.BOUND, alphas=(0.5,), n=100, delta=0.02, scales=(0.5, 1.0)
    )
    report = run_experiment(cfg)
    assert [r.param_value for r in report.rows] == [0.01, 0.02]
    want = estimation_bound(100, 0.02, RiskLevel(0.5))
    assert report.rows[1].bound == want.value
    assert report.rows[1].t_star == want.t_star
    assert report.rows[0].param_name == "delta"


def test_bound_rows_bandit_optimal():
    cfg = ExperimentConfig(
        kind=ExperimentKind.BOUND, alphas=(0.9,), horizon=400, gap="optimal", scales=(1.0,)
    )
    report = run_experiment(cfg)
    g_star, v_star = optimal_gap(400, RiskLevel(0.9))
    assert report.rows[0].param_value == pytest.approx(g_star, rel=1e-15)
    assert report.rows[0].bound == pytest.approx(v_star, rel=1e-12)


def test_simulated_rows_have_stats_and_exact_law():
    report = run_experiment(_bandit_config())
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.param_name == "g"
    assert row.empirical_cvar is not None and row.stderr is not None
    assert row.mc_slack == pytest.approx(5.0 * row.stderr)
    # horizon 16 with the uniform policy carries the exact law
    assert row.exact_cvar is not None
    assert row.exact_cvar >= row.bound - 1e-9
    assert row.dominated
    assert row.problem_params["policy"] == "uniform"
    b = bandit_bound(0.25, 16, RiskLevel(0.5))
    assert row.bound == b.value


def test_simulated_rows_skip_exact_law_when_unavailable():
    report = run_experiment(_bandit_config(policies=(UCB(),), horizon=70, replicates=500))
    assert report.rows[0].exact_cvar is None


def test_verify_kind_small():
    cfg = ExperimentConfig(
        kind=ExperimentKind.VERIFY,
        alphas=(0.0, 0.9),
        horizon=16,
        gap="optimal",
        n=9,
        delta="optimal",
        policies=(UniformRandom(), UCB()),
        estimators=(Estimator.SIGN_COMMIT, Estimator.ALWAYS_ZERO),
        replicates=3000,
        seed=0,
        scales=(1.0, 2.0),
    )
    report = run_experiment(cfg)
    # 2 policies * 2 alphas * 2 scales + 2 estimators * 2 alphas * 2 scales
    assert len(report.rows) == 16
    names = {r.param_name for r in report.rows}
    assert names == {"uniform:g", "ucb:g", "sign_commit:delta", "always_zero:delta"}
    assert report.all_dominated
    assert report.metadata["replicates"] == 3000
    assert report.metadata["policies"] == ["uniform", "ucb"]


def test_csv_layout_and_determinism():
    cfg = _bandit_config()
    text1 = render_csv(run_experiment(cfg))
    text2 = render_csv(run_experiment(cfg))
    assert text1 == text2
    lines = text1.strip().split("\n")
    # the schema downstream tooling reads, pinned apart from the rows it comes from
    assert lines[0] == ",".join(CSV_COLUMNS) == (
        "alpha,param_name,param_value,bound,t_star,empirical_cvar,exact_cvar,stderr,mc_slack,dominated"
    )
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[1] == "g"
    assert cells[-1] in ("true", "false")


def test_csv_twelve_significant_digits():
    row = ExperimentRow(alpha=0.5, param_name="g", param_value=2.0 / 9.0, bound=2.0 / 9.0)
    report = ExperimentReport(rows=(row,), metadata={})
    line = render_csv(report).strip().split("\n")[1]
    assert line.split(",")[2] == "0.222222222222"
    assert line.split(",")[3] == "0.222222222222"
    # absent cells render empty
    assert line.split(",")[5] == ""


def test_csv_header_only_when_empty():
    report = ExperimentReport(rows=(), metadata={})
    assert render_csv(report) == ",".join(CSV_COLUMNS) + "\n"


def test_rows_are_immutable_named_tuples():
    row = ExperimentRow(alpha=0.5, param_name="g", param_value=0.25, bound=0.1)
    with pytest.raises(AttributeError):
        row.bound = 1.0
    # rows built without parameters share no mapping one of them can change
    other = ExperimentRow(0.9, "delta", 0.5)
    for params in (row.problem_params, other.problem_params):
        with pytest.raises(TypeError):
            params["scale"] = 2.0
    assert row.problem_params == other.problem_params == {}
    positional = ExperimentRow(0.5, "g", 0.25, {"horizon": 16}, 0.1, 1.5)
    keyword = ExperimentRow(
        alpha=0.5, param_name="g", param_value=0.25, problem_params={"horizon": 16}, bound=0.1, t_star=1.5
    )
    assert positional == keyword
    assert repr(keyword) == (
        "ExperimentRow(alpha=0.5, param_name='g', param_value=0.25, problem_params={'horizon': 16}, "
        "bound=0.1, t_star=1.5, empirical_cvar=None, exact_cvar=None, stderr=None, mc_slack=None, "
        "dominated=True)"
    )
    assert keyword._replace(bound=0.2).bound == 0.2 and keyword.bound == 0.1
    # render_csv picks its columns out of the row tuple: every field but
    # problem_params, which sits after param_value
    assert ExperimentRow._fields == (*CSV_COLUMNS[:3], "problem_params", *CSV_COLUMNS[3:])


def test_csv_cells_never_conflate_adjacent_values():
    # a cell reuses the text before it only for the very same object
    shared = 2.0 / 9.0
    values = [0.0, float("-0.0"), True, 1.0, shared, shared, shared]
    t_stars = [None, shared, None, None, shared, 1.5, None]
    rows = tuple(
        ExperimentRow(0.5, "g", value, {}, shared, t_star, dominated=value is not True)
        for value, t_star in zip(values, t_stars)
    )
    lines = render_csv(ExperimentReport(rows=rows, metadata={})).splitlines()[1:]
    cells = [line.split(",") for line in lines]
    assert [c[2] for c in cells] == ["0", "-0", "true", "1", "0.222222222222", "0.222222222222", "0.222222222222"]
    assert [c[3] for c in cells] == ["0.222222222222"] * len(rows)
    assert [c[4] for c in cells] == ["", "0.222222222222", "", "", "0.222222222222", "1.5", ""]
    assert [c[-1] for c in cells] == ["true", "true", "false", "true", "true", "true", "true"]


def test_json_renders_default_params_as_empty_object():
    row = ExperimentRow(0.5, "g", 0.25, bound=0.1)
    text = render_json(ExperimentReport(rows=(row,), metadata={}))
    assert '"problem_params": {}' in text
    payload = json.loads(text)
    assert payload["rows"] == [{**row._asdict(), "problem_params": {}}]
    assert list(payload["rows"][0]) == list(ExperimentRow._fields)


def test_json_round_trip():
    report = run_experiment(_bandit_config())
    payload = json.loads(render_json(report))
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    # floats survive the round trip exactly via repr
    assert row["empirical_cvar"] == report.rows[0].empirical_cvar
    assert row["bound"] == report.rows[0].bound
    assert row["problem_params"]["horizon"] == 16
    assert payload["metadata"]["kind"] == "simulate"


def test_simulated_reports_name_their_rng_contract():
    # in the JSON metadata only: the CSV columns stay as pinned, and a
    # bound report, which draws nothing, names none
    simulated = run_experiment(_bandit_config())
    assert json.loads(render_json(simulated))["metadata"]["rng_contract"] == "philox-seed-block-v2"
    assert render_csv(simulated).splitlines()[0] == ",".join(CSV_COLUMNS)
    bound = run_experiment(ExperimentConfig(kind=ExperimentKind.BOUND, alphas=(0.5,), horizon=100, gap=0.1))
    assert "rng_contract" not in bound.metadata


@pytest.mark.parametrize(
    "fields",
    [
        dict(kind=ExperimentKind.BOUND, horizon=100, gap=0.1, scales=(2.0,)),
        dict(kind=ExperimentKind.BOUND, n=100, delta=0.1),
        dict(kind=ExperimentKind.PSI, rho_max=0.2, rho_step=0.1),
    ],
    ids=["bound-bandit", "bound-estimation", "psi"],
)
def test_numpy_float32_inputs_render_as_floats(fields):
    # a report carries Python floats, so a float32 tail level or scale
    # renders, and as the float of its value
    want = ExperimentConfig(alphas=(0.5,), **fields)
    got = replace(want, alphas=(np.float32(0.5),), scales=tuple(map(np.float32, want.scales)))
    assert render_json(run_experiment(got)) == render_json(run_experiment(want))
    assert render_csv(run_experiment(got)) == render_csv(run_experiment(want))


def test_json_deterministic():
    cfg = _bandit_config()
    assert render_json(run_experiment(cfg)) == render_json(run_experiment(cfg))


def test_emit_report_writes_file(tmp_path):
    report = run_experiment(_bandit_config(replicates=200))
    path = tmp_path / "out.csv"
    text = emit_report(report, OutputFormat.CSV, str(path))
    assert path.read_text() == text
    path2 = tmp_path / "out.json"
    emit_report(report, OutputFormat.JSON, str(path2))
    assert json.loads(path2.read_text())["metadata"]["seed"] == 7


def test_emit_report_io_error(tmp_path):
    report = ExperimentReport(rows=(), metadata={})
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    with pytest.raises(ReportIOError) as exc:
        emit_report(report, OutputFormat.CSV, str(missing))
    assert str(missing) in str(exc.value)


def test_wall_time_not_rendered():
    # rendering drops volatile timing so identical runs stay byte-identical
    report = run_experiment(_bandit_config(replicates=100))
    assert "wall_time_s" in report.metadata
    assert "wall_time" not in render_json(report)


def test_estimation_sim_rows_exact_values():
    cfg = ExperimentConfig(
        kind=ExperimentKind.SIMULATE,
        alphas=(0.5,),
        n=9,
        delta=0.1,
        estimators=(Estimator.ALWAYS_ZERO,),
        replicates=100,
        seed=1,
    )
    report = run_experiment(cfg)
    row = report.rows[0]
    # constant loss delta: empirical and exact agree and dominate the bound
    assert row.empirical_cvar == pytest.approx(0.1, rel=1e-12)
    assert row.exact_cvar == pytest.approx(0.1, abs=1e-15)
    assert row.stderr <= 1e-15  # tail of identical values, rounding only
    assert row.dominated


def test_tail_stderr_is_calibrated_against_an_exact_law():
    # the uniform policy's loss is g Binomial(T, 1/2); over independent
    # batches, z = (empirical - exact CVaR) / stderr must have unit spread,
    # so that the gate's slack of 5 standard errors is 5 real ones
    horizon, gap, count, trials = 64, 0.05, 20_000, 300
    law = exact_uniform_bandit_law(gap, horizon)
    rng = np.random.default_rng(2005)
    for alpha in (0.5, 0.9, 0.99):
        level = RiskLevel(alpha)
        exact = exact_cvar(law, level)
        z = []
        for _ in range(trials):
            sample = SampleSet(gap * rng.binomial(horizon, 0.5, size=count))
            emp, stderr, _ = _tail_stats(sample, level, None, gap * horizon)
            z.append((emp - exact) / stderr)
        assert 0.85 <= np.std(z, ddof=1) <= 1.15, alpha


def test_tail_stderr_does_not_underflow_at_tiny_losses():
    # the squares of losses near 1e-200 underflow; the sd of the excess is
    # taken at a power-of-two scale, so it scales with the losses exactly
    values = np.random.default_rng(1).exponential(size=400)
    level = RiskLevel(0.5)
    _, stderr, slack = _tail_stats(SampleSet(values), level, None, values.max())
    for e in (-700, -400, 400):
        scaled = np.ldexp(values, e)
        _, scaled_stderr, scaled_slack = _tail_stats(SampleSet(scaled), level, None, scaled.max())
        assert (scaled_stderr, scaled_slack) == (math.ldexp(stderr, e), math.ldexp(slack, e))


def test_a_sample_of_one_value_takes_its_slack_from_the_exact_law():
    # 11 sign-commit losses, all 0, of a law that puts 0.45 on 2 delta: the
    # sample shows no spread, so the law's sd of L stands in for its own
    law = DiscreteLossDistribution([(0.0, 0.55), (0.2, 0.45)])
    level = RiskLevel(0.9)
    zeros = SampleSet(np.zeros(11))
    emp, stderr, slack = _tail_stats(zeros, level, law, 0.2)
    assert emp == 0.0
    assert stderr == pytest.approx(0.2 * math.sqrt(0.45 * 0.55) / (0.1 * math.sqrt(11)), rel=1e-12)
    assert slack == 5.0 * stderr
    # at a tiny scale the law's sd scales exactly, its squares taken scaled
    tiny = DiscreteLossDistribution([(0.0, 0.55), (math.ldexp(0.2, -1000), 0.45)])
    assert _tail_stats(zeros, level, tiny, math.ldexp(0.2, -1000)) == (
        0.0, math.ldexp(stderr, -1000), math.ldexp(slack, -1000)
    )
    # explore-then-commit at tau = T / 2 has regret g tau every time: its
    # one-atom exact law gives it no slack, where half the loss cap would give it 5 sd
    config = ExperimentConfig(
        kind=ExperimentKind.SIMULATE,
        alphas=(0.5,),
        horizon=8,
        gap=0.25,
        policies=(ExploreThenCommit(tau=4),),
        replicates=11,
        seed=0,
    )
    (row,) = run_experiment(config).rows
    assert row.empirical_cvar == row.exact_cvar == 1.0 and row.stderr == row.mc_slack == 0.0
    assert row.dominated
    # with no law, half the loss cap bounds the sd of any loss in [0, l_max]
    emp, stderr, slack = _tail_stats(zeros, level, None, 0.2)
    assert emp == 0.0 and stderr == pytest.approx(0.1 / (0.1 * math.sqrt(11)), rel=1e-12) and slack == 5.0 * stderr
    # a sample with spread keeps its own error, law or none
    spread = SampleSet(np.array([0.0] * 9 + [0.2] * 2))
    assert _tail_stats(spread, level, law, 0.2) == _tail_stats(spread, level, None, 0.2)


def test_a_sample_of_one_value_without_an_exact_law_takes_half_the_loss_cap():
    # at delta = 0.01 and n = 1 the sample mean misses theta by 2 delta or
    # more with probability 0.984: all 11 of seed 0's losses are clipped to
    # 2 delta, and the row's standard error is (2 delta / 2) / (0.1 sqrt 11),
    # not the 0 its sample shows
    config = ExperimentConfig(
        kind=ExperimentKind.SIMULATE,
        alphas=(0.9,),
        n=1,
        delta=0.01,
        estimators=(Estimator.SAMPLE_MEAN,),
        replicates=11,
        seed=0,
    )
    (sim_config,) = [case[-1] for case in experiments._cases(config)]
    assert sim.exact_loss_law(sim_config) is None
    assert set(sim.run_estimation(sim_config)) == {0.02}
    (row,) = run_experiment(config).rows
    assert row.stderr == pytest.approx(0.01 / (0.1 * math.sqrt(11)), rel=1e-12) and row.mc_slack == 5.0 * row.stderr


def test_exact_law_below_the_bound_fails_at_any_scale(monkeypatch):
    # the always-zero estimator's loss is delta, which its bound meets to
    # rounding at scale 1e-100; an exact law of half that lies below the
    # bound, and an absolute rounding allowance of 1e-9 would pass it unseen
    config = ExperimentConfig(
        kind=ExperimentKind.SIMULATE,
        alphas=(0.9,),
        n=9,
        delta="optimal",
        estimators=(Estimator.ALWAYS_ZERO,),
        replicates=200,
        scales=(1e-100,),
    )
    assert run_experiment(config).all_dominated
    law = experiments.exact_loss_law

    def half_law(sim_config):
        return DiscreteLossDistribution(tuple((0.5 * value, p) for value, p in law(sim_config).atoms))

    monkeypatch.setattr(experiments, "exact_loss_law", half_law)
    (row,) = run_experiment(config).rows
    assert row.exact_cvar < row.bound and not row.dominated


def _verify_config(replicates, seed=3):
    return ExperimentConfig(
        kind=ExperimentKind.VERIFY,
        alphas=(0.0, 0.9),
        horizon=16,
        gap="optimal",
        n=9,
        delta="optimal",
        policies=(UniformRandom(), ExploreThenCommit(), UCB(), ThompsonGaussian()),
        estimators=tuple(Estimator),
        replicates=replicates,
        seed=seed,
        scales=(0.5, 2.0),
    )


@pytest.mark.parametrize(
    "config, why",
    [
        (replace(_verify_config(20), gap=1e200, delta=1e200), {"gap": "got 1e+200", "delta": "got 1e+200"}),
        # no horizon is refused for its length: strips bound what it draws
        (replace(_verify_config(20), horizon=10**7, delta=1e200), {"delta": "got 1e+200"}),
    ],
    ids=["gap-and-delta", "delta-beside-a-long-horizon"],
)
def test_a_battery_refuses_every_field_before_drawing(config, why, monkeypatch):
    # the closed forms' refusals of a battery come out as one ConfigError
    # naming every refused field, before anything is drawn, and validate
    # refuses the same
    def draw(*args):
        raise AssertionError("drew before refusing the battery")

    monkeypatch.setattr(sim, "_draw", draw)
    with pytest.raises(ConfigError) as validated:
        config.validate()
    with pytest.raises(ConfigError) as exc:
        run_experiment(config)
    assert validated.value.problems == exc.value.problems
    assert set(exc.value.problems) == set(why)
    for name, text in why.items():
        assert text in exc.value.problems[name], name


class _Drew(Exception):
    """Raised in place of a draw: the run refused nothing."""


def _problems(call):
    """The problems of the ConfigError `call` raises, or None."""
    try:
        call()
    except ConfigError as exc:
        return exc.problems
    except _Drew:
        pass
    return None


_SIZES = (1, 9, 200, 10**7, 10**12)
_PARAMETERS = (OPTIMAL, 1e-310, 0.1, 1e200)
_POLICIES = (UniformRandom(), ExploreThenCommit(), UCB(), ThompsonGaussian())


@st.composite
def _battery_configs(draw):
    kind = draw(st.sampled_from([ExperimentKind.BOUND, ExperimentKind.SIMULATE, ExperimentKind.VERIFY]))
    # each subject's size, parameter and variants fields
    subject_fields = [("horizon", "gap", "policies"), ("n", "delta", "estimators")]
    subjects = subject_fields if kind is ExperimentKind.VERIFY else [draw(st.sampled_from(subject_fields))]
    values = dict(
        alphas=tuple(draw(st.lists(st.sampled_from([0.0, 0.5, 0.9]), min_size=1, max_size=2))),
        scales=tuple(draw(st.lists(st.sampled_from([1e-320, 1e-300, 0.5, 2.0, 1e300]), min_size=1, max_size=2))),
    )
    for size, parameter, variants in subjects:
        values[size] = draw(st.sampled_from(_SIZES))
        values[parameter] = draw(st.sampled_from(_PARAMETERS))
        if kind is not ExperimentKind.BOUND:
            choices = _POLICIES if variants == "policies" else tuple(Estimator)
            most = 1 if kind is ExperimentKind.SIMULATE else len(choices)
            values[variants] = tuple(draw(st.lists(st.sampled_from(choices), min_size=1, max_size=most, unique=True)))
            values["replicates"] = 20
    return ExperimentConfig(kind=kind, **values)


@settings(max_examples=200, deadline=None, database=None)
@given(_battery_configs())
def test_validate_refuses_exactly_what_a_run_refuses(config):
    def draw(*args):
        raise _Drew

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_draw", draw)
        run = _problems(lambda: run_experiment(config))
    assert _problems(config.validate) == run


def test_shared_draw_rows_match_per_row_simulation():
    cfg = _verify_config(replicates=60)
    report = run_experiment(cfg)
    assert len(report.rows) == (4 + 3) * 2 * 2
    for row in report.rows:
        level = RiskLevel(row.alpha)
        params = row.problem_params
        if params["problem"] == "bandit":
            policy = next(p for p in cfg.policies if p.name == params["policy"])
            config = BanditConfig(horizon=16, gap=row.param_value, policy=policy, replicates=60, seed=3)
        else:
            config = EstimationConfig(
                n=9,
                delta=row.param_value,
                estimator=Estimator(params["estimator"]),
                replicates=60,
                seed=3,
            )
        samples = simulate_shared([config])[0]
        assert row.empirical_cvar == empirical_cvar(samples, level), row.param_name


@pytest.mark.parametrize("strip", [1, 7])
def test_strip_size_renders_identical_csv(monkeypatch, strip):
    # 257 replicates fill one block and one replicate of the next; a strip
    # of 1 or 7 rows cuts every pass, Thompson's into whole rounds of 3
    cfg = _verify_config(replicates=257)
    whole = render_csv(run_experiment(cfg))
    monkeypatch.setattr(sim, "_STRIP_ROWS", strip)
    assert render_csv(run_experiment(cfg)) == whole


def test_verify_reads_each_block_once_per_pass(monkeypatch):
    # 4 policies and 3 estimators make 5 passes, one per policy and one for
    # every estimator, and each pass re-keys each of the 2 blocks of 300
    # replicates once
    keys = []
    original = sim.replicate_rng

    def counted(seed, block):
        keys.append((seed, block))
        return original(seed, block)

    monkeypatch.setattr(sim, "replicate_rng", counted)
    report = run_experiment(_verify_config(replicates=300))
    assert len(report.rows) == (4 + 3) * 2 * 2
    assert sorted(keys) == [(3, 0)] * 5 + [(3, 1)] * 5


@pytest.mark.parametrize("elements, blocks", [(None, (2,)), (9 * 256, (1, 1))])
def test_verify_rolls_out_each_policy_once_per_group(monkeypatch, tmp_path, elements, blocks):
    # the default verify shape: each policy's 9 gaps are rolled out in one
    # lockstep pass per group of blocks, never one rollout per row; at a
    # state budget of 9 gaps x 256 replicates, the 2 blocks of 300
    # replicates are rolled out one at a time, and the report keeps every byte
    argv = ["verify", "--replicates", "300", "--out"]
    assert cli_main([*argv, str(tmp_path / "whole.csv")]) == 0
    if elements is not None:
        monkeypatch.setattr(sim, "_ROLLOUT_ELEMENTS", elements)
    calls = []
    original = sim._rollout

    def counted(policy, horizon, gaps, model, *args):
        calls.append((policy.name, len(gaps), len(model)))
        return original(policy, horizon, gaps, model, *args)

    monkeypatch.setattr(sim, "_rollout", counted)
    assert cli_main([*argv, str(tmp_path / "groups.csv")]) == 0
    policies = ("uniform", "etc", "ucb", "thompson")
    assert sorted(calls) == sorted((name, 9, size) for name in policies for size in blocks)
    assert (tmp_path / "groups.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("replicates, forks", [(60, 0), (300, 0), (1000, 1)])
def test_verify_forks_a_worker_only_for_enough_work(monkeypatch, tmp_path, replicates, forks):
    # the default battery costs 4,770 a block (sim._cost): the rows read by
    # the uniform policy (T), explore-then-commit (2 tau), UCB (T), Thompson
    # (3T) and the estimation (n), plus T rounds x 9 gaps each for UCB and
    # Thompson: with two usable CPUs a second worker is forked only where
    # each gets sim._WORK_PER_WORKER of it, at 4 blocks and not at 1 or 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls, fork = [], os.fork

    def counted():
        assert forks, "forked a worker for too little work"
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert cli_main(["verify", "--replicates", str(replicates), "--out", str(tmp_path / "report.csv")]) == 0
    assert len(calls) == forks
