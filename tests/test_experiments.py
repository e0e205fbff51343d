import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cvarbounds.bounds import bandit_bound, bound_factor, estimation_bound, optimal_gap
from cvarbounds.cli import main as cli_main
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
    run_experiment,
)
from cvarbounds import sim
from cvarbounds.risk import RiskLevel, empirical_cvar
from cvarbounds.sim import (
    BanditConfig,
    EstimationConfig,
    Estimator,
    ExploreThenCommit,
    ThompsonGaussian,
    UCB,
    UniformRandom,
    simulate_shared,
)


def _bandit_config(**overrides):
    base = dict(
        kind=ExperimentKind.SIMULATE_BANDIT,
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
    # so are a gap or separation that is a bool or a string other than 'optimal'
    for bad in (dict(seed=1.0), dict(seed="0"), dict(horizon=True), dict(horizon=np.int64(16)),
                dict(gap=True), dict(gap="0.5"), dict(gap=math.nan)):
        with pytest.raises(ConfigError) as exc:
            _bandit_config(**bad).validate()
        assert set(exc.value.problems) == set(bad)
    for bad in (dict(delta=True), dict(delta="0.1"), dict(gap=False, delta=True)):
        with pytest.raises(ConfigError) as exc:
            replace(_verify_config(100), **bad).validate()
        assert set(exc.value.problems) == set(bad)
        assert all(OPTIMAL in exc.value.problems[name] for name in bad)
    replace(_verify_config(100), gap=np.float64(0.3), delta=np.float64(0.2)).validate()
    # non-numeric tail levels, scales and psi grid settings are reported too
    for bad in (dict(alphas=("x",)), dict(scales=("x",)), dict(scales=(None,)), dict(alphas=(True,)),
                dict(scales=(math.inf,))):
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


def test_validation_bound_needs_one_problem():
    cfg = ExperimentConfig(kind=ExperimentKind.BOUND, alphas=(0.1,), n=10, delta=0.1, horizon=5, gap=0.1)
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ExperimentConfig(kind=ExperimentKind.BOUND, alphas=(0.1,))
    with pytest.raises(ConfigError):
        cfg.validate()


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
    assert row.bound == pytest.approx(bound_factor(RiskLevel(0.5), 0.05).value)


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
    assert lines[0] == ",".join(CSV_COLUMNS)
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


def test_json_round_trip():
    report = run_experiment(_bandit_config())
    payload = json.loads(render_json(report))
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    # floats survive the round trip exactly via repr
    assert row["empirical_cvar"] == report.rows[0].empirical_cvar
    assert row["bound"] == report.rows[0].bound
    assert row["problem_params"]["horizon"] == 16
    assert payload["metadata"]["kind"] == "simulate-bandit"


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
        kind=ExperimentKind.SIMULATE_ESTIMATION,
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


def test_chunked_draws_render_identical_csv(monkeypatch):
    # 257 is prime, so no chunk size below it divides the replicate count
    cfg = _verify_config(replicates=257)
    whole = render_csv(run_experiment(cfg))
    monkeypatch.setattr(sim, "_PREDRAW_BUDGET_BYTES", 1000)
    # every battery is drawn in several chunks with a shorter last one
    firsts = [BanditConfig(horizon=16, gap=1.0, policy=p, replicates=257, seed=3) for p in cfg.policies]
    firsts.append(EstimationConfig(n=9, delta=1.0, estimator=Estimator.SAMPLE_MEAN, replicates=257, seed=3))
    for first in firsts:
        chunks = sim._replicate_chunks(first)
        assert len(chunks) > 2 and len(chunks[-1]) < len(chunks[0])
    assert render_csv(run_experiment(cfg)) == whole


def test_verify_draws_each_stream_once_per_layout(monkeypatch):
    # 4 policies and 3 estimators: one draw of every replicate stream for
    # the uniform policy, one for Thompson, one shared by explore-then-commit
    # and UCB, and one for the whole estimation battery
    keys = []
    original = sim.replicate_rng

    def counted(seed, replicate, reuse=None):
        keys.append((seed, replicate))
        return original(seed, replicate, reuse)

    monkeypatch.setattr(sim, "replicate_rng", counted)
    report = run_experiment(_verify_config(replicates=60))
    assert len(report.rows) == (4 + 3) * 2 * 2
    assert len(keys) == 4 * 60
    assert len(set(keys)) == 60


@pytest.mark.parametrize("budget", [None, 20 * 200 * 24])
def test_verify_rolls_out_each_policy_once_per_chunk(monkeypatch, tmp_path, budget):
    # the default verify shape: each policy's 9 gaps are rolled out in one
    # lockstep pass per chunk of its draws, never one rollout per row
    if budget is not None:
        monkeypatch.setattr(sim, "_PREDRAW_BUDGET_BYTES", budget)
    calls = []
    original = sim._rollout

    def counted(policy, horizon, gaps, *args):
        calls.append((policy.name, len(gaps)))
        return original(policy, horizon, gaps, *args)

    monkeypatch.setattr(sim, "_rollout", counted)
    assert cli_main(["verify", "--replicates", "60", "--out", str(tmp_path / "report.csv")]) == 0
    expected = []
    for policy in (UniformRandom(), ExploreThenCommit(), UCB(), ThompsonGaussian()):
        chunks = sim._replicate_chunks(BanditConfig(horizon=200, gap=1.0, policy=policy, replicates=60, seed=0))
        expected += [(policy.name, 9)] * len(chunks)
    assert sorted(calls) == sorted(expected)
    if budget is not None:
        assert calls.count(("thompson", 9)) == 3
