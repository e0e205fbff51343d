"""The benchmark's workloads: inputs from a seed, set-up, one timed pass,
output checks, and the rendered text that fingerprints a pass.

Every workload draws its inputs from `random.Random(f"{name}:{seed}")`, so a
seed fixes the inputs and the program sees only the generated values.  The
program is reached through its real entry points, `cvarbounds.cli.main` and
the public library functions, always looked up on the module at call time so
that the tracer's wrappers are the ones called during a traced pass.

This module imports neither numpy nor cvarbounds at import time: `setup`
does, so a fresh interpreter can time it.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import math
import random
from typing import Any

OPTIMAL = "optimal"
# program seeds are drawn below 2**63, inside the CLI's unsigned 64-bit range
_SEED_SPACE = 2**63
POLICIES = ("uniform", "etc", "ucb", "thompson")
ESTIMATORS = ("sample_mean", "sign_commit", "always_zero")
CSV_HEADER = (
    "alpha,param_name,param_value,bound,t_star,empirical_cvar,exact_cvar,stderr,mc_slack,dominated"
)
# cells every simulated row must carry as finite numbers; exact_cvar may be empty
_REQUIRED_CELLS = ("alpha", "param_value", "bound", "t_star", "empirical_cvar", "stderr", "mc_slack")
# rounding allowance for identities that hold exactly in real arithmetic
_EXACT_TOL = 1e-12


class Outcome:
    """Operations attempted and failed in one pass, with the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(problem)


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_report(
    csv_text: str,
    expected_rows: int,
    exit_code: int = 0,
) -> Outcome:
    """One operation per expected report row.  A row fails if a required
    cell is missing or non-finite, if it is not dominated, if its exact CVaR
    lies below its bound.  Missing rows fail,
    and a non-zero exit code fails at least one operation."""
    outcome = Outcome()
    lines = csv_text.splitlines()
    rows: list[dict[str, str]] = []
    if lines and lines[0] == CSV_HEADER:
        rows = list(csv.DictReader(lines))
    for i in range(max(expected_rows, len(rows))):
        if i >= len(rows):
            outcome.record(f"row {i}: missing (exit code {exit_code})")
            continue
        outcome.record(_row_problem(i, rows[i]))
    if exit_code != 0 and outcome.failed == 0:
        outcome.failed = 1
        outcome.reasons.append(f"exit code {exit_code}")
    return outcome


def _row_problem(i: int, row: dict[str, str]) -> str | None:
    for cell in _REQUIRED_CELLS:
        if not _finite(row.get(cell) or ""):
            return f"row {i}: {cell}={row.get(cell)!r} is not a finite number"
    exact = row.get("exact_cvar") or ""
    if exact and not _finite(exact):
        return f"row {i}: exact_cvar={exact!r} is not a finite number"
    if row.get("dominated") != "true":
        return f"row {i}: not dominated"
    if exact and float(exact) < float(row["bound"]):
        return f"row {i}: exact_cvar {exact} below bound {row['bound']}"
    return None


def _cli_pass(cli, argv: list[str]) -> tuple[int | str, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code: int | str = cli.main(argv)
    except Exception as exc:  # a raising call is a failed operation, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    return code, buf.getvalue()


def _code_for_check(code: int | str) -> int:
    return code if isinstance(code, int) else -1


class VerifyDefault:
    """`cvarbounds verify` at the default battery shape with fewer replicates."""

    name = "verify-default"
    alphas = (0.0, 0.5, 0.9)
    scales = (0.5, 1.0, 2.0)
    horizon = 200
    n = 100

    def __init__(self, seed: int, replicates: int = 1000):
        rng = random.Random(f"{self.name}:{seed}")
        self.program_seed = rng.randrange(_SEED_SPACE)
        self.replicates = replicates
        self.rows = (len(POLICIES) + len(ESTIMATORS)) * len(self.alphas) * len(self.scales)
        # the default shape spelled out, so a later change of CLI defaults
        # cannot change the workload
        self.argv = ["verify", "--replicates", str(replicates), "--seed", str(self.program_seed)]
        self.argv += [f"--alpha={a:g}" for a in self.alphas] + [f"--scale={s:g}" for s in self.scales]
        self.argv += ["--horizon", str(self.horizon), "--n", str(self.n), "--gap", OPTIMAL, "--delta", OPTIMAL]
        self.argv += [f"--policy={p}" for p in POLICIES] + [f"--estimator={e}" for e in ESTIMATORS]

    def setup(self) -> None:
        self.cli = importlib.import_module("cvarbounds.cli")
        args = self.cli.build_parser().parse_args(self.argv)
        self.config = _config_from_args(args)
        self.config.validate()

    def run_pass(self) -> tuple[int | str, str]:
        return _cli_pass(self.cli, self.argv)

    def check(self, result: tuple[int | str, str]) -> tuple[Outcome, str]:
        code, text = result
        return check_report(text, self.rows, exit_code=_code_for_check(code)), text

    def params(self) -> dict[str, Any]:
        return {
            "command": ["cvarbounds", *self.argv],
            "replicates": self.replicates,
            "program_seed": self.program_seed,
            "rows": self.rows,
            **_resolved_optima(self.alphas, self.horizon, self.n),
        }


class ClosedForms:
    """A seeded sweep of the library's closed forms; no simulation."""

    name = "closed-forms"

    def __init__(
        self,
        seed: int,
        rho_step: float = 1e-4,
        bound_grid: int = 24,
        two_point: int = 250,
        inverses: int = 6000,
        hinges: int = 2000,
        uniform_laws: int = 2000,
        sign_laws: int = 3000,
    ):
        rng = random.Random(f"{self.name}:{seed}")
        u = rng.uniform
        logu = lambda lo, hi: math.exp(u(math.log(lo), math.log(hi)))  # noqa: E731
        alpha = lambda: rng.choice((0.0, round(u(0.0, 0.99), 6)))  # noqa: E731
        self.psi_alphas = (0.0, round(u(0.05, 0.5), 6), round(u(0.5, 0.99), 6))
        self.rho_step = rho_step
        self.bound_alphas = tuple(sorted({0.0, *(round(u(0.0, 0.99), 6) for _ in range(3))}))
        self.bound_scales = tuple(round(logu(0.25, 4.0), 6) for _ in range(3))
        self.horizons = tuple(rng.randint(2, 100_000) for _ in range(bound_grid))
        self.gaps = tuple(OPTIMAL if i % 2 == 0 else logu(1e-4, 1.0) for i in range(bound_grid))
        self.ns = tuple(rng.randint(1, 10_000) for _ in range(bound_grid))
        self.deltas = tuple(OPTIMAL if i % 2 == 0 else logu(1e-4, 1.0) for i in range(bound_grid))
        # every third spec is balanced (c_sep == l_max) so it can be checked
        # against balanced_bound
        self.two_point_raw = []
        for i in range(two_point):
            l_max = logu(0.1, 100.0)
            c_sep = l_max if i % 3 == 0 else u(0.0, 2.0 * l_max)
            self.two_point_raw.append((l_max, c_sep, logu(1e-5, 2.0), alpha()))
        self.inverse_raw = [(i % 2, logu(1e-5, 2.0), u(0.01, 0.99)) for i in range(inverses)]
        self.hinge_raw = [(i % 2, logu(0.1, 100.0), logu(1e-5, 2.0), u(0.01, 0.99)) for i in range(hinges)]
        self.uniform_raw = [(logu(1e-3, 1.0), rng.randint(1, 64), alpha()) for _ in range(uniform_laws)]
        self.sign_raw = [(rng.randint(1, 10_000), logu(1e-4, 1.0), alpha()) for _ in range(sign_laws)]

    def setup(self) -> None:
        cb = self.cb = importlib.import_module("cvarbounds")
        kinds = (cb.DivergenceKind.KL, cb.DivergenceKind.SQUARED_HELLINGER)
        self.configs = [
            ("psi", cb.ExperimentConfig(
                kind=cb.ExperimentKind.PSI, alphas=self.psi_alphas, rho_max=1.2, rho_step=self.rho_step
            ))
        ]
        for horizon, gap in zip(self.horizons, self.gaps):
            self.configs.append(("bound", cb.ExperimentConfig(
                kind=cb.ExperimentKind.BOUND, alphas=self.bound_alphas, scales=self.bound_scales,
                horizon=horizon, gap=gap,
            )))
        for n, delta in zip(self.ns, self.deltas):
            self.configs.append(("bound", cb.ExperimentConfig(
                kind=cb.ExperimentKind.BOUND, alphas=self.bound_alphas, scales=self.bound_scales,
                n=n, delta=delta,
            )))
        for _, config in self.configs:
            config.validate()
        self.specs = [
            (cb.TwoPointSpec(l_max, c_sep, cb.HellingerBudget(gamma)), cb.RiskLevel(a))
            for l_max, c_sep, gamma, a in self.two_point_raw
        ]
        self.inverses = [(kinds[k], budget, b) for k, budget, b in self.inverse_raw]
        self.hinges = [(l_max, budget, ref, kinds[k]) for k, l_max, budget, ref in self.hinge_raw]
        self.uniform = [(g, horizon, cb.RiskLevel(a)) for g, horizon, a in self.uniform_raw]
        self.sign = [(n, delta, cb.RiskLevel(a)) for n, delta, a in self.sign_raw]

    def run_pass(self) -> list[tuple[str, tuple, Any]]:
        cb = self.cb
        ops: list[tuple[str, tuple, Any]] = []

        def call(kind: str, fn_name: str, *args):
            try:
                result = getattr(cb, fn_name)(*args)
            except Exception as exc:  # a raising call is a failed operation
                result = exc
            ops.append((kind, args, result))
            return result

        for kind, config in self.configs:
            report = call(kind, "run_experiment", config)
            if not isinstance(report, Exception):
                call("render", "render_csv", report)
        for spec, level in self.specs:
            call("two_point_bound", "two_point_bound", spec, level)
        for args in self.inverses:
            call("bernoulli_inverse", "bernoulli_inverse", *args)
        for args in self.hinges:
            call("hinge_lower_bound", "hinge_lower_bound", *args)
        for g, horizon, level in self.uniform:
            law = call("exact_law", "exact_uniform_bandit_law", g, horizon)
            if not isinstance(law, Exception):
                call("exact_cvar", "exact_cvar", law, level)
        for n, delta, level in self.sign:
            law = call("exact_law", "exact_sign_estimator_law", n, delta)
            if not isinstance(law, Exception):
                call("exact_cvar", "exact_cvar", law, level)
        return ops

    def check(self, ops: list[tuple[str, tuple, Any]]) -> tuple[Outcome, str]:
        outcome = Outcome()
        lines = []
        for i, (kind, args, result) in enumerate(ops):
            if isinstance(result, Exception):
                problem = f"raised {type(result).__name__}: {result}"
                lines.append(f"{kind}\t{problem}")
            else:
                problem = self._problem(kind, args, result)
                lines.append(f"{kind}\t{self._canonical(kind, result)}")
            outcome.record(None if problem is None else f"op {i} {kind}: {problem}")
        return outcome, "\n".join(lines) + "\n"

    def _canonical(self, kind: str, result: Any) -> str:
        if kind in ("psi", "bound"):
            return repr(result.rows)  # metadata carries a wall time
        return result if isinstance(result, str) else repr(result)

    def _problem(self, kind: str, args: tuple, result: Any) -> str | None:
        cb = self.cb
        if kind in ("psi", "bound"):
            for row in result.rows:
                if not (math.isfinite(row.bound) and row.bound >= 0.0):
                    return f"bound {row.bound!r} is not finite and >= 0"
                if row.t_star is not None and not math.isfinite(row.t_star):
                    return f"t_star {row.t_star!r} is not finite"
            return None
        if kind == "render":
            rows = len(args[0].rows)
            if result.count("\n") != rows + 1 or not result.startswith(CSV_HEADER + "\n"):
                return f"rendered {result.count(chr(10))} lines for {rows} rows"
            return None
        if kind == "two_point_bound":
            spec, level = args
            if not (math.isfinite(result.value) and result.value >= 0.0 and math.isfinite(result.t_star)):
                return f"value {result.value!r}, t_star {result.t_star!r}"
            if spec.c_sep == spec.l_max:
                ref = cb.balanced_bound(spec.l_max, spec.budget, level).value
                if abs(result.value - ref) > _EXACT_TOL * spec.l_max:
                    return f"value {result.value!r} differs from balanced_bound {ref!r}"
            return None
        if kind == "bernoulli_inverse":
            _, budget, b = args
            if not (0.0 <= result.a_minus <= b and math.isfinite(result.achieved_divergence)):
                return f"a_minus {result.a_minus!r} outside [0, {b!r}]"
            if result.achieved_divergence > budget:
                return f"achieved divergence {result.achieved_divergence!r} above budget {budget!r}"
            return None
        if kind == "hinge_lower_bound":
            return None if math.isfinite(result) and result >= 0.0 else f"value {result!r}"
        if kind == "exact_law":
            if not all(math.isfinite(v) and math.isfinite(p) for v, p in result.atoms):
                return "non-finite atom"
            return None
        if kind == "exact_cvar":
            law, _ = args
            mean = law.mean()
            if not (math.isfinite(result) and result >= mean - _EXACT_TOL * max(1.0, abs(mean))):
                return f"exact_cvar {result!r} below the law's mean {mean!r}"
            return None
        return f"unknown operation kind {kind!r}"

    def params(self) -> dict[str, Any]:
        return {
            "psi_alphas": self.psi_alphas,
            "rho_step": self.rho_step,
            "bound_alphas": self.bound_alphas,
            "bound_scales": self.bound_scales,
            "bound_horizons": len(self.horizons),
            "bound_ns": len(self.ns),
            "two_point_bound": len(self.specs),
            "bernoulli_inverse": len(self.inverses),
            "hinge_lower_bound": len(self.hinges),
            "exact_uniform_bandit_law": len(self.uniform),
            "exact_sign_estimator_law": len(self.sign),
        }


WORKLOADS = {w.name: w for w in (VerifyDefault, ClosedForms)}


def _config_from_args(args):
    """ExperimentConfig for a parsed `verify` command line, built from public
    names only."""
    ex = importlib.import_module("cvarbounds.experiments")
    sim = importlib.import_module("cvarbounds.sim")

    def param(raw):
        return raw if raw in (None, OPTIMAL) else float(raw)

    return ex.ExperimentConfig(
        kind=ex.ExperimentKind.VERIFY,
        alphas=tuple(args.alpha),
        scales=tuple(args.scale),
        horizon=args.horizon,
        gap=param(args.gap),
        policies=tuple(ex.parse_policy(p, args.tau, args.ucb_c) for p in args.policy),
        replicates=args.replicates,
        seed=args.seed,
        n=args.n,
        delta=param(args.delta),
        estimators=tuple(sim.Estimator(e) for e in args.estimator),
    )


def _resolved_optima(alphas, horizon: int, n: int) -> dict[str, Any]:
    """Numeric g* and delta* for each tail level, in place of 'optimal'."""
    cb = importlib.import_module("cvarbounds")
    return {
        "g_star": {f"{a:g}": cb.optimal_gap(horizon, cb.RiskLevel(a))[0] for a in alphas},
        "delta_star": {f"{a:g}": cb.optimal_separation(n, cb.RiskLevel(a))[0] for a in alphas},
    }
