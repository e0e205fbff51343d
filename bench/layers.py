"""The traced layer boundaries and the per-layer metrics derived from them.

The layers are the cvarbounds modules.  Each target below names a function
as the stat name `<module>.<function>` and says where the original lives;
the tracer rebinds every module attribute that refers to it.  Hot targets,
called per replicate or per table entry, are aggregated under their parent
span instead of recording a span per call.
"""

from __future__ import annotations

from typing import Any

from tracer import Target, Tracer, median, tail_percentile


_POLICY_NAMES = {
    "UniformRandom": "uniform",
    "ExploreThenCommit": "etc",
    "UCB": "ucb",
    "ThompsonGaussian": "thompson",
}


def _policy(*args, **kwargs) -> str:
    config = args[0] if args else kwargs["config"]
    kind = type(config.policy).__name__
    return _POLICY_NAMES.get(kind, kind.lower())


def _rows(tracer: Tracer, args, kwargs, report) -> None:
    tracer.add("experiments.rows", len(report.rows))


def _key(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add_distinct("sim.replicate_rng.keys", (int(args[0]), int(args[1])))


def _iterations(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("inversion.bernoulli_inverse.iterations", result.iterations)


def _predraw_bytes(tracer: Tracer, args, kwargs, arrays) -> None:
    nbytes = sum(getattr(a, "nbytes", 0) for a in arrays if a is not None)
    tracer.high_water("sim.predraw_mb_computed", nbytes / 2**20)


def _target(name: str, attr: str | None = None, **kw: Any) -> Target:
    module, _, fn = name.partition(".")
    return Target(name=name, module=f"cvarbounds.{module}", attr=attr or fn, **kw)


TARGETS = (
    _target("cli.main"),
    _target("experiments.run_experiment", observe=_rows),
    _target("experiments.render", "render_csv"),
    _target("experiments.render", "render_json"),
    _target("sim.run_bandit", label=_policy),
    _target("sim.run_estimation"),
    _target("sim.replicate_rng", hot=True, observe=_key),
    # private name, read only for the sizes of the arrays it returns
    _target("sim._predraw", timed=False, optional=True, observe=_predraw_bytes),
    _target("sim.exact_law", "exact_uniform_bandit_law", hot=True),
    _target("sim.exact_law", "exact_sign_estimator_law", hot=True),
    _target("risk.SampleSet", method="__post_init__"),
    _target("risk.empirical_cvar", hot=True),
    _target("risk.exact_cvar", hot=True),
    _target("bounds.two_point_bound", hot=True),
    _target("bounds.bandit_bound", hot=True),
    _target("bounds.estimation_bound", hot=True),
    _target("bounds.optimal_gap", hot=True),
    _target("bounds.optimal_separation", hot=True),
    _target("bounds.bound_factor", hot=True),
    _target("bounds.hinge_lower_bound", hot=True),
    _target("inversion.bernoulli_inverse", hot=True, observe=_iterations),
    _target("divergences.evals", "kl_bernoulli", hot=True),
    _target("divergences.evals", "hellinger2_bernoulli", hot=True),
)

# (stat name, has wrapped children) for the functions reported in full
FUNCTIONS = (
    ("cli.main", True),
    ("experiments.run_experiment", True),
    ("experiments.render", False),
    ("sim.run_bandit", True),
    ("sim.run_estimation", True),
    ("sim.replicate_rng", False),
    ("sim.exact_law", False),
    ("risk.SampleSet", False),
    ("risk.empirical_cvar", False),
    ("risk.exact_cvar", False),
    ("bounds.two_point_bound", False),
    ("bounds.bandit_bound", True),
    ("bounds.estimation_bound", True),
    ("bounds.optimal_gap", False),
    ("bounds.optimal_separation", False),
    ("bounds.bound_factor", False),
    ("bounds.hinge_lower_bound", True),
    ("inversion.bernoulli_inverse", True),
)
BANDIT_POLICIES = ("uniform", "etc", "ucb", "thompson")


def _per_layer_names() -> list[tuple[str, str, str]]:
    names = []
    for fn, has_children in FUNCTIONS:
        names.append((f"{fn}.calls", "count", "lower"))
        names.append((f"{fn}.total_s", "s", "lower"))
        if has_children:
            names.append((f"{fn}.self_s", "s", "lower"))
        names.append((f"{fn}.p50_us", "us", "lower"))
        names.append((f"{fn}.ptail_us", "us", "lower"))
    names += [(f"sim.run_bandit.{p}.self_s", "s", "lower") for p in BANDIT_POLICIES]
    names += [
        ("sim.replicate_rng.calls_per_key", "calls/key", "lower"),
        ("sim.predraw_mb_computed", "MB", "lower"),
        ("inversion.bernoulli_inverse.iterations", "count", "lower"),
        ("divergences.evals", "count", "lower"),
        ("divergences.total_s", "s", "lower"),
        ("divergences.evals_per_inverse", "evals/call", "lower"),
        ("experiments.rows", "count", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.uncovered_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return names


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = tuple(_per_layer_names())


def summarize(tracer: Tracer, wall: float) -> dict[str, Any]:
    """Per-name figures of one traced pass, in a JSON-ready form."""
    stats = {}
    for name, stat in sorted(tracer.stats.items()):
        label, tail = tail_percentile(stat.durations)
        stats[name] = {
            "calls": stat.calls,
            "total_s": stat.total_s,
            "self_s": stat.self_s,
            "p50_us": median(stat.durations) * 1e6,
            "ptail_us": tail * 1e6,
            "ptail": label,
        }
    return {
        "wall_s": wall,
        "covered_s": tracer.covered_s,
        "self_sum_s": tracer.self_time_total(),
        "stats": stats,
        "counters": dict(tracer.counters),
        "distinct_keys": len(tracer.distinct.get("sim.replicate_rng.keys", ())),
        "spans": tracer.span_records(),
    }


def per_layer_metrics(summary: dict[str, Any], overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass's summary; names that were
    never called read 0."""
    stats = summary["stats"]
    counters = summary["counters"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "p50_us": 0.0, "ptail_us": 0.0}
    out: dict[str, float] = {}
    for fn, has_children in FUNCTIONS:
        s = stats.get(fn, empty)
        for field in ("calls", "total_s", "self_s", "p50_us", "ptail_us"):
            if field != "self_s" or has_children:
                out[f"{fn}.{field}"] = s[field]
    for p in BANDIT_POLICIES:
        out[f"sim.run_bandit.{p}.self_s"] = stats.get(f"sim.run_bandit.{p}", empty)["self_s"]
    rng_calls = stats.get("sim.replicate_rng", empty)["calls"]
    out["sim.replicate_rng.calls_per_key"] = rng_calls / summary["distinct_keys"] if rng_calls else 0.0
    out["sim.predraw_mb_computed"] = counters.get("sim.predraw_mb_computed", 0.0)
    out["inversion.bernoulli_inverse.iterations"] = counters.get("inversion.bernoulli_inverse.iterations", 0)
    evals = stats.get("divergences.evals", empty)
    inverses = stats.get("inversion.bernoulli_inverse", empty)["calls"]
    out["divergences.evals"] = evals["calls"]
    out["divergences.total_s"] = evals["total_s"]
    out["divergences.evals_per_inverse"] = evals["calls"] / inverses if inverses else 0.0
    out["experiments.rows"] = counters.get("experiments.rows", 0)
    out["trace.wall_s"] = summary["wall_s"]
    out["trace.uncovered_s"] = summary["wall_s"] - summary["covered_s"]
    out["trace.overhead_s"] = overhead_s
    return out


def call_counts(summary: dict[str, Any]) -> dict[str, int]:
    return {name: s["calls"] for name, s in summary["stats"].items()}

