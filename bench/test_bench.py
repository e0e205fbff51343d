"""Self-test of the benchmark's checks and tracer, at reduced sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "verify-default": dict(replicates=300),
    "closed-forms": dict(
        rho_step=0.01, bound_grid=2, two_point=6, inverses=10, hinges=4, uniform_laws=4, sign_laws=4
    ),
}


def _workload(name: str, seed: int = 7):
    w = workloads.WORKLOADS[name](seed, **SMALL[name])
    w.setup()
    return w


def _traced(w):
    t = tracer.Tracer(layers.TARGETS)
    result, wall = t.run(w.run_pass)
    return result, layers.summarize(t, wall)


@pytest.fixture(scope="module")
def verify_report() -> str:
    w = _workload("verify-default")
    code, text = w.run_pass()
    assert code == 0
    outcome, _ = w.check((code, text))
    assert (outcome.attempted, outcome.failed) == (63, 0), outcome.reasons
    return text


def _edit_cell(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[workloads.CSV_HEADER.split(",").index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "column, value",
    [("dominated", "false"), ("empirical_cvar", "nan"), ("bound", "inf"), ("stderr", "")],
)
def test_one_bad_cell_is_one_failed_operation(verify_report, column, value):
    bad = _edit_cell(verify_report, 17, column, value)
    outcome = workloads.check_report(bad, 63)
    assert (outcome.attempted, outcome.failed) == (63, 1), outcome.reasons


def test_exact_below_bound_missing_row_and_exit_code_fail(verify_report):
    row = next(i for i, line in enumerate(verify_report.splitlines()[1:]) if line.split(",")[6])
    bad = _edit_cell(verify_report, row, "exact_cvar", "0")
    assert workloads.check_report(bad, 63).failed == 1
    truncated = "".join(verify_report.splitlines(keepends=True)[:-1])
    assert workloads.check_report(truncated, 63).failed == 1
    assert workloads.check_report(verify_report, 63, exit_code=1).failed == 1
    assert workloads.check_report("", 63, exit_code=2).failed == 63


def test_closed_forms_checks_catch_one_bad_result():
    w = _workload("closed-forms")
    ops = w.run_pass()
    outcome, _ = w.check(ops)
    assert outcome.failed == 0, outcome.reasons
    assert outcome.attempted == len(ops)
    cb = w.cb

    def replace(kind: str, make, where=lambda op: True) -> int:
        i = next(i for i, op in enumerate(ops) if op[0] == kind and where(op))
        bad = list(ops)
        bad[i] = (kind, ops[i][1], make(ops[i]))
        return w.check(bad)[0].failed

    assert replace("bernoulli_inverse", lambda op: cb.InversionResult(0.0, op[1][1] * 2, 3)) == 1
    assert replace("two_point_bound", lambda op: cb.BoundResult(-1.0, 0.0, op[2].branch, op[2].method)) == 1
    assert replace("exact_cvar", lambda op: op[1][0].mean() - 1.0) == 1
    assert replace("hinge_lower_bound", lambda op: float("nan")) == 1
    assert replace("render", lambda op: op[2] + "extra\n") == 1
    assert replace("bound", lambda op: RuntimeError("boom")) == 1
    # a balanced spec whose value drifts from balanced_bound by 1e-9 l_max
    off_balanced = replace(
        "two_point_bound",
        lambda op: cb.BoundResult(op[2].value + 1e-9 * op[1][0].l_max, 0.0, op[2].branch, op[2].method),
        where=lambda op: op[1][0].c_sep == op[1][0].l_max,
    )
    assert off_balanced == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_passes_agree(name):
    w = _workload(name)
    untraced = w.check(w.run_pass())
    first, summary = _traced(w)
    traced = w.check(first)
    _, again = _traced(w)
    # tracing changes neither the outputs nor the checks
    assert hashlib.sha256(traced[1].encode()).digest() == hashlib.sha256(untraced[1].encode()).digest()
    assert (traced[0].attempted, traced[0].failed) == (untraced[0].attempted, 0)
    assert layers.call_counts(summary) == layers.call_counts(again)
    # self times plus the uncovered time add up to the traced wall time
    uncovered = summary["wall_s"] - summary["covered_s"]
    assert summary["self_sum_s"] + uncovered == pytest.approx(summary["wall_s"], rel=1e-9, abs=1e-12)
    metrics = layers.per_layer_metrics(summary, 0.0)
    assert set(metrics) == {n for n, _, _ in layers.PER_LAYER}
    if name == "verify-default":
        assert metrics["sim.replicate_rng.calls"] == 63 * w.replicates
        assert metrics["sim.replicate_rng.calls_per_key"] == 63
        assert metrics["experiments.rows"] == 63
        assert metrics["bounds.two_point_bound.calls"] == 0
        assert metrics["cli.main.calls"] >= 1
    if name == "closed-forms":
        assert metrics["sim.replicate_rng.calls"] == 0
        assert metrics["bounds.two_point_bound.calls"] == len(w.specs)
        assert metrics["inversion.bernoulli_inverse.calls"] == len(w.inverses) + len(w.hinges)


def test_tracer_restores_every_binding():
    import cvarbounds
    import cvarbounds.sim as sim

    originals = (cvarbounds.replicate_rng, sim.replicate_rng, cvarbounds.SampleSet.__post_init__)
    _traced(_workload("closed-forms"))
    assert (cvarbounds.replicate_rng, sim.replicate_rng, cvarbounds.SampleSet.__post_init__) == originals


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracer.tail_percentile([1.0] * 99)[0] == "max"
    assert tracer.tail_percentile([1.0] * 100)[0] == "p90"
    assert tracer.tail_percentile([1.0] * 1000)[0] == "p99"
    assert tracer.tail_percentile([1.0] * 10_000)[0] == "p99.9"


def test_host_speed_rescales_by_the_reference_loops():
    assert set(worker.REFERENCES) == set(run.REF_NOMINAL_S)
    assert run.host_speed(run.REF_NOMINAL_S) == pytest.approx(1.0)
    halved = {kind: 2.0 * s for kind, s in run.REF_NOMINAL_S.items()}
    assert run.host_speed(halved) == pytest.approx(0.5)
    assert all(worker.reference_s(kind) > 0.0 for kind in worker.REFERENCES)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
