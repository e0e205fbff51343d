import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import get_args

import pytest

from cvarbounds.sim import Policy

ROOT = Path(__file__).resolve().parent.parent

# each script with tiny arguments, so the smoke run takes a second or two
_SCRIPTS = {
    "bench_pairs": ["--help"],
    "dominance_demo": ["--replicates", "500", "--horizon", "16", "--n", "9"],
    "scaling_table": ["--alphas", "0", "0.9", "--horizons", "16", "64", "--samples", "9", "36"],
}


@pytest.mark.parametrize("name", sorted(_SCRIPTS))
def test_script_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *_SCRIPTS[name]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    if name == "dominance_demo":
        # every registered policy has rows, so a new one cannot be missed
        for cls in get_args(Policy):
            assert f"\n{cls.name}:" in done.stdout, cls.name


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_lines(wall, rss, failed=0, sha="ab", raw=None):
    # the last two lines bench/run.py prints: details, then the result; the
    # raw wall time is the rescaled one unless given
    raw_wall = {"median": wall if raw is None else raw, "q1": 0.0, "q3": 1.0}
    details = {"workload": "closed-forms", "sha256": sha, "failed": failed, "end_to_end": {"wall_s": raw_wall}}
    result = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {"wall_norm_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }
    return f"progress\n{json.dumps(details)}\n{json.dumps(result)}\n"


def test_bench_pairs_summary():
    bench_pairs = _bench_pairs()
    end_to_end = [
        {"name": "wall_norm_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]
    ref_walls = [0.50, 0.52, 0.54, 0.56, 0.58, 0.50, 0.52, 0.54, 0.56, 0.58]
    pairs = [
        (
            bench_pairs.parse_run(_run_lines(w, 66.0)),
            # the change wins 9 of 10 pairs on wall time, and ties every rss
            bench_pairs.parse_run(
                _run_lines(
                    w - 0.1 if i else w + 0.01, 66.0, failed=int(i == 3), sha="cd" if i == 5 else "ab", raw=2 * w
                )
            ),
        )
        for i, w in enumerate(ref_walls)
    ]
    wall, rss, ref_failed, change_failed, fingerprints = bench_pairs.summarize(pairs, end_to_end)
    assert wall == (
        "wall_norm_s (s, lower is better): ref 0.54 (0.515-0.565) -> change 0.45 (0.42-0.48), -16.7%,"
        " change won 9/10, gain rule met, raw wall_s ref 0.54 -> change 1.08 (+100.0%), bound 0.2: within bound"
    )
    assert "change won 0/10" in rss and "+0.0%" in rss
    assert rss.endswith("gain rule not met, bound 0.1: within bound")
    assert ref_failed == "ref: 0 of 1000 operations failed"
    assert change_failed == "change: 1 of 1000 operations failed"
    # each side's short digest, and whether they differ in every pair
    assert fingerprints == "fingerprints differ in pairs [6] (not every pair), ref -> change: ab -> cd"
    moved = [(r, {**c, "sha256": f"{n}123456789abcdef"}) for n, (r, c) in enumerate(pairs[:2])]
    assert bench_pairs.summarize(moved, end_to_end)[-1] == (
        "fingerprints differ in pairs [1, 2] (every pair), ref -> change: ab -> 0123456789ab, ab -> 1123456789ab"
    )
    assert bench_pairs.summarize(pairs[:2], end_to_end)[-1] == "fingerprints match in every pair"
    # one summary per workload, each headed by its name
    lines = bench_pairs.report("HEAD", {"verify-default": pairs, "closed-forms": pairs[:1]}, end_to_end)
    assert lines[0] == "verify-default, ref HEAD against the working tree:"
    assert lines[1:6] == [wall, rss, ref_failed, change_failed, fingerprints]
    assert lines[6] == "closed-forms, ref HEAD against the working tree:"
    assert lines[7].endswith(
        "change won 0/1, gain rule not met, raw wall_s ref 0.5 -> change 1 (+100.0%), bound 0.2: within bound"
    )
    assert len(lines) == 12


def _verdict(ref_walls, change_walls, better="lower"):
    bench_pairs = _bench_pairs()
    end_to_end = [{"name": "wall_norm_s", "unit": "s", "better": better, "bound": 0.2}]
    pairs = [
        (bench_pairs.parse_run(_run_lines(r, 66.0)), bench_pairs.parse_run(_run_lines(c, 66.0)))
        for r, c in zip(ref_walls, change_walls)
    ]
    return bench_pairs.summarize(pairs, end_to_end)[0].rsplit(": ", 1)[1]


def test_bench_pairs_regression_verdict():
    steady = [0.50, 0.51, 0.52, 0.53, 0.54]
    # worse by more than the bound's 20% of the ref median, however it spreads
    assert _verdict(steady, [w * 1.3 for w in steady]) == "worse beyond bound"
    assert _verdict(steady, [w * 1.1 for w in steady]) == "within bound"
    # the ref's q3 - q1 is wider than the bound: only a clean sweep resolves it
    wide = [0.30, 0.40, 0.50, 0.60, 0.70]
    assert _verdict(wide, [w * 1.05 for w in wide]) == "unresolved"
    assert _verdict(wide, [0.25, 0.26, 0.27, 0.28, 0.29]) == "within bound"
    # where higher is better, a lower median is the worse one
    assert _verdict(steady, [w * 0.7 for w in steady], better="higher") == "worse beyond bound"
    assert _verdict(steady, [w * 1.3 for w in steady], better="higher") == "within bound"


def test_bench_pairs_runs_every_listed_workload_by_default():
    bench_pairs = _bench_pairs()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in benchmark["workloads"]]
    assert len(listed) >= 2
    assert bench_pairs.workloads(None, benchmark) == listed
    # a repeated --workload runs each named workload once, in order
    assert bench_pairs.workloads(["closed-forms", "verify-default", "closed-forms"], benchmark) == [
        "closed-forms",
        "verify-default",
    ]


def test_bench_pairs_counts_the_src_line_delta(tmp_path):
    # newlines of every src/**/*.py file, nested ones too; other files and
    # Python outside src/ are not counted
    ref, tree = tmp_path / "ref", tmp_path / "tree"
    for root, files in (
        (ref, {"src/pkg/a.py": "x = 1\ny = 2\n", "src/b.py": "z = 3\n", "src/notes.txt": "1\n2\n"}),
        (tree, {"src/pkg/a.py": "x = 1\n", "tests/test_a.py": "assert True\n"}),
    ):
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    line = _bench_pairs().src_line_delta(ref, tree)
    assert line == "src/**/*.py lines: ref 3, working tree 1, difference -2"
    assert _bench_pairs().src_line_delta(ROOT, ROOT).endswith("difference +0")
