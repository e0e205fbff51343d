#!/usr/bin/env python3
"""Compare a git ref with the working tree on the benchmark workloads.

    python3 scripts/bench_pairs.py --ref REF [--workload W ...] --pairs N --seed0 S --seconds T

Exports `git archive REF` to a temporary directory and copies the working
tree's `src/` and `bench/` without `__pycache__` to another, both removed on
exit, so that neither side runs on bytecode the other lacks.  It then runs
`bench/run.py --trace 0` alternately on the export and on the copy, each from
its own `bench/`.  `--workload` may repeat; without it every
workload `BENCHMARK.json` lists is run, one after the other.  Pair i (from 1)
of a workload runs both sides at seed S + i - 1; odd-numbered pairs run the
ref first and even-numbered ones the working tree.

Once all pairs have run, it prints one summary per workload.  For each
end-to-end metric `BENCHMARK.json` lists, a summary gives each side's
median with its q1-q3, the relative change of the medians, how many pairs the
change won (a tie counts for neither side) and whether the gain rule holds:
at least 9 in 10 pairs won, and medians apart by more than the ref's q3 - q1.
Beside `wall_norm_s` it gives each side's median of the runs' raw `wall_s`
(from the details line) and their relative change, so a claim can be seen
to hold before the host-speed rescaling.
It then gives the regression verdict, with the metric's `bound` read as a
fraction of the ref's median: "worse beyond bound" when the change's median
is worse by more than that; else "unresolved" when the ref's q3 - q1 exceeds
it and not every change run beats every ref run; else "within bound".
Last come each side's failed operations and the pairs whose output
fingerprints (the details line's sha256) differ, with each side's short
digest and whether they differ in every pair.  Each pair runs its own seed,
so no digest repeats across pairs.  A difference in every pair reads as an
output change that every seed's inputs reach; one in some pairs only may be
nondeterminism, which a run also counts as failed operations when its own
passes disagree.  The report ends with the line count of `src/**/*.py` in
the export and in the working tree, and the difference: the change's net
line delta.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> dict:
    """One run of `bench/run.py`: its last two lines are the details and the
    result JSON.  Returns the metric medians, the median raw `wall_s`,
    failed and attempted operation counts and the output fingerprint."""
    details, result = (json.loads(line) for line in stdout.strip().splitlines()[-2:])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "wall_s": details["end_to_end"]["wall_s"]["median"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "sha256": details["sha256"],
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    # as bench/run.py describes a run's passes
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[str]:
    """Report lines for (ref run, change run) pairs of `parse_run` records,
    one line per end-to-end metric (`BENCHMARK.json` entries with a name,
    unit and better direction), then the failures and fingerprints."""
    lines = []
    for metric in end_to_end:
        name, unit, sign = metric["name"], metric["unit"], 1.0 if metric["better"] == "lower" else -1.0
        ref = [r["metrics"][name] for r, _ in pairs]
        new = [c["metrics"][name] for _, c in pairs]
        (r1, rm, r3), (c1, cm, c3) = _quartiles(ref), _quartiles(new)
        wins = sum(sign * (r - c) > 0.0 for r, c in zip(ref, new))
        gain = 10 * wins >= 9 * len(pairs) and sign * (rm - cm) > r3 - r1
        bound = metric["bound"]
        if sign * (cm - rm) > bound * abs(rm):
            verdict = "worse beyond bound"
        elif r3 - r1 > bound * abs(rm) and not all(sign * (r - c) > 0.0 for r in ref for c in new):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        change = f"{(cm - rm) / rm:+.1%}" if rm else "n/a"
        raw = ""
        if name == "wall_norm_s":
            raw_ref, raw_new = (statistics.median(run["wall_s"] for run in side) for side in zip(*pairs))
            raw = f", raw wall_s ref {raw_ref:.4g} -> change {raw_new:.4g} ({(raw_new - raw_ref) / raw_ref:+.1%})"
        lines.append(
            f"{name} ({unit}, {metric['better']} is better): ref {rm:.4g} ({r1:.4g}-{r3:.4g})"
            f" -> change {cm:.4g} ({c1:.4g}-{c3:.4g}), {change}, change won {wins}/{len(pairs)},"
            f" gain rule {'met' if gain else 'not met'}{raw}, bound {bound:g}: {verdict}"
        )
    for side, i in (("ref", 0), ("change", 1)):
        failed = sum(p[i]["failed"] for p in pairs)
        attempted = sum(p[i]["attempted"] for p in pairs)
        lines.append(f"{side}: {failed} of {attempted} operations failed")
    differ = [n for n, (r, c) in enumerate(pairs, 1) if r["sha256"] != c["sha256"]]
    if differ:
        every = "every pair" if len(differ) == len(pairs) else "not every pair"
        digests = ", ".join(f"{pairs[n - 1][0]['sha256'][:12]} -> {pairs[n - 1][1]['sha256'][:12]}" for n in differ)
        lines.append(f"fingerprints differ in pairs {differ} ({every}), ref -> change: {digests}")
    else:
        lines.append("fingerprints match in every pair")
    return lines


def workloads(chosen: list[str] | None, benchmark: dict) -> list[str]:
    """The workloads to run: those chosen, in order and each once, or every
    one `benchmark` (the parsed `BENCHMARK.json`) lists."""
    return list(dict.fromkeys(chosen)) if chosen else [w["name"] for w in benchmark["workloads"]]


def report(ref: str, results: dict[str, list[tuple[dict, dict]]], end_to_end: list[dict]) -> list[str]:
    """One `summarize` block per workload of `results` (its name to its
    pairs), each headed by the workload's name."""
    lines = []
    for workload, pairs in results.items():
        lines.append(f"{workload}, ref {ref} against the working tree:")
        lines.extend(summarize(pairs, end_to_end))
    return lines


def src_line_delta(ref: Path, tree: Path) -> str:
    """The report line comparing the lines (newlines, as `wc -l` counts them)
    of every `src/**/*.py` file in the ref's export and in the tree."""
    ref_lines, tree_lines = (
        sum(path.read_bytes().count(b"\n") for path in (root / "src").rglob("*.py")) for root in (ref, tree)
    )
    return f"src/**/*.py lines: ref {ref_lines}, working tree {tree_lines}, difference {tree_lines - ref_lines:+d}"


@contextlib.contextmanager
def exported(ref: str) -> Iterator[Path]:
    """`git archive REF` of this repository, extracted to a temporary
    directory that is removed on exit.  A failing `git archive` raises
    `subprocess.CalledProcessError`, carrying git's stderr."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True)
    export = Path(tempfile.mkdtemp(prefix="ref-export-"))
    try:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(export, filter="data")
        yield export
    finally:
        shutil.rmtree(export, ignore_errors=True)


@contextlib.contextmanager
def copied(root: Path) -> Iterator[Path]:
    """`root`'s `src/` and `bench/`, copied without `__pycache__` to a
    temporary directory that is removed on exit.  Its benchmark workers then
    compile `src/` as those of a `git archive` export do."""
    with tempfile.TemporaryDirectory(prefix="tree-copy-") as copy:
        for name in ("src", "bench"):
            shutil.copytree(root / name, Path(copy) / name, ignore=shutil.ignore_patterns("__pycache__"))
        yield Path(copy)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    return parse_run(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--ref", required=True, help="git ref to compare against, such as the parent commit")
    parser.add_argument(
        "--workload", action="append", help="benchmark workload name; may repeat (default: every listed workload)"
    )
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=15.0, help="bench/run.py --seconds (default 15)")
    args = parser.parse_args(argv)
    # exit through an exception on SIGTERM, so the export is still removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = benchmark["end_to_end"]
    try:
        with exported(args.ref) as export, copied(ROOT) as tree:
            lines = src_line_delta(export, tree)
            results = {}
            for workload in workloads(args.workload, benchmark):
                pairs = results[workload] = []
                for number in range(1, args.pairs + 1):
                    seed = args.seed0 + number - 1
                    sides = (export, tree) if number % 2 else (tree, export)
                    runs = {side: _run(side, workload, seed, args.seconds) for side in sides}
                    pairs.append((runs[export], runs[tree]))
                    print(f"{workload} pair {number} seed {seed}: " + ", ".join(
                        f"{m['name']} {runs[export]['metrics'][m['name']]:.4g}"
                        f" -> {runs[tree]['metrics'][m['name']]:.4g}"
                        for m in end_to_end
                    ), flush=True)
    except subprocess.CalledProcessError as exc:
        print(f"error: git archive {args.ref}: {exc.stderr.decode()[-2000:]}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join([*report(args.ref, results, end_to_end), lines]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
