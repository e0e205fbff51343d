"""cvarbounds benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Each pass runs in a fresh interpreter (`worker.py`), one
at a time with one thread, a closed loop with a single caller.  Passes are
started until the next one would end after `--seconds`.

With `--trace 0` every pass is untraced and the run reports, as medians over
its passes, the end-to-end metrics: `wall_norm_s` (the pass's wall time,
rescaled to the host's speed, see below), `setup_s` (import cvarbounds, build
and validate the workload's config, rescaled the same way) and `peak_rss_mb`
(high-water RSS of the process that ran the pass).  A pass's wall time `wall_s` runs from the first
call into cvarbounds after set-up until the last result is in hand, and
excludes the output checks.  With `--trace 1` untraced and traced passes
alternate, and the run reports the per-layer metrics of the traced pass with
the median wall time, plus the tracing overhead.

The speed of a shared host drifts: a fixed loop's median over windows of 5
to 60 seconds spreads by about 20% (interquartile range over median) on a
2-CPU VM, at every window length, so no run length averages it out.  Each
worker therefore also times two fixed reference loops, one of scalar Python
and one of numpy calls on small vectors, just before and just after its pass.
The host's speed beside the pass is the geometric mean of the two loops'
nominal times (`REF_NOMINAL_S`) over their measured ones, and `wall_norm_s`
is `wall_s` times that speed: the pass time on a host that runs the loops in
their nominal times.  A slower program moves it as much as it moves
`wall_s`.  `setup_s` is the measured set-up time times the same speed.  The
raw `wall_s` and `setup_raw_s` and the loop times are on the details line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, call_counts, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# nominal times of the reference loops; their medians beside passes on a
# 2-CPU Xeon VM were 6.7 ms and 2.6 ms
REF_NOMINAL_S = {"python": 0.0055, "numpy": 0.003}
MIN_PASSES = 3  # per pass kind
# no pass starts after this many seconds, and none may run past HARD_STOP_S
LATEST_START_S = 150.0
HARD_STOP_S = 170.0
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cvarbounds benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through an exception on SIGTERM, so the running pass is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "cvarbounds" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'cvarbounds'}", file=sys.stderr)
        return 2
    try:
        details, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=1) + "\n")
    details.pop("spans", None)
    details["details_file"] = str(out_file.relative_to(ROOT))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


def _worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = {**os.environ, **SINGLE_THREAD}
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(5.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = time.monotonic()
    hard_stop = started + HARD_STOP_S
    # one untimed set-up first: fills the file cache and writes bytecode
    _worker(workload, seed, "setup", hard_stop)
    deadline = time.monotonic() + seconds
    kinds = ("pass", "trace") if trace else ("pass",)
    passes: dict[str, list[dict]] = {k: [] for k in kinds}
    longest = 0.0
    while True:
        kind = kinds[sum(len(v) for v in passes.values()) % len(kinds)]
        t0 = time.monotonic()
        passes[kind].append(_worker(workload, seed, kind, hard_stop))
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        enough = all(len(v) >= MIN_PASSES for v in passes.values())
        if (enough and now + longest > deadline) or now + longest > started + LATEST_START_S:
            break

    every = [p for k in kinds for p in passes[k]]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    reasons = [r for p in every for r in p["reasons"]][:10]
    reference = every[0]["sha256"]
    mismatched = sum(p["sha256"] != reference for p in every)
    if mismatched:
        failed += mismatched
        reasons.append(f"{mismatched} of {len(every)} passes rendered other bytes than the first")

    untraced = passes["pass"]
    for p in untraced:
        speed = host_speed(p["ref_s"])
        p["wall_norm_s"] = p["wall_s"] * speed
        p["setup_raw_s"], p["setup_s"] = p["setup_s"], p["setup_s"] * speed
        p.update({f"ref_{kind}_s": s for kind, s in p["ref_s"].items()})
    raw = ["wall_s", "setup_raw_s", *(f"ref_{kind}_s" for kind in REF_NOMINAL_S)]
    names = [name for name, _ in END_TO_END] + raw
    samples = {name: [p[name] for p in untraced] for name in names}
    details = {
        "benchmark": "cvarbounds",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": _provenance(every[0]),
        "params": every[0]["params"],
        "sha256": reference,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failure_reasons": reasons,
        "end_to_end": {name: _describe(values) for name, values in samples.items()},
    }
    correct = failed == 0
    if trace:
        traced = sorted(passes["trace"], key=lambda p: p["trace"]["wall_s"])
        chosen = traced[(len(traced) - 1) // 2]["trace"]
        overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(samples["wall_s"])
        values = per_layer_metrics(chosen, overhead)
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        problems = _trace_problems(traced, chosen)
        correct = correct and not problems
        details["trace_checks"] = problems or ["ok"]
        details["per_layer_tail"] = {
            name: {"percentile": s["ptail"], "samples": s["calls"]} for name, s in chosen["stats"].items()
        }
        details["traced_wall_s"] = _describe([p["trace"]["wall_s"] for p in traced])
        details["spans"] = chosen["spans"]
    else:
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, result


def host_speed(ref_s: dict[str, float]) -> float:
    """Geometric mean, over the reference loops, of each loop's nominal time
    divided by its time beside the pass: 1 on a host at nominal speed, 0.5 on
    one that runs the loops at half speed."""
    ratios = [REF_NOMINAL_S[kind] / ref_s[kind] for kind in REF_NOMINAL_S]
    return math.prod(ratios) ** (1.0 / len(ratios))


def _trace_problems(traced: list[dict], chosen: dict) -> list[str]:
    """Exact counts must repeat across traced passes, and self times plus
    uncovered time must add up to the traced wall time."""
    problems = []
    counts = [call_counts(p["trace"]) for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("call counts differ between traced passes")
    total = chosen["self_sum_s"] + (chosen["wall_s"] - chosen["covered_s"])
    if abs(total - chosen["wall_s"]) > 1e-9 * max(1.0, chosen["wall_s"]):
        problems.append(f"self times plus uncovered time {total} != traced wall {chosen['wall_s']}")
    return problems


def _describe(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "samples": len(values), "values": values}


def _provenance(first_pass: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(ROOT / "src"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "ram_mb": _ram_mb(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": first_pass["numpy"],
        "threads": 1,
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _tree_sha256(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _ram_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
