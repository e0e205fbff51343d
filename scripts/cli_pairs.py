#!/usr/bin/env python3
"""Time one cvarbounds command on a git ref and on the working tree.

    python3 scripts/cli_pairs.py --ref REF --runs N -- <cvarbounds argv>

Exports `git archive REF` to a temporary directory (with `bench_pairs.py`'s
export) and copies the working tree's `src/` to another, both removed on
exit.  Each side's `src/` is compiled there once beforehand, so that no run
compiles it and the working tree is left as it was.  Then it runs
`python -m cvarbounds <argv>` N times on each side, each run in a fresh
process that imports the package from its side's `src/`.  The sides alternate: odd-numbered runs start with the ref,
even-numbered ones with the working tree.  Each run prints its side, its wall
time, the child's peak RSS (`ru_maxrss` from `os.wait4`), its exit code and
the sha256 of its stdout, hashed as it streams in, so a long report is never
held.  The summary gives each side's median wall time and peak RSS with
their ranges, and whether every run of both sides wrote the same stdout.
Exits 2 if `git archive` or the compilation fails, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, exported


def measure(tree: Path, argv: list[str]) -> dict:
    """One fresh-process run of `python -m cvarbounds <argv>` on `tree`'s
    `src/`: wall time in s, peak RSS in MB, exit code and stdout sha256."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"), env.get("PYTHONPATH"))))
    digest = hashlib.sha256()
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "cvarbounds", *argv], cwd=tree, env=env, stdout=subprocess.PIPE)
    with child.stdout:
        for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
            digest.update(chunk)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "exit": child.returncode, "sha256": digest.hexdigest()}


def summarize(runs: dict[str, list[dict]]) -> list[str]:
    """A line per side of `runs` (side name to its `measure` records), then
    whether every run wrote the same stdout."""
    lines = []
    for side, records in runs.items():
        wall, rss = ([r[key] for r in records] for key in ("wall_s", "peak_rss_mb"))
        lines.append(
            f"{side}: wall {statistics.median(wall):.3f} s ({min(wall):.3f}-{max(wall):.3f}),"
            f" peak RSS {statistics.median(rss):.1f} MB ({min(rss):.1f}-{max(rss):.1f}), {len(records)} runs"
        )
    digests = sorted({r["sha256"][:12] for records in runs.values() for r in records})
    lines.append(f"stdout sha256 {digests[0]} in every run" if len(digests) == 1 else f"stdout differs: {digests}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--ref", required=True, help="git ref to compare against, such as the parent commit")
    parser.add_argument("--runs", type=int, default=3, help="runs on each side (default 3)")
    parser.add_argument("command", nargs="+", metavar="ARGV", help="cvarbounds arguments, after --")
    args = parser.parse_args(argv)
    # exit through an exception on SIGTERM, so the export is still removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        with exported(args.ref) as export, tempfile.TemporaryDirectory(prefix="cli-pairs-") as copy:
            shutil.copytree(ROOT / "src", Path(copy) / "src", ignore=shutil.ignore_patterns("__pycache__"))
            sides = {"ref": export, "working tree": Path(copy)}
            for tree in sides.values():
                subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True)
            runs: dict[str, list[dict]] = {side: [] for side in sides}
            for number in range(1, args.runs + 1):
                for side in sides if number % 2 else reversed(sides):
                    record = measure(sides[side], args.command)
                    runs[side].append(record)
                    print(
                        f"run {number} {side}: wall {record['wall_s']:.3f} s, peak RSS {record['peak_rss_mb']:.1f} MB,"
                        f" exit {record['exit']}, stdout sha256 {record['sha256']}",
                        flush=True,
                    )
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}: {(exc.stderr or b'').decode()[-2000:]}", file=sys.stderr)
        return 2
    print("\n".join([f"ref {args.ref} against the working tree, cvarbounds {' '.join(args.command)}:", *summarize(runs)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
