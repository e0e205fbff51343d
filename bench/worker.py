"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE

MODE is `setup` (set-up only), `pass` (one untraced pass) or `trace` (one
traced pass).

Times set-up (importing cvarbounds and building and validating the
workload's config), then one pass, traced or not, and prints one JSON object:
set-up and pass times, the times of two fixed reference loops run just before
and just after the pass, the process's peak RSS, the pass's operation counts
from the output checks, the sha256 of its rendered report and, when traced, the
per-name statistics and spans.  `run.py` starts one of these per pass.
"""

import math
import os
import sys
import time

# nothing that cvarbounds imports is loaded before the set-up clock starts,
# apart from what the interpreter itself loads at start-up
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))


MODES = ("setup", "pass", "trace")
# runs of each reference loop on each side of the pass
REF_REPEATS = 20


def _python_loop() -> float:
    total = 0.0
    for i in range(1, 40_000):
        x = i * 1e-4
        total += math.log1p(x) * math.exp(-x) if x < 2.0 else x / (1.0 + x)
    return total


def _numpy_loop() -> float:
    import numpy as np

    x = np.linspace(-1.0, 1.0, 2000)
    y = x[::-1].copy()
    total = np.zeros(2000)
    for _ in range(100):
        pick = np.where(x >= y, 1, 2).astype(np.int8)
        total += np.where(pick == 1, x, -y) / np.sqrt(2.0 + total * total)
        x, y = y, x
    return float(total.sum())


# fixed loops timed beside every pass: scalar Python, and numpy calls on
# small vectors
REFERENCES = {"python": _python_loop, "numpy": _numpy_loop}


def reference_s(kind: str) -> float:
    """Seconds for one run of the reference loop `kind`.

    The host's speed drifts by about a fifth over tens of seconds, slowing
    the program and these loops alike; `run.py` rescales the pass time by
    the loop times measured beside it to cancel that drift."""
    started = time.perf_counter()
    total = REFERENCES[kind]()
    elapsed = time.perf_counter() - started
    if not math.isfinite(total):
        raise RuntimeError(f"{kind} reference loop went non-finite")
    return elapsed


def _references() -> dict[str, list[float]]:
    return {kind: [reference_s(kind) for _ in range(REF_REPEATS)] for kind in REFERENCES}


def main(argv: list[str]) -> int:
    # argv is read by hand: argparse is part of what the CLI's set-up imports
    if len(argv) != 3 or argv[2] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    name, seed, mode = argv[0], int(argv[1]), argv[2]

    import workloads

    workload = workloads.WORKLOADS[name](seed)
    started = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - started

    import cvarbounds

    src = os.path.join(_ROOT, "src", "cvarbounds")
    if os.path.dirname(os.path.abspath(cvarbounds.__file__)) != src:
        print(f"cvarbounds was imported from {cvarbounds.__file__}, not from {src}", file=sys.stderr)
        return 2
    if mode == "setup":
        return _emit({"setup_s": setup_s})

    before = _references()
    summary = None
    if mode == "trace":
        import layers
        import tracer

        traced = tracer.Tracer(layers.TARGETS)
        result, wall = traced.run(workload.run_pass)
        summary = layers.summarize(traced, wall)
    else:
        started = time.perf_counter()
        result = workload.run_pass()
        wall = time.perf_counter() - started
    after = _references()

    import hashlib
    import statistics
    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome, rendered = workload.check(result)
    import numpy

    return _emit(
        {
            "setup_s": setup_s,
            "wall_s": wall,
            "ref_s": {kind: statistics.median(before[kind] + after[kind]) for kind in REFERENCES},
            "peak_rss_mb": peak_rss_mb,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "reasons": outcome.reasons,
            "sha256": hashlib.sha256(rendered.encode()).hexdigest(),
            "params": workload.params(),
            "numpy": numpy.__version__,
            "trace": summary,
        }
    )


def _emit(payload) -> int:
    import json

    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
