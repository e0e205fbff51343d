"""In-process tracer for the benchmark's traced runs.

The tracer wraps, at run time, the public names through which the
cvarbounds modules call each other (for example `cvarbounds.sim.replicate_rng`,
which `run_bandit` and `run_estimation` look up as a module global).  Every
module attribute bound to the original function is swapped for a timing
wrapper and restored on `uninstall`, so no file of the program changes.

Each wrapped name is a layer boundary.  Calls of ordinary names become span
records (name, id, parent id, start, end).  Hot names, called thousands of
times per pass, produce no span of their own: their count and summed time are
aggregated under the nearest enclosing span.  Every call, hot or not, feeds
the per-name statistics (calls, total time, self time, per-call durations).
Self time is a call's duration minus the time covered by wrapped calls
directly inside it, so the self times of all names plus the time no wrapped
call covers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# percentiles tried for the tail figure, in tenths of a percent, highest
# first; one qualifies when at least ten samples lie beyond it
_TAIL_PERMILLE = (999, 990, 900)
_MIN_BEYOND = 10


@dataclass(frozen=True)
class Target:
    """One traced boundary: the stat name and where the original lives."""

    name: str
    module: str
    attr: str
    hot: bool = False
    # for a method patched on a class: the method's attribute name
    method: str | None = None
    # extra stat name suffix derived from the call's arguments
    label: Callable[..., str] | None = None
    # called with (tracer, args, kwargs, result) after each call
    observe: Callable[..., None] | None = None
    # untimed observer: no span, no stat, only `observe`
    timed: bool = True
    # skipped, rather than an error, when the attribute does not exist
    optional: bool = False


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Collects spans and per-name statistics for one traced pass."""

    def __init__(self, targets: tuple[Target, ...], clock: Callable[[], float] = time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.spans: list[dict[str, Any]] = []
        self.covered_s = 0.0  # summed duration of outermost wrapped calls
        self._stack: list[list] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._root: dict[str, Any] = {"id": None, "parent": None, "name": "pass"}
        self._started = 0.0

    # ------------------------------------------------------------ counters

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def high_water(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def add_distinct(self, name: str, key: Any) -> None:
        self.distinct.setdefault(name, set()).add(key)

    # ------------------------------------------------------------ wrapping

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self

        if not target.timed:

            @functools.wraps(original)
            def observed(*args, **kwargs):
                result = original(*args, **kwargs)
                target.observe(tracer, args, kwargs, result)
                return result

            return observed

        stack = self._stack
        clock = self.clock
        stat = self._stat(target.name)
        label = target.label
        observe = target.observe
        hot = target.hot

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # a frame is [span id that calls inside it report to, child time]
            parent_span = stack[-1][0] if stack else None
            span_id = parent_span
            if not hot:
                span_id = len(tracer.spans)
                tracer.spans.append({"id": span_id, "parent": parent_span, "name": target.name})
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.covered_s += duration
                own = duration - frame[1]
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += own
                stat.durations.append(duration)
                if label is not None:
                    sub = tracer._stat(f"{target.name}.{label(*args, **kwargs)}")
                    sub.calls += 1
                    sub.total_s += duration
                    sub.self_s += own
                    sub.durations.append(duration)
                if hot:
                    tracer._aggregate(parent_span, target.name, duration)
                else:
                    tracer.spans[span_id].update(start=start - tracer._started, end=end - tracer._started)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def _aggregate(self, span_id: int | None, name: str, duration: float) -> None:
        holder = self.spans[span_id] if span_id is not None else self._root
        aggregated = holder.get("aggregated")
        if aggregated is None:
            aggregated = holder["aggregated"] = {}
        agg = aggregated.get(name)
        if agg is None:
            agg = aggregated[name] = [0, 0.0]
        agg[0] += 1
        agg[1] += duration

    def install(self) -> None:
        """Swap every module binding of each target for its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "cvarbounds" or n.startswith("cvarbounds.")]
        for target in self.targets:
            home = sys.modules.get(target.module)
            if home is None:
                continue  # never imported, so never called
            if target.method is not None:
                cls = getattr(home, target.attr)
                original = cls.__dict__[target.method]
                self._restore.append((cls, target.method, original))
                setattr(cls, target.method, self._wrap(target, original))
                continue
            original = getattr(home, target.attr, None)
            if original is None:
                if target.optional:
                    continue
                raise AttributeError(f"{target.module}.{target.attr} does not exist")
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def run(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run `fn` as the traced pass; returns its result and the wall time."""
        self.install()
        try:
            self._started = self.clock()
            result = fn()
            wall = self.clock() - self._started
        finally:
            self.uninstall()
        self._root.update(start=0.0, end=wall)
        return result, wall

    # ------------------------------------------------------------ reporting

    def span_records(self) -> list[dict[str, Any]]:
        return [self._root, *self.spans]

    def self_time_total(self) -> float:
        """Sum of self times over every traced name (label stats excluded)."""
        names = {t.name for t in self.targets if t.timed}
        return sum(stat.self_s for name, stat in self.stats.items() if name in names)


def tail_percentile(durations: list[float]) -> tuple[str, float]:
    """Highest of p99.9 / p99 / p90 with at least ten samples beyond it;
    the maximum (labelled so) when no percentile qualifies."""
    if not durations:
        return "none", 0.0
    ordered = sorted(durations)
    n = len(ordered)
    for permille in _TAIL_PERMILLE:
        if n * (1000 - permille) >= _MIN_BEYOND * 1000:
            return f"p{permille / 10:g}", _quantile(ordered, permille / 1000)
    return "max", ordered[-1]


def median(values: list[float]) -> float:
    return _quantile(sorted(values), 0.5) if values else 0.0


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
