"""Upper-tail CVaR on loss samples and on finite atomic loss laws.

CVaR at tail level alpha is the mean of the worst (1 - alpha) fraction of the
loss distribution, equivalently the Rockafellar-Uryasev threshold form

    CVaR_alpha(L) = min_t { t + E[(L - t)_+] / (1 - alpha) }.

This module provides the plug-in estimator on a finite sample (closed form,
no numeric minimization) and the exact value on a finite atomic law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "EXACT_TOL",
    "RiskLevel",
    "SampleSet",
    "DiscreteLossDistribution",
    "empirical_cvar",
    "exact_cvar",
]

# absolute tolerance for identities that hold exactly in real arithmetic
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class RiskLevel:
    """Tail level alpha in [0, 1); alpha = 0 recovers the plain mean."""

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not 0.0 <= a < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

    @property
    def tail_mass(self) -> float:
        return 1.0 - self.alpha


@dataclass(frozen=True)
class SampleSet:
    """Finite batch of loss realizations, stored in nonincreasing order.

    Construction copies, sorts, and freezes the values; ordering is part of
    the contract so tail slices are O(1) to locate.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("SampleSet requires a nonempty one-dimensional value sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("SampleSet values must all be finite")
        arr = np.sort(arr, kind="stable")[::-1].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def count(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        return float(self.values.mean())

    def max_value(self) -> float:
        return float(self.values[0])


@dataclass(frozen=True)
class DiscreteLossDistribution:
    """Finite atomic loss law; duplicate values are merged at construction.

    Atoms are kept sorted by ascending value.  Probabilities must be
    nonnegative and sum to 1 within EXACT_TOL.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        merged: dict[float, float] = {}
        total = 0.0
        for value, prob in self.atoms:
            v = float(value)
            p = float(prob)
            if not math.isfinite(v):
                raise ValueError(f"atom value must be finite, got {value!r}")
            if not (p >= 0.0 and math.isfinite(p)):
                raise ValueError(f"atom probability must be finite and >= 0, got {prob!r}")
            merged[v] = merged.get(v, 0.0) + p
            total += p
        if abs(total - 1.0) > EXACT_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, expected 1 within {EXACT_TOL}")
        object.__setattr__(self, "atoms", tuple(sorted(merged.items())))

    def atoms_desc(self) -> Iterable[tuple[float, float]]:
        """Atoms from the largest loss value down, the order CVaR consumes them."""
        return tuple(reversed(self.atoms))

    def mean(self) -> float:
        return sum(v * p for v, p in self.atoms)


def empirical_cvar(samples: SampleSet, level: RiskLevel) -> float:
    """Plug-in CVaR of the empirical measure, in closed form.

    With m = (1 - alpha) * N units of tail mass: if m <= 1 the value is the
    largest sample; otherwise it is the mean of the k - 1 = ceil(m) - 1 worst
    samples plus a fractional share m - (k - 1) of the k-th worst, all
    divided by m.  This equals the minimum of the threshold form over t.
    """
    xs = samples.values
    m = level.tail_mass * samples.count
    if m <= 1.0:
        return float(xs[0])
    k = math.ceil(m)
    head = float(xs[: k - 1].sum())
    return (head + (m - (k - 1)) * float(xs[k - 1])) / m


def exact_cvar(dist: DiscreteLossDistribution, level: RiskLevel) -> float:
    """Exact CVaR of a finite atomic law.

    Walks atoms from the largest value down, consuming probability until
    (1 - alpha) mass is reached; the boundary atom contributes fractionally.
    For alpha = 0 this is the plain mean.
    """
    q = level.tail_mass
    remaining = q
    acc = 0.0
    for value, prob in dist.atoms_desc():
        take = prob if prob < remaining else remaining
        acc += take * value
        remaining -= take
        if remaining <= 0.0:
            break
    return acc / q
