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
import numpy as np

from .errors import _check_fields, _type_problem

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
        _check_fields({"alpha": self.alpha})
        object.__setattr__(self, "alpha", float(self.alpha))

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


@dataclass(frozen=True)
class DiscreteLossDistribution:
    """Finite atomic loss law; duplicate values are merged at construction.

    Atoms are kept sorted by ascending value.  Probabilities must be
    nonnegative and sum to 1 within EXACT_TOL.  A tuple of (float, float)
    tuples with strictly increasing values and positive probabilities is
    kept as given; any other input is merged and sorted.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        as_given = type(self.atoms) is tuple
        atoms = self.atoms if as_given else tuple(self.atoms)
        total, last = 0.0, -math.inf
        for atom in atoms:
            v, p = atom
            # the package's own laws pass plain floats, tens of thousands of
            # atoms a sweep; anything else goes through the field table
            if type(v) is float and type(p) is float and -math.inf < v < math.inf and 0.0 <= p < math.inf:
                # a merge adds each probability to +0.0, so a zero is merged
                as_given = as_given and last < v and p > 0.0 and type(atom) is tuple
                last = v
            else:
                _check_fields({"atom_value": v, "atom_probability": p})
                p, as_given = float(p), False
            total += p
        if abs(total - 1.0) > EXACT_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, expected 1 within {EXACT_TOL}")
        if not as_given:
            merged: dict[float, float] = {}
            for v, p in atoms:
                v, p = float(v), float(p)
                merged[v] = merged.get(v, 0.0) + p
            object.__setattr__(self, "atoms", tuple(sorted(merged.items())))

    def mean(self) -> float:
        return sum(v * p for v, p in self.atoms)


def _tail_block(level: RiskLevel, count: int) -> int:
    """Samples in the tail block, ceil((1 - alpha) count), that an empirical CVaR averages; the last is its VaR."""
    return math.ceil(level.tail_mass * count)


def empirical_cvar(samples: SampleSet, level: RiskLevel) -> float:
    """Plug-in CVaR of the empirical measure, in closed form.

    With m = (1 - alpha) * N units of tail mass: if m <= 1 the value is the
    largest sample; otherwise it is the mean of the k - 1 = ceil(m) - 1 worst
    samples plus a fractional share m - (k - 1) of the k-th worst, all
    divided by m.  This equals the minimum of the threshold form over t.
    """
    if type(samples) is not SampleSet or type(level) is not RiskLevel:
        _check_fields(
            {}, samples=_type_problem(samples, SampleSet), level=_type_problem(level, RiskLevel)
        )
    xs = samples.values
    m = level.tail_mass * samples.count
    if m <= 1.0:
        return float(xs[0])
    k = _tail_block(level, samples.count)
    head = float(xs[: k - 1].sum())
    return (head + (m - (k - 1)) * float(xs[k - 1])) / m


def exact_cvar(dist: DiscreteLossDistribution, level: RiskLevel) -> float:
    """Exact CVaR of a finite atomic law.

    Walks atoms from the largest value down, consuming probability until
    (1 - alpha) mass is reached; the boundary atom contributes fractionally.
    For alpha = 0 this is the plain mean.
    """
    if type(dist) is not DiscreteLossDistribution or type(level) is not RiskLevel:
        _check_fields(
            {}, dist=_type_problem(dist, DiscreteLossDistribution), level=_type_problem(level, RiskLevel)
        )
    q = level.tail_mass
    remaining = q
    acc = 0.0
    for value, prob in reversed(dist.atoms):
        take = prob if prob < remaining else remaining
        acc += take * value
        remaining -= take
        if remaining <= 0.0:
            break
    return acc / q
