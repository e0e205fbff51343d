"""Upper-tail CVaR on loss samples and on finite atomic loss laws.

CVaR at tail level alpha is the mean of the worst (1 - alpha) fraction of the
loss distribution, equivalently the Rockafellar-Uryasev threshold form

    CVaR_alpha(L) = min_t { t + E[(L - t)_+] / (1 - alpha) }.

This module provides the plug-in estimator on a finite sample (closed form,
no numeric minimization) and the exact value on a finite atomic law.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

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
        # + 0.0 holds a zero level as +0.0, so -0 and 0 write one cell
        object.__setattr__(self, "alpha", float(self.alpha) + 0.0)

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


@dataclass(frozen=True, init=False, repr=False, slots=True)
class DiscreteLossDistribution:
    """Finite atomic loss law, held as two columns: `values`, finite floats
    in strictly ascending order, and `probs`, finite floats >= 0 that sum to
    1 within EXACT_TOL.

    The constructor takes (value, probability) atoms, merges duplicate
    values and sorts them; `atoms` reads the columns back as pairs, and a
    law prints as its atoms and compares and hashes as its columns.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __init__(self, atoms: Iterable[tuple[float, float]]) -> None:
        merged: dict[float, float] = {}
        for v, p in atoms:
            if type(v) is not float or type(p) is not float:
                _check_fields({"atom_value": v, "atom_probability": p})
                v, p = float(v), float(p)
            # a merge adds each probability to +0.0, so -0.0 becomes 0.0
            merged[v] = merged.get(v, 0.0) + p
        values = tuple(sorted(merged))
        self._set_columns(values, tuple(map(merged.__getitem__, values)))

    @classmethod
    def _from_columns(cls, values: tuple[float, ...], probs: tuple[float, ...]) -> DiscreteLossDistribution:
        """A law from its columns as given, which the column rule checks;
        the package's own laws are built this way and may share a column."""
        law = object.__new__(cls)
        law._set_columns(values, probs)
        return law

    def _set_columns(self, values: tuple[float, ...], probs: tuple[float, ...]) -> None:
        """Apply the column rule, then hold the columns.  Each check is a
        C-level pass; only a refused column is walked atom by atom, to name
        the first bad atom."""
        if len(values) != len(probs) or not probs:
            raise ValueError(f"a law needs atoms, one probability per value, got {len(values)} and {len(probs)}")
        if not (all(map(math.isfinite, values)) and all(map(math.isfinite, probs)) and min(probs) >= 0.0):
            for v, p in zip(values, probs):
                _check_fields({"atom_value": v, "atom_probability": p})
        if not all(map(operator.lt, values, values[1:])):
            raise ValueError(f"atom values must be strictly ascending, got {values!r}")
        total = sum(probs)
        if abs(total - 1.0) > EXACT_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, expected 1 within {EXACT_TOL}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(value, probability) pairs in ascending value order."""
        return tuple(zip(self.values, self.probs))

    def __repr__(self) -> str:
        return f"DiscreteLossDistribution(atoms={self.atoms!r})"

    def mean(self) -> float:
        return sum(map(operator.mul, self.values, self.probs))


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
    for value, prob in zip(reversed(dist.values), reversed(dist.probs)):
        take = prob if prob < remaining else remaining
        acc += take * value
        remaining -= take
        if remaining <= 0.0:
            break
    return acc / q
