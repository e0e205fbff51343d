"""Shared semantic exceptions and the input rules every module reads.

`_FIELD_PROBLEMS` says, for each scalar input the package takes by name
(config fields and closed-form arguments alike), what value it may hold: a
`_Rule`, a type and a range stated as data; `_check_fields` raises one
ValueError naming every value it refuses.  Values are refused rather than
coerced: a string, a bool or a float where an int is asked for never
reaches the arithmetic.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Mapping, NamedTuple

_SEED_LIMIT = 2**64


class DomainError(ValueError):
    """Input lies outside an operation's finite or supported domain.

    Raised instead of returning infinity sentinels (e.g. infinite binary KL)
    or silently truncating (e.g. horizons too long for exact enumeration);
    silent sentinels mask calibration bugs downstream.
    """


def _is_int(value: object) -> bool:
    """A Python int; floats, strings, bools and numpy integers are refused
    rather than coerced (a numpy integer would reach problem_params, which
    JSON cannot render)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """A real number; strings, None and bools are refused.  Floats are
    tested first, because the numbers.Real test is several times slower."""
    return isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def _type_problem(value: object, cls: type) -> str | None:
    """Why `value` is refused where an instance of exactly `cls` is asked
    for, or None; for the closed forms' object arguments, which no table
    entry names."""
    return None if type(value) is cls else f"must be a {cls.__name__}, got {value!r}"


def _float_holds(value: object) -> bool:
    """False for an int that no float can hold, whose arithmetic would
    overflow; only an int is compared with the largest float, which a numpy
    float32 cannot hold."""
    return not (isinstance(value, int) and abs(value) > sys.float_info.max)


class _Rule(NamedTuple):
    """What a named scalar input may hold, stated once as data: an int
    (`plain` is int) or a real (`plain` is float) between `lo` and `hi`,
    each end open or closed, that a float can hold.  Called on a value, a
    rule gives `why` it is refused, or None."""

    plain: type
    lo: float
    lo_open: bool
    hi: float
    hi_open: bool
    why: str

    def __call__(self, value: object) -> str | None:
        ok = (
            (_is_int(value) if self.plain is int else _is_real(value))
            and (self.lo < value if self.lo_open else self.lo <= value)
            and (value < self.hi if self.hi_open else value <= self.hi)
            and _float_holds(value)
        )
        return None if ok else self.why

    def plain_range(self) -> tuple[float, float]:
        """The closed range a value of exactly type `plain` passes in: an
        open end moves in by one int or one float step, and both ends are
        held to the range a float can hold."""
        step = (lambda end, toward: end + (1 if toward > end else -1)) if self.plain is int else math.nextafter
        lo = step(self.lo, math.inf) if self.lo_open else self.lo
        hi = step(self.hi, -math.inf) if self.hi_open else self.hi
        return max(lo, -sys.float_info.max), min(hi, sys.float_info.max)


_count_problem = _Rule(int, 1, False, math.inf, True, "must be an int >= 1 that a float can hold")
_seed_problem = _Rule(int, 0, False, _SEED_LIMIT, True, "must be an unsigned 64-bit int")
_finite_problem = _Rule(float, -math.inf, True, math.inf, True, "must be a finite real")
_positive_problem = _Rule(float, 0.0, True, math.inf, True, "must be a finite real > 0")
_nonnegative_problem = _Rule(float, 0.0, False, math.inf, True, "must be a finite real >= 0")
_unit_problem = _Rule(float, 0.0, False, 1.0, False, "must be a real in [0, 1]")
_level_problem = _Rule(float, 0.0, False, 1.0, True, "must be a real in [0, 1)")


# what a value of each named scalar input must be: the reason a value is
# refused, or None; every reader of these names checks them here
_FIELD_PROBLEMS = {
    "n": _count_problem,
    "horizon": _count_problem,
    "replicates": _count_problem,
    "seed": _seed_problem,
    "delta": _positive_problem,
    "gap": _positive_problem,
    "g": _positive_problem,  # the gap, as the bandit closed forms name it
    "l_max": _positive_problem,
    "scale": _positive_problem,
    "rho_max": _positive_problem,
    "rho_step": _positive_problem,
    "rho": _nonnegative_problem,
    "gamma": _nonnegative_problem,
    "budget": _nonnegative_problem,
    "c_explore": _nonnegative_problem,
    "a": _unit_problem,
    "b": _unit_problem,
    "reference_hinge": _unit_problem,
    "alpha": _level_problem,
    "atom_value": _finite_problem,
    "atom_probability": _nonnegative_problem,
}
# each name's plain type with the closed range it passes in: the fast path
# of `_check_fields`, read off the rules
_PLAIN_RANGES = {name: (rule.plain, *rule.plain_range()) for name, rule in _FIELD_PROBLEMS.items()}
_NO_RULE = (None, None, None)


def _regret_cap_problem(gap: object, horizon: object) -> str | None:
    """Why the regret cap g T of a gap and horizon that `_FIELD_PROBLEMS`
    take overflows a float, or None.  A finite g T keeps every arm sum of a
    rollout finite."""
    if _positive_problem(gap) or _count_problem(horizon) or math.isfinite(float(gap) * horizon):
        return None
    return f"g horizon overflows a float at horizon = {horizon}, got {gap!r}"


def _field_problems(values: Mapping[str, object]) -> dict[str, str]:
    """Why each value `_FIELD_PROBLEMS` refuses is refused, by name; names
    it does not hold are passed over."""
    problems = {}
    for name, value in values.items():
        check = _FIELD_PROBLEMS.get(name)
        why = check(value) if check else None
        if why:
            problems[name] = f"{why}, got {value!r}"
    return problems


def _check_fields(values: Mapping[str, object], **variant_problems: str | None) -> None:
    """Raise one ValueError naming every value `_FIELD_PROBLEMS` refuses and
    every variant given a problem.  A value of its rule's plain type passes
    on one type test and one range test; only when a value fails them or a
    variant has a problem does `_field_problems` say why."""
    for name, value in values.items():
        plain, lo, hi = _PLAIN_RANGES.get(name, _NO_RULE)
        if plain is not None and not (type(value) is plain and lo <= value <= hi):
            break
    else:
        if not any(variant_problems.values()):
            return
    problems = _field_problems(values)
    for name, why in variant_problems.items():
        if why:
            problems[name] = why
    if problems:
        raise ValueError("; ".join(f"{name}: {why}" for name, why in problems.items()))
