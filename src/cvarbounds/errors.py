"""Shared semantic exceptions and the input rules every module reads.

`_FIELD_PROBLEMS` says, for each scalar input the package takes by name
(config fields and closed-form arguments alike), what value it may hold;
`_check_fields` raises one ValueError naming every value it refuses.  Values
are refused rather than coerced: a string, a bool or a float where an int is
asked for never reaches the arithmetic.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Mapping

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


def _count_problem(value: object) -> str | None:
    # a count no float can hold would overflow the closed forms' arithmetic
    ok = _is_int(value) and 1 <= value <= sys.float_info.max
    return None if ok else "must be an int >= 1 that a float can hold"


def _seed_problem(value: object) -> str | None:
    return None if _is_int(value) and 0 <= value < _SEED_LIMIT else "must be an unsigned 64-bit int"


def _finite_problem(value: object) -> str | None:
    return None if _is_real(value) and -math.inf < value < math.inf else "must be a finite real"


def _positive_problem(value: object) -> str | None:
    return None if _is_real(value) and 0.0 < value < math.inf else "must be a finite real > 0"


def _nonnegative_problem(value: object) -> str | None:
    return None if _is_real(value) and 0.0 <= value < math.inf else "must be a finite real >= 0"


def _unit_problem(value: object) -> str | None:
    return None if _is_real(value) and 0.0 <= value <= 1.0 else "must be a real in [0, 1]"


def _level_problem(value: object) -> str | None:
    return None if _is_real(value) and 0.0 <= value < 1.0 else "must be a real in [0, 1)"


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
    every variant given a problem."""
    problems = _field_problems(values)
    for name, why in variant_problems.items():
        if why:
            problems[name] = why
    if problems:
        raise ValueError("; ".join(f"{name}: {why}" for name, why in problems.items()))
