"""Shared semantic exceptions and the input rules every module reads.

`_FIELD_PROBLEMS` says, for each scalar input the package takes by name
(config fields and closed-form arguments alike), what value it may hold: a
`_Rule`, a type and a closed range stated as data; `_check_fields` raises
one ValueError naming every value it refuses.  Values are refused rather
than coerced: a string, a bool or a float where an int is asked for never
reaches the arithmetic.  An int is compared exactly and any other real as
the float the code computes with, so `Fraction(1, 10**400)`, which is 0.0
as a float, is no positive gap, and a real too large for a float is refused.
Every closed form takes its arguments through `_gated`, which holds them to
the same table.
"""

from __future__ import annotations

import functools
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
    entry names (see `_gated`)."""
    return None if type(value) is cls else f"must be a {cls.__name__}, got {value!r}"


class _Rule(NamedTuple):
    """What a named scalar input may hold, stated once as data: an int
    (`plain` is int) or a real (`plain` is float) in the closed range
    [`lo`, `hi`].  Every value must have the float the code computes with;
    an int is compared exactly and any other real as that float.  Called on
    a value, a rule gives `why` it is refused, or None."""

    plain: type
    lo: float
    hi: float
    why: str

    def __call__(self, value: object) -> str | None:
        if not (_is_int(value) if self.plain is int else _is_real(value)):
            return self.why
        try:
            as_float = float(value)
        except OverflowError:
            return self.why
        return None if self.lo <= (value if _is_int(value) else as_float) <= self.hi else self.why


# every range is closed: an open end is the float beside it, and a real's
# range stops at the largest float, or at inf where infinity is a value
_MAX = sys.float_info.max

_count_problem = _Rule(int, 1, int(_MAX), "must be an int >= 1 that a float can hold")
_seed_problem = _Rule(int, 0, _SEED_LIMIT - 1, "must be an unsigned 64-bit int")
_finite_problem = _Rule(float, -_MAX, _MAX, "must be a finite real")
_positive_problem = _Rule(float, math.nextafter(0.0, 1.0), _MAX, "must be a finite real > 0")
_nonnegative_problem = _Rule(float, 0.0, _MAX, "must be a finite real >= 0")
_unit_problem = _Rule(float, 0.0, 1.0, "must be a real in [0, 1]")
_level_problem = _Rule(float, 0.0, math.nextafter(1.0, 0.0), "must be a real in [0, 1)")
_extended_problem = _Rule(float, -math.inf, math.inf, "must be a real that a float can hold, not NaN")


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
    "x": _extended_problem,  # a standard normal quantile, +-inf included
}
# each name's plain type with the closed range it passes in, as a plain
# tuple: the fast path of `_check_fields`, and of every `_gated` closed form
_PLAIN_RANGES = {name: rule[:3] for name, rule in _FIELD_PROBLEMS.items()}
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


def _gated(**params: str | type):
    """Decorate a closed form so that its arguments meet their rules before
    its body runs.

    Each parameter `_FIELD_PROBLEMS` names is held to its rule, and a
    parameter given here a name is held to that name's rule instead (so
    `g="gap"` refuses a bad g as "gap").  A parameter given a class must be
    an instance of exactly that class.  A call whose every such argument is
    of its rule's plain type in its range, or of its class, passes one
    inline test; any other goes to `_check_fields`, which refuses it naming
    the table's values, then the objects, each in signature order, or else
    passes each real on as its float.  `__wrapped__` is the unchecked body,
    for callers whose arguments are checked floats already.

    The wrapper is built at import as source, as `dataclasses` builds
    `__init__`, with the wrapped function's own positional parameters: a
    generic `*args` loop costs several times the inline test.
    """

    def gate(fn):
        code = fn.__code__
        names = code.co_varnames[: code.co_argcount]
        consts, tests, fields, objects, passed = {"_fn": fn}, [], [], [], []
        for i, name in enumerate(names):
            rule = params.get(name, name)
            if isinstance(rule, type):
                consts[f"_cls{i}"] = rule
                tests.append(f"type({name}) is _cls{i}")
                objects.append(f"{name}=_type_problem({name}, _cls{i})")
            elif rule in _PLAIN_RANGES:
                plain, lo, hi = _PLAIN_RANGES[rule]
                consts.update({f"_plain{i}": plain, f"_lo{i}": lo, f"_hi{i}": hi})
                tests.append(f"type({name}) is _plain{i} and _lo{i} <= {name} <= _hi{i}")
                fields.append(f"{rule!r}: {name}")
                if plain is float:
                    name = f"float({name})"
            passed.append(name)
        signature = ", ".join(names)
        source = (
            f"def __create_gate__({', '.join(consts)}):\n"
            f"    def {fn.__name__}({signature}):\n"
            f"        if {' and '.join(tests)}:\n"
            f"            return _fn({signature})\n"
            f"        _check_fields({{{', '.join(fields)}}}, {', '.join(objects)})\n"
            f"        return _fn({', '.join(passed)})\n"
            f"    return {fn.__name__}\n"
        )
        namespace: dict = {}
        exec(source, globals(), namespace)
        return functools.update_wrapper(namespace["__create_gate__"](**consts), fn)

    return gate
