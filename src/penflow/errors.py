"""Exception hierarchy shared across the package, and the rule checks that
raise ConfigError.

A rule is a (field, passed, message) tuple, and check_rules raises one
ConfigError naming every rule that failed.  positive, nonnegative and
one_of build the scalar rules, each with one message wherever it is
applied: the configuration dataclasses and every public function that
takes such a scalar (a time step, a reference state, a mode, a Sobolev
order) apply the same rule, so a value a configuration file rejects is
rejected by the Python API too.  check_types adds the type rules of a
dataclass's annotations.
"""

import dataclasses
import math
import numbers
import typing
from functools import lru_cache


class PenflowError(Exception):
    """Base class for all package-specific errors."""


class CorruptionError(PenflowError):
    """A field contains NaN or Inf samples."""


class SymmetryError(PenflowError):
    """Spectral coefficients violate Hermitian symmetry beyond tolerance."""


class ArityError(PenflowError):
    """Wrong component count or mismatched grids."""


class GaugeError(PenflowError):
    """Poisson right-hand side has a nonzero mean mode."""


class RegimeError(PenflowError):
    """Thermodynamic state left the valid regime (e.g. nonpositive pressure).

    time is the time of the state that left it, where the raiser knows it.
    """

    def __init__(self, message, time=None):
        self.time = time
        super().__init__(message)


class DataError(PenflowError):
    """Missing snapshot or empty series where data is required."""


class ConfigError(PenflowError):
    """Invalid configuration.  Carries the full list of problems found.

    issues is a list of messages; fields runs parallel to it: the setting
    each issue is about, or None where no single setting applies.  Raised
    only by check_rules and, with line numbers, by config.parse_config.
    """

    def __init__(self, issues: list[str], fields=None):
        self.issues = list(issues)
        self.fields = list(fields) if fields is not None else [None] * len(self.issues)
        super().__init__("; ".join(self.issues))


def check_rules(*rules) -> None:
    """Raise one ConfigError naming every failed (field, passed, message) rule."""
    failed = [(name, message) for name, passed, message in rules if not passed]
    if failed:
        raise ConfigError([m for _, m in failed], [f for f, _ in failed])


def positive(name: str, value) -> tuple:
    """The rule that value is positive and finite (NaN fails it)."""
    return (name, 0 < value < math.inf, f"{name} must be positive and finite")


def nonnegative(name: str, value) -> tuple:
    """The rule that value is nonnegative and finite (NaN fails it)."""
    return (name, 0 <= value < math.inf, f"{name} must be nonnegative and finite")


def one_of(name: str, value, allowed: tuple) -> tuple:
    """The rule that value is one of allowed."""
    return (name, value in allowed, f"{name} must be one of {allowed}")


# how a type rule names the type it asks for
_TYPE_WORDS = {
    int: "given as an int",
    float: "a number",
    str: "a string",
    type(None): "None",
}


def _fits(value, hint) -> bool:
    """isinstance against an annotation; bool is never taken for a number."""
    args = typing.get_args(hint)
    if args:
        return any(_fits(value, h) for h in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, numbers.Real)
    if hint is int:
        return isinstance(value, numbers.Integral)
    return isinstance(value, hint)


def type_issue(name: str, hint, value) -> str:
    """The message of a failed type rule, also used for unparseable text."""
    hints = typing.get_args(hint) or (hint,)
    words = " or ".join(_TYPE_WORDS.get(h, f"a {h.__name__}") for h in hints)
    return f"{name} must be {words}, got {value!r}"


@lru_cache(maxsize=None)
def _field_types(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def check_types(obj) -> None:
    """One type rule per field of a dataclass, from its annotation.

    Run before the value rules, which assume the declared types.
    """
    rules = []
    for name, hint in _field_types(type(obj)):
        value = getattr(obj, name)
        rules.append((name, _fits(value, hint), type_issue(name, hint, value)))
    check_rules(*rules)


class DivergenceError(PenflowError):
    """NaN/Inf appeared during time integration (numerical blow-up)."""

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(message or f"numerical divergence at t = {time:.6g}")
