"""Exception types shared across the package, and the checks that hold a
config block to its dataclass.

ValidationError maps to CLI exit code 1, NumericError to exit code 2.
"""

import math
from collections.abc import Sequence
from dataclasses import MISSING, Field


class ValidationError(ValueError):
    """Bad shapes, inconsistent configs, or out-of-contract arguments."""


class NumericError(RuntimeError):
    """Non-finite values or violated numeric guarantees (e.g. a growth
    step that was required to preserve the output exactly but did not)."""


def check_keys(block: str, d, fields: Sequence[Field], required: tuple[str, ...] = ()) -> dict:
    """The key rule of every config block: a copy of ``d``, whose keys are
    the names of ``fields``. An unknown key is a ValidationError naming
    it, and so is a missing one whose field has no default or that
    ``required`` names."""
    if not isinstance(d, dict):
        raise ValidationError(f"{block} config must be an object, got {type(d).__name__}")
    names = [f.name for f in fields]
    needed = [f.name for f in fields if f.default is MISSING and f.default_factory is MISSING]
    problems = [f"unknown key {k!r}" for k in d if k not in names]
    problems += [f"missing required key {k!r}" for k in needed + list(required) if k not in d]
    if problems:
        raise ValidationError(f"{block} config: " + ", ".join(problems))
    return dict(d)


def check_known_keys(block: str, d: dict, names: Sequence[str]) -> None:
    """The unknown-key half of ``check_keys``, for a block that is read key
    by key rather than into a dataclass: a key of ``d`` that ``names``
    does not hold is a ValidationError naming it."""
    unknown = [f"unknown key {k!r}" for k in d if k not in names]
    if unknown:
        raise ValidationError(f"{block} config: " + ", ".join(unknown))


def check_int(block: str, name: str, value, minimum: int | None = None) -> None:
    """Raise ValidationError unless ``value`` is an int (not a bool) of at
    least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{block} config: {name} must be an integer{bound}, got {value!r}")


def check_seed(block: str, name: str, value) -> None:
    """Raise ValidationError unless ``value`` is an int in [0, 2**64), one 64-bit word."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 1 << 64:
        raise ValidationError(f"{block} config: {name} must be an integer >= 0 and < 2**64, got {value!r}")


def check_real(block: str, name: str, value) -> None:
    """Raise ValidationError unless ``value`` is a finite int or float (not
    a bool): ``json.loads`` reads NaN, Infinity and ints too large for a
    float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{block} config: {name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValidationError(f"{block} config: {name} must be finite, got {value!r}")
