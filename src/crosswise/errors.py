"""Exception types shared across the library, and the strict checks that raise them."""

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(ValueError):
    """Matrix is singular (or numerically rank deficient) for the requested operation."""


class ParameterError(ValueError):
    """A parameter value is outside its allowed range."""


class SamplingError(RuntimeError):
    """Random sampling failed to produce an admissible draw within the retry budget."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class ConfigError(ValueError):
    """Run configuration is missing, malformed, or contains unknown keys."""


def expect_keys(obj, required: set, context: str, optional: set = frozenset(),
                error: type = ConfigError):
    """Refuse a non-dict, a missing required key or an unknown key with `error`."""
    if not isinstance(obj, dict):
        raise error(f"{context} must be a JSON object")
    missing = required - obj.keys()
    if missing:
        raise error(f"{context} missing keys: {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise error(f"{context} has unknown keys: {sorted(unknown)}")


def expect_int(value, context: str, error: type = ConfigError, low: int | None = None) -> int:
    """`value` as an int if it is a Python or NumPy integer (a bool is not) and, given `low`,
    at least `low`; otherwise refuse it with `error`, naming its repr."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (
            low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise error(f"{context} must be an integer{bound}, got {value!r}")
    return int(value)


def expect_positive(value, context: str, zero: bool = False) -> None:
    """Refuse `value` with ParameterError, naming its repr, unless it is a finite real number
    > 0, or 0 if `zero` (a bool is not a number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not (0 < value < np.inf or zero and value == 0):
        raise ParameterError(
            f"{context} must be {'>= 0' if zero else 'positive'} and finite, got {value!r}")
