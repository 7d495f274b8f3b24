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


def expect_finite(value, context: str, what: str = "a finite number"):
    """`value` if it is a finite real number (a bool is not); else ParameterError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not -np.inf < value < np.inf:
        raise ParameterError(f"{context} must be {what}, got {value!r}")
    return value


def expect_positive(value, context: str, zero: bool = False) -> None:
    """Refuse `value` with ParameterError, naming its repr, unless it is a finite real number
    > 0, or 0 if `zero`."""
    what = f"{'>= 0' if zero else 'positive'} and finite"
    if not (0 < expect_finite(value, context, what) or zero and value == 0):
        raise ParameterError(f"{context} must be {what}, got {value!r}")


def expect_shape(value, shape: tuple, context: str) -> np.ndarray:
    """`value` as an array, converted only if it is not one, if its shape matches `shape`:
    an entry None matches any length and a leading `...` any number of leading axes.
    Otherwise, a ragged nesting included, ShapeError naming `context` and the shape got."""
    try:
        value = value if type(value) is np.ndarray else np.asarray(value)
    except ValueError:  # NumPy finds no shape for a ragged nesting
        got = "a ragged nesting"
    else:
        have = value.shape
        if have[1 - len(shape):] == shape[1:] if shape and shape[0] is ... else have == shape:
            return value  # a match with no None in `shape`: one comparison
        lead = shape[:1] == (...,)
        tail = shape[lead:]
        part = have[len(have) - len(tail):] if lead else have  # the axes `tail` matches
        if len(part) == len(tail) and (tail.count(None) == len(tail) or all(
                want is None or want == n for want, n in zip(tail, part))):
            return value
        got = f"shape {have}"
    pattern = ", ".join("..." if n is ... else str(n) for n in shape) + "," * (len(shape) == 1)
    raise ShapeError(f"{context} must have shape ({pattern}), got {got}")


def expect_choice(value, choices: tuple, context: str) -> str:
    """`value` if it is one of the strings `choices`; else ParameterError, naming its repr."""
    if not isinstance(value, str) or value not in choices:
        raise ParameterError(f"{context} must be one of {choices}, got {value!r}")
    return value
