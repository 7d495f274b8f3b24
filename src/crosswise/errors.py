"""Exception types shared across the library, and the strict key check that raises them."""


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
