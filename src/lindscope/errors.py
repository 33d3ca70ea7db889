"""Exception types shared across the package."""

__all__ = [
    "LindscopeError",
    "DimensionError",
    "NumericalError",
    "RangeError",
    "ModelError",
    "ConfigError",
    "IoError",
]


class LindscopeError(Exception):
    """Base class for all lindscope errors."""


class DimensionError(LindscopeError):
    """Operands have incompatible shapes."""


class NumericalError(LindscopeError):
    """A numerical routine failed to converge or returned inconsistent results."""


class RangeError(LindscopeError):
    """An input lies outside the range where accuracy is guaranteed."""


class ModelError(LindscopeError):
    """A model definition violates its invariants."""


class ConfigError(LindscopeError):
    """Invalid parameters, configuration, or input file contents."""


class IoError(LindscopeError):
    """Reading input or writing output failed."""
