"""Exception types shared across the package, and the integer rule of its
entry points."""

import operator


def check_integer(value, name: str) -> int:
    """`value` as a Python int, if it is a Python or numpy integer and not a
    bool; anything else raises TypeError naming `name`."""
    if not isinstance(value, bool):  # operator.index reads a Python bool as 0 or 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


class UoiSchedError(Exception):
    """Base class for all package errors."""


class ChainError(UoiSchedError, ValueError):
    """A transition matrix failed validation."""


class NotStochastic(ChainError):
    pass


class Reducible(ChainError):
    pass


class Periodic(ChainError):
    pass


class DimensionMismatch(UoiSchedError, ValueError):
    pass


class IndexOutOfRange(UoiSchedError, IndexError):
    pass


class TruncationTooDeep(UoiSchedError, RuntimeError):
    pass


class SolverError(UoiSchedError, RuntimeError):
    pass


class NoConvergence(SolverError):
    pass


class MaxItersExceeded(SolverError):
    """Gradient search hit its iteration cap; carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class StateSpaceTooLarge(UoiSchedError, RuntimeError):
    """Joint MDP exceeds the configured state-action cap."""

    def __init__(self, message, size=None):
        super().__init__(message)
        self.size = size


class ConfigError(UoiSchedError, ValueError):
    """Experiment configuration failed strict validation."""
