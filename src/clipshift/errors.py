"""Exception types shared across the package.

The CLI maps these onto distinct process exit codes, so library code
should raise the most specific one that applies.
"""


class ConfigurationError(ValueError):
    """A flag, config entry, or parameter combination is invalid."""


class InfeasibleStepsizeError(ConfigurationError):
    """No positive stepsize exists for the requested setup."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DataFormatError(ValueError):
    """An input data file is malformed."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DivergenceError(RuntimeError):
    """An iterate or objective value became non-finite during a run."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""
