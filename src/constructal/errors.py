"""Exception types shared across the package."""


class ConstructalError(Exception):
    """Base class for package-specific failures."""


class DomainError(ConstructalError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ConstructalError, ValueError):
    """A run configuration is malformed or violates an invariant."""


class StepFailureError(ConstructalError, RuntimeError):
    """An integration step failed (chattering guard, off-box drift)."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class SingularSlidingError(ConstructalError, RuntimeError):
    """The active sliding block is singular beyond the conditioning threshold."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class DegenerateFitError(ConstructalError, ValueError):
    """Rate fit attempted on a series with no usable positive samples."""


class TooFewSamplesError(ConstructalError, ValueError):
    """A trajectory has too few samples for the requested report."""
