"""Exception types shared across the package."""


class ConstructalError(Exception):
    """Base class for package-specific failures."""


class DomainError(ConstructalError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ConstructalError, ValueError):
    """A run configuration is malformed or violates an invariant."""


class RunError(ConstructalError, RuntimeError):
    """A failure that stops a run.  ``time`` is the model time it stopped
    at, once known; ``str`` then reads "integration failed at t=<time>: <message>"."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.time is None else f"integration failed at t={self.time:.6g}: {message}"


class StepFailureError(RunError):
    """A step failed: its substep size underflowed or the chattering guard fired."""


class SingularSlidingError(RunError):
    """The active sliding block is singular beyond the conditioning threshold."""


class DegenerateFitError(ConstructalError, ValueError):
    """Rate fit attempted on a series with no usable positive samples."""


class TooFewSamplesError(ConstructalError, ValueError):
    """A trajectory has too few samples for the requested report."""
