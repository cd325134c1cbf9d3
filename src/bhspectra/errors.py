"""Exception types and process exit codes shared across the package."""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2
EXIT_NUMERICAL = 3


class BhspectraError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(BhspectraError):
    """A call or configuration violated an interface contract (exit 1)."""


class DomainError(BhspectraError):
    """Physically invalid input, e.g. a super-extremal state (exit 2)."""


class RemnantInvalid(DomainError):
    """An emission would leave a forbidden remnant: the channel is closed."""
