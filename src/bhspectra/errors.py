"""The CLI's contract values, with no numpy: exception types, exit codes, and
the normalization and suite names (re-exported by `spectrum` and `verify`)."""

from enum import Enum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2
EXIT_NUMERICAL = 3


class Normalization(str, Enum):
    RAW = "raw"          # literal entropy-difference weights, p(no emission) = 1
    UNIT_SUM = "unitsum"  # weights renormalized to a probability distribution


# The verification suites, in run order.
SUITES = ("identities", "typicality", "cascade", "info")


class BhspectraError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(BhspectraError):
    """A call or configuration violated an interface contract (exit 1)."""


class DomainError(BhspectraError):
    """Physically invalid input, e.g. a super-extremal state (exit 2)."""


class RemnantInvalid(DomainError):
    """An emission would leave a forbidden remnant: the channel is closed."""
