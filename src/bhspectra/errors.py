"""The CLI's contract values, with no numpy: exception types, exit codes, the
normalization and suite names (re-exported by `spectrum` and `verify`), and
the one integer rule for seeds and counts."""

import operator
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


def check_int(name: str, value, floor: int = 0) -> int:
    """value as an int (operator.index: no float, however whole), if it is
    at least floor; UsageError otherwise."""
    try:
        n = operator.index(value)
        if n >= floor:
            return n
    except TypeError:
        pass
    rule = "a non-negative integer" if floor == 0 else f"an integer >= {floor}"
    raise UsageError(f"{name} must be {rule}, got {value!r}")
