"""Exception types and the argument checks shared across the package."""


class MissingMassError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MissingMassError, ValueError):
    """An argument violates a documented precondition."""


class InsufficientTruncationError(InvalidInputError):
    """A countable family was truncated too coarsely for the requested operation."""


class ConstructionFailedError(MissingMassError):
    """A distribution construction could not meet its target within its safety caps."""


class ThresholdNotFoundError(MissingMassError):
    """A threshold scan exhausted its budget without finding the crossing."""

    def __init__(self, n: int, t_max: int):
        self.n = n
        self.t_max = t_max
        super().__init__(
            f"no uniform-to-bivalent crossing found for n={n} scanning t up to {t_max}"
        )


def require_t(t, minimum: int = 1) -> int:
    """The one check of a sample count t: an int (bool excluded) >= minimum."""
    if not isinstance(t, int) or isinstance(t, bool) or t < minimum:
        raise InvalidInputError(f"sample count t must be an integer >= {minimum}, got {t!r}")
    return t
