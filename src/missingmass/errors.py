"""Exception types and the package's one validation module.

Every scalar precondition in the package goes through one of two rules:
``require_int`` (an integer at or above a minimum; ``require_t`` is its
sample-count case) and ``require_real`` (a real number inside an interval,
NaN never passing).  Both reject ``bool`` and never coerce: a value that is
not already an integer or a real is an ``InvalidInputError``, not a rounded
number.  ``require_reals`` applies require_real's type rule to every item of
a list of numbers read from a file, so "0.5" or true in one is an error too.
A refused value is quoted by its repr, except an int too long for Python to
print (past its 4300-digit limit), which is quoted by its sign and bit length.
Distribution masses are arrays, not scalars; they have their own validator,
``distributions.validate_masses``, shared by every distribution type and by
``cover.PointCloud``.
"""

import numbers
import operator


class MissingMassError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MissingMassError, ValueError):
    """An argument violates a documented precondition."""


class InsufficientTruncationError(InvalidInputError):
    """Listed atoms, or a countable family truncated at a tolerance, too coarse
    for the requested operation."""


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


def _shown(value) -> str:
    """repr(value), or, when Python refuses to print it (an int past the
    4300-digit limit, or a fraction of such ints), its sign and bit length or
    its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<int of {abs(value).bit_length()} bits>"
        return f"<{type(value).__name__} too long to print>"


def require_int(value, name: str, minimum: int) -> int:
    """The one integer rule: value passes if operator.index accepts it, it is
    not a bool, and it is >= minimum; it comes back as a Python int."""
    index = value
    if type(value) is not int:
        try:
            index = None if isinstance(value, bool) else operator.index(value)
        except TypeError:
            index = None
    if index is None or index < minimum:
        raise InvalidInputError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    return index


def require_t(t, minimum: int = 1) -> int:
    """The sample count case of require_int; it runs on every kernel call, so
    a plain int takes the fast path."""
    if type(t) is int and t >= minimum:
        return t
    return require_int(t, "sample count t", minimum)


def require_real(value, name: str, low: float, high: float, bounds: str = "[]"):
    """The one real-range rule: value is a real number (bool excluded) between
    low and high, each end closed or open as bounds says ("[]", "(]", "[)"
    or "()").  NaN fails every comparison, so it never passes; an int or
    fraction past the float range (10**400 <= inf) fails its conversion."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (low < value if bounds[0] == "(" else low <= value)
            and (value < high if bounds[1] == ")" else value <= high)):
        try:
            float(value)
        except OverflowError:
            raise InvalidInputError(f"{name} must fit in a float, got one past its range") from None
        return value
    raise InvalidInputError(
        f"{name} must lie in {bounds[0]}{low:g}, {high:g}{bounds[1]}, got {_shown(value)}"
    )


def require_reals(items: list, name: str) -> list:
    """require_real's type rule for each item of a list: a real number, bool
    excluded, nothing coerced.  The check runs over the distinct item types,
    so a long list of floats costs one pass of type()."""
    for kind in set(map(type, items)):
        if not issubclass(kind, numbers.Real) or issubclass(kind, bool):
            bad = next(v for v in items if type(v) is kind)
            raise InvalidInputError(f"{name} must be real numbers, got {_shown(bad)}")
    return items
