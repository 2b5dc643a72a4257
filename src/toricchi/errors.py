"""Exception types shared across the package, and the integer check that
turns non-integer input at the API boundary into one of them."""

import operator


class ToricError(Exception):
    """Base class for all errors raised by this package."""


class FanFormatError(ToricError):
    """Malformed fan file text. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FanValidationError(ToricError):
    """Structurally invalid fan (bad rays, bad cones, fan condition failure)."""


class NotAFaceError(ToricError):
    """A cone argument is not a face of the given fan."""


class DivisorError(ToricError):
    """Divisor does not match its fan, or an operand pair mismatches."""


class RecursionBudgetExceeded(ToricError):
    """chi_recursive exceeded its node budget (see TORIC_RECURSION_BUDGET),
    the only bound on the recursion: its depth is at most the dimension."""


class DomainError(ToricError, ValueError):
    """An argument outside the domain of the function, such as a negative
    series order. Also a ValueError, as the untyped check it replaces was."""


class ScanRegionError(ToricError):
    """A box scan (cohomology route or nef count) has more lines than the
    oracle's limit, so it is refused before any summing."""


class NonSmoothConeError(ToricError):
    """A maximal cone whose ray generators do not form a lattice basis.

    Carries the cone (tuple of ray indices) and its determinant.
    """

    def __init__(self, cone, determinant: int):
        self.cone = tuple(cone)
        self.determinant = determinant
        super().__init__(
            f"maximal cone {self.cone} has determinant {determinant}, not ±1: "
            "the fan is not smooth"
        )


class NotCompleteError(ToricError):
    """A fan whose support is not all of R^n. Carries the witness wall (tuple
    of ray indices) that does not lie in exactly two maximal cones."""

    def __init__(self, wall, reason: str):
        self.wall = tuple(wall)
        super().__init__(f"the fan is not complete: {reason}")


def exact_ints(values, error: type[ToricError], what: str) -> tuple[int, ...]:
    """values as a tuple of ints. Only exact integer types pass
    (operator.index): 2.9 or Fraction(5, 2) raise error naming what,
    instead of being truncated to a different number."""
    try:
        return tuple(operator.index(x) for x in values)
    except TypeError:
        raise error(f"{what}: expected integers, got {values!r}") from None
