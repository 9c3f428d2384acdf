"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to handle gets its own class;
generic ``ValueError``/``ZeroDivisionError`` are reserved for programming
errors.
"""


class FinitudeError(Exception):
    """Base class for all package-specific errors."""


class NumericFailure(FinitudeError):
    """A numeric step failed on valid input; the answer is undecided."""


# --- expression / algebra -------------------------------------------------

class ExprSyntaxError(FinitudeError):
    """Raised by the parser; carries the offending position."""

    def __init__(self, message, position, expected=None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class UndeclaredVariable(FinitudeError):
    pass


class NonPolynomialExponent(FinitudeError):
    pass


class ZeroPolynomial(FinitudeError):
    pass


class DegreeTooLow(FinitudeError):
    pass


class IterationLimitExceeded(NumericFailure):
    """An iteration ran out of its budget."""


# --- puiseux ---------------------------------------------------------------

class NonExactCenter(FinitudeError):
    pass


class OrderTooSmall(FinitudeError):
    pass


class NumericBreakdown(NumericFailure):
    """Ill-conditioned coefficient solve; carries a condition estimate."""

    def __init__(self, message, condition=None):
        self.condition = condition
        super().__init__(message)


# --- monodromy -------------------------------------------------------------

class SquareFreeRequired(FinitudeError):
    pass


class BasePointTooClose(NumericFailure):
    pass


class PathCollision(NumericFailure):
    pass


class SingularOnPath(NumericFailure):
    pass


# --- permutation groups ----------------------------------------------------

class DegreeTooLarge(FinitudeError):
    pass


class NotTransitive(FinitudeError):
    pass


class SearchBudgetExceeded(FinitudeError):
    """Decision procedure gave up; the budget that was exhausted is reported."""

    def __init__(self, message, budget=None):
        self.budget = budget
        super().__init__(message)


class NotApplicable(FinitudeError):
    """Classification hypotheses fail; the message says which one."""


# --- solvability -----------------------------------------------------------

class ReducibleInput(FinitudeError):
    pass


class UnsupportedGroup(FinitudeError):
    """Solvable monodromy outside the constructive tower scope."""


# --- differential ----------------------------------------------------------

class OrderTooLarge(FinitudeError):
    pass


class NotHomogeneous(FinitudeError):
    pass


class BoundExceeded(FinitudeError):
    pass
