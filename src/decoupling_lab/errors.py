"""Shared exception types."""


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class BudgetExceededError(RuntimeError):
    """Raised when an exact enumeration would exceed the configured budget."""


class InvariantError(RuntimeError):
    """Raised when a computed result breaks an invariant of the library (a bug)."""


class SymmetryError(ValidationError):
    """Raised when a check requiring a symmetric kernel is given an asymmetric one."""
