"""Exception types shared across the package."""

__all__ = ["DomainError", "EvaluationError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EvaluationError(ArithmeticError):
    """A numerical evaluation produced a non-finite value.

    Carries the abscissa at which the integrand (or function) failed, when
    known, in the ``abscissa`` attribute.
    """

    def __init__(self, message: str, abscissa: float | None = None):
        super().__init__(message)
        self.abscissa = abscissa
