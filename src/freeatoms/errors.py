"""Shared exception types."""


class FreeAtomsError(Exception):
    """Base class for all library errors."""


class MeasureError(FreeAtomsError, ValueError):
    """Invalid spectral measure data (rejected at construction)."""


class HalfPlaneError(FreeAtomsError, ValueError):
    """Argument is not in the matrix upper half-plane."""


class ConvergenceError(FreeAtomsError, RuntimeError):
    """An iterative solver or extrapolation failed to converge.

    Carries the final residual / diagnostics in ``details`` when available,
    and in ``result`` what the solver finished before it failed, when it
    can say (for a stacked subordination solve, the points before the
    first failed one).
    """

    def __init__(self, message, details=None, result=None):
        super().__init__(message)
        self.details = details or {}
        self.result = result


class PreconditionError(FreeAtomsError, ValueError):
    """A documented operation precondition was violated by the caller."""


class SchemaError(FreeAtomsError, ValueError):
    """Serialized input does not match the expected schema."""
