"""Exception types shared across the package."""


class MflqError(Exception):
    """Base class for all package errors."""


class OutOfDomainError(MflqError):
    """A time argument falls outside the schedule/model domain [0, T]."""


class ShapeError(MflqError):
    """An array argument does not have the shape the model dictates."""


class ModelDocumentError(MflqError):
    """A JSON model document is malformed; the message names the field."""


class _BreakdownError(MflqError):
    """A failure at time ``time``; ``eigenvalue`` is the offending smallest
    eigenvalue, or None when there is none (a non-finite state)."""

    def __init__(self, message: str, time: float, eigenvalue: float | None = None):
        super().__init__(message)
        self.time = time
        self.eigenvalue = eigenvalue


class RiccatiBreakdownError(_BreakdownError):
    """The backward Riccati integration failed (positivity loss, singular
    U/V, or a non-finite state); ``eigenvalue`` is that of U or V."""


class CovarianceInstabilityError(_BreakdownError):
    """Moment propagation produced a covariance eigenvalue below -1e-6, or
    a non-finite state (then ``eigenvalue`` is None), at grid time ``time``."""


class SimulationDivergedError(MflqError):
    """A particle state became non-finite during Euler-Maruyama stepping."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step
