"""Exception types shared across the package."""


class CarnotLabError(Exception):
    """Base class for all package errors; ``time`` is the instant of the
    failure, where one is known."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class DomainError(CarnotLabError, ValueError):
    """An argument lies outside the physically meaningful domain."""


class InvalidProtocol(CarnotLabError):
    """A frequency protocol cannot be realized (e.g. the trap turns repulsive)."""


class InfeasibleStroke(CarnotLabError):
    """The requested open-stroke schedule demands rates the bath cannot supply."""


class ProtocolInversionFailure(CarnotLabError):
    """The frequency-inversion step did not converge to the target endpoint."""


class ConfigError(CarnotLabError):
    """A run configuration is inconsistent or violates a geometry bound."""


class NonConvergence(CarnotLabError):
    """Limit-cycle iteration exhausted its budget."""


class TruncationError(CarnotLabError):
    """Truncated-basis population leaked into the highest levels."""


class UnphysicalState(CarnotLabError):
    """An observable vector violates the physicality (Casimir) bounds."""


class NumericalError(CarnotLabError):
    """An integrator failed to meet its tolerance; carries diagnostics."""

    def __init__(self, message, diagnostics=None, time=None):
        super().__init__(message, time)
        self.diagnostics = diagnostics or {}
