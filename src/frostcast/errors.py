"""Exception types shared across the package."""


class FrostcastError(Exception):
    """Base class for all package errors."""


class FormatError(FrostcastError, ValueError):
    """Malformed or unsupported file content."""


class UnsupportedVersionError(FormatError):
    """Serialized artifact written under an unknown schema version."""


class DataError(FrostcastError, ValueError):
    """Input data empty, inconsistent, or missing required pieces."""


class DomainError(FrostcastError, ValueError):
    """Argument value outside the supported domain."""


class OutOfExtentError(DomainError):
    """Query point falls outside a grid's extent."""


class NumericalError(FrostcastError, ArithmeticError):
    """A numerical procedure failed (singular system, non-finite result)."""


class DivergenceError(NumericalError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int, message: str | None = None) -> None:
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")

    def __reduce__(self):
        # The default rebuilds from ``args``, which holds only the message.
        return type(self), (self.epoch, str(self))
