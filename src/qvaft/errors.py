"""Exception hierarchy shared across the package."""


class QvaftError(Exception):
    """Base class for all package errors."""


class DomainError(QvaftError, ValueError):
    """An argument or parameter is outside its mathematical domain."""


class NumericalError(QvaftError):
    """A numerical procedure failed (bracket failure, non-finite
    intermediate). Carries whatever diagnostics the caller attached."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = dict(context)


class DataError(QvaftError):
    """Input data failed validation; messages carry row numbers."""


class ConfigError(QvaftError):
    """A configuration file failed schema validation; messages carry the
    offending key path."""


class DiagnosticsError(QvaftError):
    """A convergence diagnostic was requested on inadequate input."""

