"""Exception types shared across the package."""


class FermigateError(Exception):
    """Base class for all package errors."""


class ConfigError(FermigateError):
    """Invalid configuration document or command-line usage."""


class SpecError(ConfigError):
    """A field of a problem spec is missing or invalid.

    param is the manifest param holding the spec ('bc', 'v' or 'w'), so
    str() reads like 'v.x0: required field is missing'.
    """

    def __init__(self, param: str, field: str, message: str):
        super().__init__(f"{param}.{field}: {message}")
        self.field = field
        self.message = message


class IndefiniteMatrixError(FermigateError):
    """A matrix required to be positive definite is not."""


class ShiftError(FermigateError):
    """Inverse-iteration shift is not strictly below the lowest eigenvalue."""


class ConvergenceError(FermigateError):
    """Iterative solver failed to converge."""

    def __init__(self, message: str, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


class CapExceededError(FermigateError):
    """A configured size cap (determinant count, oracle size) was exceeded."""
