"""Exception hierarchy shared by all modules.

Each class carries the process exit code used by the command line front end.
"""

import math


class LindgainError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class ValidationError(LindgainError):
    """Malformed or inconsistent input data (config files, matrix shapes)."""

    exit_code = 2


class DomainError(LindgainError):
    """Argument outside the mathematical domain of an operation."""


def _check_positive(name: str, value, zero_ok: bool = False) -> None:
    """Raise DomainError unless ``value`` is finite and > 0 (>= 0 with
    ``zero_ok``); NaN fails both tests."""
    ok = 0.0 <= value < math.inf if zero_ok else 0.0 < value < math.inf
    if not ok:
        raise DomainError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value}")


class SingularityError(DomainError):
    """Evaluation at the surface-plasmon resonance pole (eps -> -1)."""


class OutOfValidityError(DomainError):
    """Parameters outside the validity range of a closed-form approximation."""


class DegenerateKernelError(LindgainError):
    """Steady state not unique; an initial state is required to select it."""

    exit_code = 3


class SpectralToleranceError(LindgainError):
    """No numerical kernel found within the spectral tolerance."""


class NumericalInstabilityError(LindgainError):
    """A trajectory or state violated trace/positivity invariants."""


class OracleError(LindgainError):
    """A reference quadrature failed to converge."""
