"""Material response: the declared loss/gain split of a permittivity, the
Drude slab's parameters, quasi-static reflection coefficients and a
scale-free matrix norm.

All quantities use internal units hbar = eps0 = omega_a = 1.  Frequencies are
in units of the qubit transition frequency and permittivities are relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError, ValidationError, _check_positive


def safe_norm(m: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack over its
    last two axes, as a running hypot of the entries' magnitudes.  It
    squares no entry, so it neither underflows to 0 for entries below
    1e-154, as np.linalg.norm does, nor overflows above 1e154."""
    a = np.abs(m)
    return np.hypot.reduce(a.reshape(*a.shape[:-2], -1), axis=-1)


@dataclass(frozen=True)
class ScalarPermittivitySplit:
    """Complex permittivity at the working frequency with a declared
    decomposition of its imaginary part into a lossy and a gainy channel.

    The split is supplied by the caller: the spectral decomposition is one
    valid choice but not necessarily the physical one, so no canonical split
    is enforced here.
    """

    eps: complex
    eps_loss: float
    eps_gain: float

    def __post_init__(self):
        if not (math.isfinite(self.eps_loss) and self.eps_loss >= 0):
            raise ValidationError("eps_loss must be >= 0")
        if not (math.isfinite(self.eps_gain) and self.eps_gain <= 0):
            raise ValidationError("eps_gain must be <= 0")
        if not (math.isfinite(self.eps.real) and math.isfinite(self.eps.imag)):
            raise ValidationError(f"eps must be finite, got {self.eps}")
        if abs(self.eps.imag - (self.eps_loss + self.eps_gain)) > 1e-12:
            raise ValidationError(
                "imag(eps) must equal eps_loss + eps_gain to 1e-12"
            )

    @property
    def stability_warning(self) -> bool:
        """True when |eps_gain| >= eps_loss (material typically unstable)."""
        return abs(self.eps_gain) >= self.eps_loss


@dataclass(frozen=True)
class DrudeParams:
    """Drude substrate with infinitesimal dissipation, parameterized by its
    surface-plasmon resonance frequency (units of the transition frequency)."""

    omega_sp: float

    def __post_init__(self):
        _check_positive("omega_sp", self.omega_sp)


RESONANCE_TOL = 1e-12


def _off_resonance(eps: complex) -> float:
    """|eps + 1|, the distance from the surface-plasmon resonance eps = -1,
    where quasi-static responses are singular: SingularityError there."""
    d = abs(eps + 1.0)
    if d <= RESONANCE_TOL:
        raise SingularityError("eps = -1: surface-plasmon resonance singularity")
    return d


def quasistatic_reflection(eps: complex) -> complex:
    """Quasi-static reflection coefficient (1 - eps) / (1 + eps) for
    illumination from the air side."""
    _off_resonance(eps)
    return (1.0 - eps) / (1.0 + eps)

