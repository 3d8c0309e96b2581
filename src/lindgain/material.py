"""Material response: loss/gain decomposition, Drude model, quasi-static
reflection coefficients.

All quantities use internal units hbar = eps0 = omega_a = 1.  Frequencies are
in units of the qubit transition frequency and permittivities are relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError, ValidationError

HERMITICITY_TOL = 1e-12


def safe_norm(m: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack over its
    last two axes, as a running hypot of the entries' magnitudes.  It
    squares no entry, so it neither underflows to 0 for entries below
    1e-154, as np.linalg.norm does, nor overflows above 1e154."""
    a = np.abs(m)
    return np.hypot.reduce(a.reshape(*a.shape[:-2], -1), axis=-1)


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate that ``m`` is a square Hermitian matrix of finite entries: no
    element of m - m^H exceeds tol * ||m||, so the check holds at any scale."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    # before any arithmetic, which NaN would pass and inf would warn about
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    dev = np.max(np.abs(m - m.conj().T))
    if dev > tol * safe_norm(m):
        raise ValidationError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    return m


def spectral_split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a Hermitian matrix into its positive and negative spectral parts.

    Returns (loss, gain) with loss = sum over positive eigenvalues of
    lam * v v^H and gain the analogous sum over negative eigenvalues (so gain
    itself is negative semidefinite and loss + gain reconstructs the input).
    Eigenvalues with |lam| below 1e-12 * ||m|| are assigned to the loss part;
    they carry no noise so the assignment is physically inert.
    """
    m = require_hermitian(m)
    h = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(h)
    scale = safe_norm(h)
    loss = np.zeros_like(h)
    gain = np.zeros_like(h)
    for lam, v in zip(vals, vecs.T):
        proj = lam * np.outer(v, v.conj())
        if lam < -HERMITICITY_TOL * scale:
            gain += proj
        else:
            loss += proj
    return loss, gain


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
        if self.eps_loss < 0:
            raise ValidationError("eps_loss must be >= 0")
        if self.eps_gain > 0:
            raise ValidationError("eps_gain must be <= 0")
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
        # written so that NaN fails it
        if not 0.0 < self.omega_sp < np.inf:
            raise DomainError(f"omega_sp must be finite and > 0, got {self.omega_sp}")


def drude_permittivity(omega: float, p: DrudeParams) -> complex:
    """Real-valued Drude permittivity 1 - 2 omega_sp^2 / omega^2.

    The infinitesimal positive imaginary part is handled analytically
    downstream (delta-function form of the reflection coefficient), so the
    returned value has zero imaginary part.
    """
    if omega <= 0:
        raise DomainError("omega must be > 0")
    return complex(1.0 - 2.0 * p.omega_sp**2 / omega**2)


RESONANCE_TOL = 1e-12


def quasistatic_reflection(eps: complex) -> complex:
    """Quasi-static reflection coefficient (1 - eps) / (1 + eps) for
    illumination from the air side."""
    if abs(eps + 1.0) <= RESONANCE_TOL:
        raise SingularityError("eps = -1: surface-plasmon resonance singularity")
    return (1.0 - eps) / (1.0 + eps)

