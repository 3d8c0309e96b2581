"""Interaction tensors of the photonic environment in the quasi-static limit.

Two environments are supported: an isotropic gain substrate (closed diagonal
form) and a plasmonic Drude slab in uniform motion (closed form in terms of
modified Bessel functions, with an independent quadrature oracle and a
large-distance rank-1 asymptotic form).  Tensors are 3x3, electric sector
only, in units hbar = eps0 = omega_a = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OracleError, OutOfValidityError, SingularityError
from .material import (
    RESONANCE_TOL,
    DrudeParams,
    ScalarPermittivitySplit,
    quasistatic_reflection,
    require_hermitian,
)

PSD_TOL = 1e-12  # relative to the norm of the tensor

# qubit transition frequency in internal units
OMEGA_A = 1.0


@dataclass(frozen=True)
class SubstrateGeometry:
    """Qubit height z_a above the interface (length units)."""

    z_a: float

    def __post_init__(self):
        if self.z_a <= 0:
            raise DomainError("z_a must be > 0")


@dataclass(frozen=True)
class SlabMotionParams:
    """Moving Drude slab: plasma resonance, velocity along +x, geometry and a
    scalar background-loss strength accounting for collisions/free-space
    emission."""

    drude: DrudeParams
    v: float
    geometry: SubstrateGeometry
    g00: float = 0.0
    omega_a: float = OMEGA_A

    def __post_init__(self):
        if self.v <= 0:
            raise DomainError("slab velocity v must be > 0")
        if self.g00 < 0:
            raise DomainError("g00 must be >= 0")
        if abs(self.omega_a - self.drude.omega_sp) < 1e-12 * self.omega_a:
            raise DomainError(
                "omega_a = omega_sp (k_L = 0) is an unresolved limit; rejected"
            )

    @property
    def k_loss(self) -> float:
        return (self.omega_a - self.drude.omega_sp) / self.v

    @property
    def k_gain(self) -> float:
        return (self.omega_a + self.drude.omega_sp) / self.v


@dataclass
class InteractionTensorPair:
    """Hermitian PSD loss/gain channel tensors at the qubit position."""

    loss: np.ndarray
    gain: np.ndarray

    def validate(self) -> "InteractionTensorPair":
        for name, t in (("loss", self.loss), ("gain", self.gain)):
            t = require_hermitian(t)
            if np.linalg.eigvalsh(t).min() < -PSD_TOL * np.linalg.norm(t):
                raise DomainError(f"{name} tensor is not positive semidefinite")
        return self


_ISO_SHAPE = np.diag([1.0, 1.0, 2.0])


def isotropic_gain_tensors(
    split: ScalarPermittivitySplit, geom: SubstrateGeometry
) -> InteractionTensorPair:
    """Quasi-static loss/gain interaction tensors for a planar isotropic
    substrate: |eps''_{L,G}| / |eps+1|^2 / (16 pi z_a^3) * diag(1, 1, 2)."""
    if abs(split.eps + 1.0) <= RESONANCE_TOL:
        raise SingularityError("eps = -1: surface-plasmon resonance singularity")
    base = 1.0 / (16.0 * np.pi * geom.z_a**3 * abs(split.eps + 1.0) ** 2)
    loss = split.eps_loss * base * _ISO_SHAPE.astype(complex)
    gain = abs(split.eps_gain) * base * _ISO_SHAPE.astype(complex)
    return InteractionTensorPair(loss=loss, gain=gain)


def bessel_k(n: int, x: float) -> float:
    """Modified Bessel function of the second kind K_n(x), n in {0, 1, 2}.

    Backed by scipy's implementation, which exceeds the 1e-10 relative
    accuracy contract over x in [0.05, 100]; underflows to 0 for x > ~700.
    """
    if n not in (0, 1, 2):
        raise DomainError("order n must be 0, 1 or 2")
    if x <= 0:
        raise DomainError("bessel_k requires x > 0")
    from scipy import special

    return float(special.kn(n, x))


MIN_EXACT_ARG = 0.1
MIN_ASYMPTOTIC_ARG = 5.0


def _slab_channel_exact(k: float, p: SlabMotionParams, channel: str) -> np.ndarray:
    x = 2.0 * abs(k) * p.geometry.z_a
    if x < MIN_EXACT_ARG:
        raise OutOfValidityError(
            f"channel {channel}: 2|k|z_a = {x:.3g} < {MIN_EXACT_ARG}; "
            "closed form unreliable"
        )
    k0, k1, k2 = (bessel_k(n, x) for n in (0, 1, 2))
    s = np.sign(k)
    pref = k**2 * p.drude.omega_sp / p.v / (16.0 * np.pi)
    mat = np.array(
        [
            [2.0 * k0, 0.0, -2.0j * s * k1],
            [0.0, k2 - k0, 0.0],
            [2.0j * s * k1, 0.0, k2 + k0],
        ],
        dtype=complex,
    )
    return pref * mat


def moving_slab_tensors_exact(p: SlabMotionParams) -> InteractionTensorPair:
    """Closed-form interaction tensors of the moving slab.

    The background-loss term g00 is NOT applied here; use
    :func:`add_background_loss`.
    """
    loss = _slab_channel_exact(p.k_loss, p, "loss")
    gain = _slab_channel_exact(p.k_gain, p, "gain")
    return InteractionTensorPair(loss=loss, gain=gain)


def _slab_channel_quadrature(k: float, p: SlabMotionParams) -> np.ndarray:
    """One-dimensional transverse-wavenumber quadrature for a single channel.

    The integrand is scaled by exp(+2|k|z_a) so the quadrature works in
    relative terms even for strongly evanescent channels.
    """
    from scipy.integrate import IntegrationWarning, quad

    z = p.geometry.z_a
    kx = k
    akx = abs(kx)
    # truncation where the scaled exponential falls below 1e-16
    delta = 19.0 / (2.0 * z)
    ky_max = np.sqrt((akx + delta) ** 2 - kx**2)
    pref = p.drude.omega_sp / (16.0 * np.pi * p.v)
    out = np.zeros((3, 3), dtype=complex)

    def element(ky, i, j):
        kpar = np.hypot(kx, ky)
        a = (1j * kx, 1j * ky, -kpar)
        b = (-1j * kx, -1j * ky, -kpar)
        return np.exp(-2.0 * (kpar - akx) * z) / kpar * a[i] * b[j]

    ref = max(akx, 1.0 / z) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for i in range(3):
            for j in range(3):
                try:
                    re, _ = quad(
                        lambda ky: element(ky, i, j).real,
                        -ky_max,
                        ky_max,
                        epsabs=1e-13 * ref,
                        epsrel=1e-10,
                        limit=400,
                    )
                    im, _ = quad(
                        lambda ky: element(ky, i, j).imag,
                        -ky_max,
                        ky_max,
                        epsabs=1e-13 * ref,
                        epsrel=1e-10,
                        limit=400,
                    )
                except IntegrationWarning as exc:
                    raise OracleError(
                        f"quadrature failed for element ({i},{j}) at k={k}: {exc}"
                    ) from exc
                out[i, j] = re + 1j * im
    return pref * np.exp(-2.0 * akx * z) * out


def moving_slab_quadrature_oracle(p: SlabMotionParams) -> InteractionTensorPair:
    """Independent quadrature evaluation of the moving-slab tensors.

    Serves as a test oracle for :func:`moving_slab_tensors_exact`; it shares
    no code with the Bessel-function closed form.
    """
    loss = _slab_channel_quadrature(p.k_loss, p)
    gain = _slab_channel_quadrature(p.k_gain, p)
    return InteractionTensorPair(loss=loss, gain=gain)


def _slab_channel_asymptotic(k: float, p: SlabMotionParams, channel: str) -> np.ndarray:
    x = 2.0 * abs(k) * p.geometry.z_a
    if x < MIN_ASYMPTOTIC_ARG:
        raise OutOfValidityError(
            f"channel {channel}: 2|k|z_a = {x:.3g} < {MIN_ASYMPTOTIC_ARG}; "
            "asymptotic form invalid"
        )
    s = np.sign(k)
    g0 = (
        k**2
        * p.drude.omega_sp
        / p.v
        / (8.0 * np.pi)
        * np.sqrt(np.pi / (abs(k) * p.geometry.z_a))
        * np.exp(-x)
    )
    u = np.array([1.0, 0.0, 1j * s]) / np.sqrt(2.0)
    return g0 * np.outer(u, u.conj())


def moving_slab_tensors_asymptotic(p: SlabMotionParams) -> InteractionTensorPair:
    """Rank-1 large-distance limit: each channel tensor is a circularly
    polarized projector whose handedness follows the sign of the channel
    wavenumber."""
    loss = _slab_channel_asymptotic(p.k_loss, p, "loss")
    gain = _slab_channel_asymptotic(p.k_gain, p, "gain")
    return InteractionTensorPair(loss=loss, gain=gain)


def add_background_loss(pair: InteractionTensorPair, g00: float) -> InteractionTensorPair:
    """Add a scalar background-loss term g00 * identity to the loss tensor
    (collisions in the metal, free-space spontaneous emission)."""
    if g00 < 0:
        raise DomainError("g00 must be >= 0")
    return InteractionTensorPair(
        loss=pair.loss + g00 * np.eye(3), gain=pair.gain.copy()
    )


def greens_identity_check(
    split: ScalarPermittivitySplit, geom: SubstrateGeometry
) -> float:
    """Max element-wise deviation between loss - gain of the substrate tensors
    and the analytic form -Im{R} (1_t + 2 z z) / (4 pi (2 z_a)^3)."""
    pair = isotropic_gain_tensors(split, geom)
    lhs = pair.loss - pair.gain
    r = quasistatic_reflection(split.eps)
    rhs = -r.imag * _ISO_SHAPE / (4.0 * np.pi * (2.0 * geom.z_a) ** 3)
    return float(np.max(np.abs(lhs - rhs)))
