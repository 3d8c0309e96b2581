"""Interaction tensors of the photonic environment in the quasi-static limit.

Two environments are supported: an isotropic gain substrate (closed diagonal
form) and a plasmonic Drude slab in uniform motion (closed form in terms of
modified Bessel functions, exact or at its large-argument limit, with an
independent quadrature oracle).  Tensors are 3x3, electric sector only, in
units hbar = eps0 = omega_a = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OracleError, OutOfValidityError, _check_positive
from .material import (
    DrudeParams,
    ScalarPermittivitySplit,
    _off_resonance,
    quasistatic_reflection,
)


@dataclass(frozen=True)
class SubstrateGeometry:
    """Qubit height z_a above the interface (length units)."""

    z_a: float

    def __post_init__(self):
        _check_positive("z_a", self.z_a)


@dataclass(frozen=True)
class SlabMotionParams:
    """Moving Drude slab: plasma resonance, velocity along +x, geometry and a
    scalar background-loss strength accounting for collisions/free-space
    emission."""

    drude: DrudeParams
    v: float
    geometry: SubstrateGeometry
    g00: float = 0.0
    omega_a: float = 1.0

    def __post_init__(self):
        _check_positive("slab velocity v", self.v)
        _check_positive("g00", self.g00, zero_ok=True)
        _check_positive("omega_a", self.omega_a)
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


_ISO_SHAPE = np.diag([1.0, 1.0, 2.0])


def _power(x: float, y: float) -> float:
    """x**y of Python floats, or inf where Python raises OverflowError (each
    power here is of x >= 0 or to an even y, so inf has the right sign)."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def isotropic_gain_tensors(
    split: ScalarPermittivitySplit, geom: SubstrateGeometry
) -> InteractionTensorPair:
    """Quasi-static loss/gain interaction tensors for a planar isotropic
    substrate: |eps''_{L,G}| / |eps+1|^2 / (16 pi z_a^3) * diag(1, 1, 2)."""
    d = _off_resonance(split.eps)
    denom = 16.0 * np.pi * _power(geom.z_a, 3) * _power(d, 2)
    if not denom < math.inf:
        # a power or a partial product overflowed where denom need not have
        # (a tiny z_a with a huge |eps + 1|, or z_a near 1e102 with a small
        # one): denom from its log, to about 1e-13.  It is inf, and the
        # tensors 0, only for a far substrate or a huge |eps + 1|
        log_denom = math.log(16.0 * np.pi) + 3.0 * math.log(geom.z_a) + 2.0 * math.log(d)
        denom = _power(math.e, log_denom)
    # z_a^3 is 0 below z_a = 1e-108.  The check is of the largest entry, zz,
    # as numpy forms it below; NaN, 0 * inf, fails it
    base = 1.0 / denom if denom > 0.0 else math.inf
    if not max(split.eps_loss, abs(split.eps_gain)) * base * 2.0 < math.inf:
        raise DomainError(f"substrate tensors overflow a double at z_a = {geom.z_a}")
    loss = split.eps_loss * base * _ISO_SHAPE.astype(complex)
    gain = abs(split.eps_gain) * base * _ISO_SHAPE.astype(complex)
    return InteractionTensorPair(loss=loss, gain=gain)


# the trapezoid rule with 32 intervals on [0, 1], scaled to each span
_TRAPEZOID_NODES = np.linspace(0.0, 1.0, 33)
_TRAPEZOID_WEIGHTS = np.r_[0.5, np.ones(31), 0.5] / 32.0
_BESSEL_ORDERS = np.arange(2)[:, None]


def _bessel_k01(x: float) -> np.ndarray:
    """e^x K_n(x) for n = 0, 1 and x > 0, as scipy.special.kve
    gives it, from one trapezoid sum on shared nodes: e^x K_n(x) =
    int_0^inf exp(-x (cosh t - 1)) cosh(n t) dt (DLMF 10.32.9), cut where the
    exponent reaches -40.  The rule converges geometrically on this integrand
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)); against kve over x in
    [0.05, 1500] its largest relative error is 3.3e-15 for each n."""
    span = math.acosh(1.0 + 40.0 / x)
    t = span * _TRAPEZOID_NODES
    # x (cosh t - 1) as 2 x sinh^2(t/2), which keeps its precision near t = 0
    damping = np.exp(-2.0 * np.sinh(0.5 * t) ** 2 * x)
    return span * (np.cosh(_BESSEL_ORDERS * t) @ (_TRAPEZOID_WEIGHTS * damping))


def _exact_terms(x: float) -> tuple[float, float, float]:
    """e^x K_0, e^x K_1 and e^x (K_2 - K_0), the last as 2 e^x K_1 / x
    (DLMF 10.29.1), where the difference of K_2 and K_0 would keep only about
    13 digits at x = 700.  Python floats, so that the overflow check of a
    channel warns of nothing."""
    k0, k1 = _bessel_k01(x).tolist()
    return k0, k1, 2.0 * k1 / x


def _leading_terms(x: float) -> tuple[float, float, float]:
    """The same at large x (DLMF 10.40.2): e^x K_0 and e^x K_1 both tend to
    sqrt(pi / 2x), as e^x K_2 does, so K_2 - K_0 is 0."""
    lead = math.sqrt(math.pi / (2.0 * x))
    return lead, lead, 0.0


MIN_EXACT_ARG = 0.1
MIN_ASYMPTOTIC_ARG = 5.0

# each slab mode: its e^x K_0, e^x K_1, e^x (K_2 - K_0), its least 2|k|z_a
# and what it says below it
_SLAB_FORMS = {
    "exact": (_exact_terms, MIN_EXACT_ARG, "closed form unreliable"),
    "asymptotic": (_leading_terms, MIN_ASYMPTOTIC_ARG, "asymptotic form invalid"),
}


def _slab_channel(k: float, p: SlabMotionParams, channel: str, form: str) -> np.ndarray:
    """Closed-form tensor of one channel.  With K_2 - K_0 = 0 and K_0 = K_1,
    as in the asymptotic form, the xz block is c [[1, -is], [is, 1]]: a
    rank-1 circular projector of handedness s = sign(k)."""
    terms, min_arg, invalid = _SLAB_FORMS[form]
    x = 2.0 * abs(k) * p.geometry.z_a
    if x < min_arg:
        raise OutOfValidityError(
            f"channel {channel}: 2|k|z_a = {x:.3g} < {min_arg}; {invalid}"
        )
    # e^-x is applied as two halves h, one on each side of the prefactor, so
    # no factor leaves the normal range while the tensor is in it.  h is 0
    # beyond x = 1490.3, and the tensor with it for any double prefactor: the
    # cap on the K's argument only keeps x = inf finite
    k0, k1, d = terms(min(x, 1500.0))
    h = math.exp(-0.5 * x)
    pref = _power(k, 2) * p.drude.omega_sp / p.v / (16.0 * np.pi)
    # the largest entry, zz (2 K_1 <= 2 K_0 + 2 K_1 / x), as numpy forms it
    # below; NaN, inf * 0 at h = 0, fails it
    if not (pref * h) * (2.0 * k0 + d) * h < math.inf:
        raise DomainError(
            f"channel {channel}: prefactor k^2 omega_sp / (16 pi v) overflows the "
            f"tensor at k = {k:.3g}, v = {p.v:.3g}, 2|k|z_a = {x:.3g}"
        )
    s = np.sign(k)
    mat = np.array(
        [
            [2.0 * k0, 0.0, -2.0j * s * k1],
            [0.0, d, 0.0],
            [2.0j * s * k1, 0.0, 2.0 * k0 + d],
        ],
        dtype=complex,
    )
    return (pref * h) * mat * h


def _slab_pair(p: SlabMotionParams, channel, *args) -> InteractionTensorPair:
    """The loss tensor from the channel at k_loss, the gain one at k_gain."""
    return InteractionTensorPair(
        loss=channel(p.k_loss, p, "loss", *args), gain=channel(p.k_gain, p, "gain", *args)
    )


def moving_slab_tensors_exact(p: SlabMotionParams) -> InteractionTensorPair:
    """Closed-form interaction tensors of the moving slab.

    The background-loss term g00 is NOT applied here; use
    :func:`add_background_loss`.
    """
    return _slab_pair(p, _slab_channel, "exact")


def moving_slab_tensors_asymptotic(p: SlabMotionParams) -> InteractionTensorPair:
    """The closed form at large 2|k|z_a, with each K_n replaced by its
    leading term: each channel tensor is a rank-1 circular projector whose
    handedness follows the sign of the channel wavenumber."""
    return _slab_pair(p, _slab_channel, "asymptotic")


def _slab_channel_quadrature(k: float, p: SlabMotionParams, channel: str) -> np.ndarray:
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
    # quad's error estimate is checked, not dropped: QUADPACK returns ier = 0
    # only when the estimate meets max(epsabs, epsrel |I|), and scipy turns
    # every other ier into an IntegrationWarning, raised here as OracleError
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for i in range(3):
            for j in range(3):
                try:
                    re, im = (
                        quad(
                            lambda ky: part(element(ky, i, j)),
                            -ky_max,
                            ky_max,
                            epsabs=1e-13 * ref,
                            epsrel=1e-10,
                            limit=400,
                        )[0]
                        for part in (np.real, np.imag)
                    )
                except IntegrationWarning as exc:
                    raise OracleError(
                        f"channel {channel}: quadrature failed for element ({i},{j}) "
                        f"at k={k}: {exc}"
                    ) from exc
                out[i, j] = re + 1j * im
    return pref * np.exp(-2.0 * akx * z) * out


def moving_slab_quadrature_oracle(p: SlabMotionParams) -> InteractionTensorPair:
    """Independent quadrature evaluation of the moving-slab tensors.

    Serves as a test oracle for :func:`moving_slab_tensors_exact`; it shares
    no code with the Bessel-function closed form.
    """
    return _slab_pair(p, _slab_channel_quadrature)


def add_background_loss(pair: InteractionTensorPair, g00: float) -> InteractionTensorPair:
    """Add a scalar background-loss term g00 * identity to the loss tensor
    (collisions in the metal, free-space spontaneous emission)."""
    _check_positive("g00", g00, zero_ok=True)
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
    rhs = -r.imag * _ISO_SHAPE / (4.0 * np.pi * _power(2.0 * geom.z_a, 3))
    return float(np.max(np.abs(lhs - rhs)))
