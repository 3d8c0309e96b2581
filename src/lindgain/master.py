"""Thermal rates, Liouvillian superoperators, propagation and steady states.

Density matrices are vectorized row-major: (i, j) -> dim*i + j over the
declared state ordering, so vec(A rho B) = kron(A, B.T) vec(rho).  For the
two-level system this reproduces the textbook 4x4 generator layout in the
(gg, ge, eg, ee) basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig, expm

from .errors import (
    DegenerateKernelError,
    DomainError,
    NumericalInstabilityError,
    SpectralToleranceError,
    ValidationError,
)
from .greens import InteractionTensorPair
from .material import require_hermitian

TWO_LEVEL = "two_level"
V_SHAPED = "v_shaped"

KERNEL_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9
HERMITICITY_TOL = 1e-9

LABELS = {2: ("g", "e"), 3: ("g", "e1", "e2")}
TWO_LEVEL_LABELS = LABELS[2]
V_LABELS = LABELS[3]


@dataclass(frozen=True)
class QubitSpec:
    """Two-level or V-shaped qubit.  For the V-shaped structure the two
    excited states are time-reversal partners, so the second transition dipole
    is the complex conjugate of ``dipole`` by construction."""

    model: str
    dipole: np.ndarray
    omega_a: float = 1.0

    def __post_init__(self):
        if self.model not in (TWO_LEVEL, V_SHAPED):
            raise ValidationError(f"unknown qubit model {self.model!r}")
        d = np.asarray(self.dipole, dtype=complex)
        if d.shape != (3,):
            raise ValidationError("dipole must be a complex 3-vector")
        if np.linalg.norm(d) == 0:
            raise ValidationError("dipole must be nonzero")
        object.__setattr__(self, "dipole", d)
        if self.omega_a <= 0:
            raise DomainError("omega_a must be > 0")


@dataclass(frozen=True)
class ThermalOccupation:
    """Bose occupation at the transition frequency; n = 0 is zero temperature."""

    n: float

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("occupation must be >= 0")


@dataclass(frozen=True)
class RatePair:
    """Scalar loss/gain rate constants of the two-level system (units of
    the transition frequency)."""

    gamma_loss: float
    gamma_gain: float

    def __post_init__(self):
        if self.gamma_loss < 0 or self.gamma_gain < 0:
            raise DomainError("rates must be >= 0")


@dataclass(frozen=True)
class RateMatrices:
    """2x2 Kossakowski matrices of the V-shaped system; PSD is the complete
    positivity condition."""

    loss: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        for name in ("loss", "gain"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != (2, 2):
                raise ValidationError(f"{name} rate matrix must be 2x2")
            # tolerances relative to the matrix itself: rates span many decades
            norm = np.linalg.norm(m)
            require_hermitian(m, tol=1e-10 * norm)
            m = 0.5 * (m + m.conj().T)
            if np.linalg.eigvalsh(m).min() < -1e-12 * norm:
                raise ValidationError(
                    f"{name} Kossakowski matrix is not PSD: complete positivity violated"
                )
            object.__setattr__(self, name, m)


@dataclass
class Liouvillian:
    """Dense superoperator over the row-major vectorized density matrix."""

    matrix: np.ndarray
    omega_a: float

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))

    def trace_residual(self) -> float:
        """Norm of vec(I)^H L, scaled check for trace preservation."""
        tr = np.eye(self.dim, dtype=complex).reshape(-1)
        return float(np.linalg.norm(tr.conj() @ self.matrix))


def _check_states(rho: np.ndarray, times: np.ndarray | None = None):
    """Check that every state of an (n, d, d) stack is finite, Hermitian,
    unit-trace and PSD, and return the per-state trace and smallest
    eigenvalue.  The first failing state raises NumericalInstabilityError
    for the first check it fails, naming its step when ``times`` is given."""
    finite = np.isfinite(rho).all(axis=(1, 2))
    # non-finite states are zeroed so that eigvalsh runs; `finite` fails them
    safe = np.where(finite[:, None, None], rho, 0.0)
    adj = safe.conj().transpose(0, 2, 1)
    asym = np.abs(safe - adj).max(axis=(1, 2))
    trace = np.trace(safe, axis1=1, axis2=2).real
    min_eig = np.linalg.eigvalsh(0.5 * (safe + adj))[:, 0]
    # written so that NaN fails every comparison
    checks = (
        finite,
        asym <= HERMITICITY_TOL,
        np.abs(trace - 1.0) <= TRACE_TOL,
        min_eig >= -POSITIVITY_TOL,
    )
    ok = np.logical_and.reduce(checks)
    if not ok.all():
        step = int(np.argmin(ok))
        message = (
            "state has non-finite entries",
            f"state is not Hermitian: max deviation {asym[step]:.3e}",
            f"trace deviates from 1 by {abs(trace[step] - 1.0):.3e}",
            f"negative eigenvalue {min_eig[step]:.3e}",
        )[next(k for k, c in enumerate(checks) if not c[step])]
        if times is not None:
            message = f"invariant violated at step {step} (t = {times[step]:.6g}): {message}"
        raise NumericalInstabilityError(message)
    return trace, min_eig


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, PSD state with named levels, checked when built."""

    rho: np.ndarray
    labels: tuple

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (len(self.labels),) * 2:
            raise ValidationError("state shape does not match labels")
        _check_states(self.rho[None])

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min())

    def validate(self) -> "DensityMatrix":
        """Re-check the state, e.g. after ``rho`` was changed in place."""
        _check_states(self.rho[None])
        return self


@dataclass
class Trajectory:
    """States on a uniform time grid as one (n+1, d, d) array, with the trace
    and the smallest eigenvalue of each state."""

    times: np.ndarray
    rho: np.ndarray
    labels: tuple
    trace: np.ndarray
    min_eigenvalue: np.ndarray

    @functools.cached_property
    def states(self) -> list[DensityMatrix]:
        """The rows of ``rho`` as density matrices (views, built once)."""
        return [DensityMatrix(r, self.labels) for r in self.rho]


def _mix(loss, gain, occ: ThermalOccupation):
    """Bose mixing of a loss/gain pair: loss_th = (1+n) loss + n gain,
    gain_th = (1+n) gain + n loss.  Linear, so it commutes with the rate
    projection."""
    n = occ.n
    return (1.0 + n) * loss + n * gain, (1.0 + n) * gain + n * loss


def thermal_tensors(
    pair: InteractionTensorPair, occ: ThermalOccupation
) -> InteractionTensorPair:
    """Mix the zero-temperature channel tensors with the Bose occupation."""
    return InteractionTensorPair(*_mix(pair.loss, pair.gain, occ))


def thermal_rate_pair(rates: RatePair, occ: ThermalOccupation) -> RatePair:
    """Rate-level counterpart of :func:`thermal_tensors`."""
    return RatePair(*_mix(rates.gamma_loss, rates.gamma_gain, occ))


def thermal_rate_matrices(rates: RateMatrices, occ: ThermalOccupation) -> RateMatrices:
    return RateMatrices(*_mix(rates.loss, rates.gain, occ))


def _kossakowski(gammas: list, tensor: np.ndarray) -> np.ndarray:
    """Kossakowski matrix Gamma_ij = 2 gamma_i^* . tensor . gamma_j."""
    return np.array(
        [[2.0 * (gi.conj() @ tensor @ gj) for gj in gammas] for gi in gammas]
    )


def rates_two_level(q: QubitSpec, pair_th: InteractionTensorPair) -> RatePair:
    """Rate constants 2 gamma_e^* . G_th . gamma_e for both channels."""
    if q.model != TWO_LEVEL:
        raise ValidationError("rates_two_level requires a two-level qubit")
    loss, gain = (
        float(_kossakowski([q.dipole], t)[0, 0].real)
        for t in (pair_th.loss, pair_th.gain)
    )
    return RatePair(gamma_loss=loss, gamma_gain=gain)


def rate_matrices_v(q: QubitSpec, pair_th: InteractionTensorPair) -> RateMatrices:
    """Kossakowski matrices Gamma_{a,ij} = 2 gamma_i^* . G_th . gamma_j with
    gamma_1 = gamma_e and gamma_2 = gamma_e^*."""
    if q.model != V_SHAPED:
        raise ValidationError("rate_matrices_v requires a V-shaped qubit")
    gammas = [q.dipole, q.dipole.conj()]
    return RateMatrices(
        _kossakowski(gammas, pair_th.loss), _kossakowski(gammas, pair_th.gain)
    )


def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # vec(A rho B) under row-major vectorization
    return np.kron(a, b.T)


def _dissipator(j_left: np.ndarray, j_right: np.ndarray) -> np.ndarray:
    """Superoperator of J_l rho J_r - 1/2 {J_r J_l, rho}."""
    dim = j_left.shape[0]
    eye = np.eye(dim, dtype=complex)
    anti = j_right @ j_left
    return (
        _sandwich(j_left, j_right)
        - 0.5 * _sandwich(anti, eye)
        - 0.5 * _sandwich(eye, anti)
    )


@functools.cache
def _superoperators(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit superoperators of a qubit with m excited levels: the commutator
    [E, .] with the excited-level projector E, and the (m, m) stacks of loss
    dissipators D[s_j, s_i^+] and gain dissipators D[s_i^+, s_j] with the
    jump operators s_j = |g><e_j|.  Cached, hence read-only."""
    eye = np.eye(m + 1, dtype=complex)
    sm = [np.outer(eye[0], eye[j + 1]) for j in range(m)]
    sp = [s.conj().T for s in sm]
    e = np.diag([0.0] + [1.0] * m).astype(complex)
    ham = _sandwich(e, eye) - _sandwich(eye, e)
    loss = np.array([[_dissipator(sm[j], sp[i]) for j in range(m)] for i in range(m)])
    gain = np.array([[_dissipator(sp[i], sm[j]) for j in range(m)] for i in range(m)])
    for a in (ham, loss, gain):
        a.flags.writeable = False
    return ham, loss, gain


def _liouvillian(loss: np.ndarray, gain: np.ndarray, omega_a: float) -> Liouvillian:
    """Generator -i omega_a [E, .] + sum_ij loss_ij D[s_j, s_i^+]
    + gain_ij D[s_i^+, s_j] of the qubit with m = len(loss) excited levels."""
    m = len(loss)
    ham, d_loss, d_gain = _superoperators(m)
    mat = -1j * (omega_a * ham)
    for i in range(m):
        for j in range(m):
            mat += loss[i][j] * d_loss[i, j]
            mat += gain[i][j] * d_gain[i, j]
    return Liouvillian(matrix=mat, omega_a=omega_a)


def liouvillian_two_level(rates: RatePair, omega_a: float = 1.0) -> Liouvillian:
    """4x4 generator in the (gg, ge, eg, ee) basis, including the coherence
    phase terms at +-i omega_a."""
    return _liouvillian([[rates.gamma_loss]], [[rates.gamma_gain]], omega_a)


def liouvillian_v(rates: RateMatrices, omega_a: float = 1.0) -> Liouvillian:
    """9x9 generator over (g, e1, e2) row-major, with the loss Kossakowski
    matrix on the lowering terms and the gain matrix on the raising terms."""
    return _liouvillian(rates.loss, rates.gain, omega_a)


def evolve(
    L: Liouvillian, rho0: DensityMatrix, t_max: float, n_steps: int
) -> Trajectory:
    """Propagate on a uniform grid by repeated application of the exact
    step propagator expm(L dt), then check the invariants of every state."""
    if t_max <= 0:
        raise DomainError("t_max must be > 0")
    if n_steps < 2:
        raise DomainError("n_steps must be >= 2")
    dim = L.dim
    if rho0.rho.shape != (dim, dim):
        raise ValidationError("initial state dimension does not match generator")
    times = np.linspace(0.0, t_max, n_steps + 1)
    dt = times[1] - times[0]
    prop = expm(L.matrix * dt)
    vecs = np.empty((n_steps + 1, dim * dim), dtype=complex)
    vecs[0] = rho0.rho.reshape(-1)
    for step in range(1, n_steps + 1):
        vecs[step] = prop @ vecs[step - 1]
    rho = vecs.reshape(-1, dim, dim)
    return Trajectory(times, rho, LABELS[dim], *_check_states(rho, times))


def steady_state_kernel(
    L: Liouvillian, rho0: DensityMatrix | None = None
) -> tuple[DensityMatrix, int]:
    """Steady state from the null space of the generator.

    A unique kernel vector is trace-normalized directly; a degenerate kernel
    is resolved by biorthogonal projection of the required initial state onto
    the right kernel basis.
    """
    vals, vl, vr = eig(L.matrix, left=True, right=True)
    scale = np.max(np.abs(vals)) if np.max(np.abs(vals)) > 0 else 1.0
    idx = np.where(np.abs(vals) <= KERNEL_TOL * scale)[0]
    kdim = len(idx)
    dim = L.dim
    if kdim == 0:
        raise SpectralToleranceError(
            "no kernel vector found within spectral tolerance"
        )
    if kdim == 1:
        rho = vr[:, idx[0]].reshape(dim, dim)
    else:
        if rho0 is None:
            raise DegenerateKernelError(
                f"kernel dimension {kdim}: an initial state is required to "
                "select the steady state"
            )
        r = vr[:, idx]
        lmat = vl[:, idx]
        overlap = lmat.conj().T @ r
        coeff = np.linalg.solve(overlap, lmat.conj().T @ rho0.rho.reshape(-1))
        rho = (r @ coeff).reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise SpectralToleranceError("kernel state has vanishing trace")
    return DensityMatrix(rho / tr, LABELS[dim]), kdim


def steady_two_level_closed(rates: RatePair) -> DensityMatrix:
    """Closed-form mixed steady state diag(G_L, G_G) / (G_L + G_G)."""
    tot = rates.gamma_loss + rates.gamma_gain
    if tot <= 0:
        raise DomainError("both rates zero: steady state degenerate")
    rho = np.diag([rates.gamma_loss / tot, rates.gamma_gain / tot]).astype(complex)
    return DensityMatrix(rho, TWO_LEVEL_LABELS)


def steady_v_closed(rates: RateMatrices) -> DensityMatrix:
    """Closed-form steady state of the V-shaped system (non-degenerate case)."""
    gl, gg = rates.loss, rates.gain
    a = (gl[0, 0] * gl[1, 1] - gl[0, 1] * gl[1, 0]).real
    b = (
        gl[0, 0] * gg[1, 1]
        + gl[1, 1] * gg[0, 0]
        - gl[0, 1] * gg[1, 0]
        - gl[1, 0] * gg[0, 1]
    ).real
    dsum = (gl[0, 0] + gl[1, 1]).real
    scale = (np.linalg.norm(gl) + np.linalg.norm(gg)) ** 2
    if abs(a + b) <= 1e-10 * max(scale, 1e-300) or dsum <= 0:
        raise DegenerateKernelError(
            "A + B vanishes (linear-polarization degeneracy): use "
            "steady_state_kernel with an initial state"
        )
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = a / (a + b)
    rho[1, 1] = ((gg[0, 0] - gg[1, 1]).real * a + gl[1, 1].real * b) / (
        (a + b) * dsum
    )
    rho[2, 2] = ((gg[1, 1] - gg[0, 0]).real * a + gl[0, 0].real * b) / (
        (a + b) * dsum
    )
    rho[1, 2] = (2.0 * gg[0, 1] * a - gl[0, 1] * b) / ((a + b) * dsum)
    rho[2, 1] = np.conj(rho[1, 2])
    return DensityMatrix(rho, V_LABELS)


@dataclass
class LinearFamilyState:
    """Member of the one-parameter steady-state family of the
    linear-polarization V system.  ``physical`` is False when the matrix is
    not PSD (family parameter beyond pi/4)."""

    rho: np.ndarray
    theta: float
    physical: bool

    def as_density_matrix(self) -> DensityMatrix:
        return DensityMatrix(self.rho, V_LABELS)


THETA_MIN = -np.pi / 4
THETA_MAX = np.pi / 2


def steady_linear_family(theta: float, rates: RatePair) -> LinearFamilyState:
    """One-parameter family of steady states for linearly polarized dipoles.

    theta in [-pi/4, pi/2]; members beyond pi/4 have |coherence| exceeding the
    excited populations and are flagged non-physical.
    """
    if not (THETA_MIN - 1e-12 <= theta <= THETA_MAX + 1e-12):
        raise DomainError("theta outside [-pi/4, pi/2]")
    if rates.gamma_loss <= 0:
        raise DomainError("gamma_loss must be > 0")
    gl, gg = rates.gamma_loss, rates.gamma_gain
    denom = gl * np.sqrt(2.0) * np.cos(theta - np.pi / 4) + 2.0 * gg * np.cos(theta)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = gl * np.sqrt(2.0) * np.cos(theta - np.pi / 4) / denom
    rho[1, 1] = rho[2, 2] = gg * np.cos(theta) / denom
    rho[1, 2] = rho[2, 1] = gg * np.sin(theta) / denom
    physical = theta <= np.pi / 4 + 1e-12
    return LinearFamilyState(rho=rho, theta=float(theta), physical=physical)


def fit_linear_family_theta(
    rho: DensityMatrix, rates: RatePair
) -> tuple[float, float]:
    """Recover the family parameter of a linear-polarization steady state and
    the residual of the membership check."""
    p11 = rho.rho[1, 1].real
    coh = rho.rho[1, 2].real
    theta = float(np.arctan2(coh, p11))
    if not (THETA_MIN - 1e-9 <= theta <= THETA_MAX + 1e-9):
        raise ValidationError(
            "state is not a member of the linear-polarization family"
        )
    member = steady_linear_family(np.clip(theta, THETA_MIN, THETA_MAX), rates)
    residual = float(np.max(np.abs(rho.rho - member.rho)))
    return theta, residual
