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

from .errors import (
    DegenerateKernelError,
    DomainError,
    NumericalInstabilityError,
    SpectralToleranceError,
    ValidationError,
    _check_positive,
)
from .greens import InteractionTensorPair
from .material import safe_norm

TWO_LEVEL = "two_level"
V_SHAPED = "v_shaped"

KERNEL_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9
HERMITICITY_TOL = 1e-9
_TINY = np.finfo(float).tiny

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
        if not d.any():
            raise ValidationError("dipole must be nonzero")
        object.__setattr__(self, "dipole", d)
        _check_positive("omega_a", self.omega_a)

    @property
    def dipoles(self) -> list[np.ndarray]:
        """Transition dipoles of the m excited levels: [d] for the two-level
        qubit (m = 1), [d, d^*] for the V-shaped one (m = 2)."""
        return [self.dipole] if self.model == TWO_LEVEL else [self.dipole, self.dipole.conj()]


@dataclass(frozen=True)
class ThermalOccupation:
    """Bose occupation at the transition frequency; n = 0 is zero temperature."""

    n: float

    def __post_init__(self):
        _check_positive("occupation", self.n, zero_ok=True)


@dataclass(frozen=True)
class RateMatrices:
    """(m, m) Kossakowski matrices of a qubit with m = 1 or 2 excited levels;
    PSD is the complete positivity condition."""

    loss: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.loss)
        if shape not in ((1, 1), (2, 2)) or np.shape(self.gain) != shape:
            raise ValidationError("rate matrices must both be 1x1 or both 2x2")
        # one stack, each matrix relative to its own norm: rates span many decades
        mats = np.array([self.loss, self.gain], dtype=complex)
        # before any arithmetic: NaN fails no comparison below
        if not np.isfinite(mats).all():
            name = "gain" if np.isfinite(mats[0]).all() else "loss"
            raise ValidationError(f"{name} rate matrix has non-finite entries")
        adj = mats.conj().transpose(0, 2, 1)
        # a subnormal norm is judged as the least normal one, where 1e-10
        # of it is still above the rounding of subnormal entries
        norm = np.maximum(safe_norm(mats), _TINY)
        asym = np.abs(mats - adj).max(axis=(1, 2))
        mats = 0.5 * (mats + adj)
        min_eig = np.linalg.eigvalsh(mats)[:, 0]
        for k, name in enumerate(("loss", "gain")):
            if asym[k] > 1e-10 * norm[k]:
                raise ValidationError(
                    f"{name} rate matrix is not Hermitian: max deviation {asym[k]:.3e}"
                )
            if min_eig[k] < -1e-12 * norm[k]:
                raise ValidationError(
                    f"{name} Kossakowski matrix is not PSD: complete positivity violated"
                )
            object.__setattr__(self, name, mats[k])

    @property
    def m(self) -> int:
        """Number of excited levels."""
        return len(self.loss)


class RatePair(RateMatrices):
    """The 1x1 :class:`RateMatrices` of the two-level system, built from the
    scalar loss/gain rate constants (units of the transition frequency)."""

    def __init__(self, gamma_loss, gamma_gain):
        # a number or a 1x1 array, so that thermal() can rebuild one
        super().__init__(np.reshape(gamma_loss, (1, 1)), np.reshape(gamma_gain, (1, 1)))


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


@dataclass
class Trajectory:
    """States on a uniform time grid as one (n+1, d, d) array, with the trace
    and the smallest eigenvalue of each state."""

    times: np.ndarray
    rho: np.ndarray
    labels: tuple
    trace: np.ndarray
    min_eigenvalue: np.ndarray


def thermal(pair, occ: ThermalOccupation):
    """Mix the zero-temperature loss/gain pair with the Bose occupation:
    loss_th = (1+n) loss + n gain, gain_th = (1+n) gain + n loss.  Takes and
    returns an :class:`InteractionTensorPair`, :class:`RateMatrices` or
    :class:`RatePair`; linear, so it commutes with :func:`rate_matrices`."""
    n = occ.n
    loss, gain = pair.loss, pair.gain
    return type(pair)((1.0 + n) * loss + n * gain, (1.0 + n) * gain + n * loss)


def rate_matrices(q: QubitSpec, pair: InteractionTensorPair) -> RateMatrices:
    """Kossakowski matrices Gamma_{a,ij} = 2 gamma_i^* . G_a . gamma_j over
    the transition dipoles gamma_i of the qubit, (m, m) for m excited levels."""
    g = q.dipoles
    loss, gain = (
        np.array([[2.0 * (gi.conj() @ t @ gj) for gj in g] for gi in g])
        for t in (pair.loss, pair.gain)
    )
    return RateMatrices(loss, gain)


def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # vec(A rho B) under row-major vectorization
    return np.kron(a, b.T)


def _dissipator(j_left: np.ndarray, j_right: np.ndarray) -> np.ndarray:
    """Superoperator of J_l rho J_r - 1/2 {J_r J_l, rho}."""
    eye = np.eye(len(j_left), dtype=complex)
    anti = j_right @ j_left
    return _sandwich(j_left, j_right) - 0.5 * _sandwich(anti, eye) - 0.5 * _sandwich(eye, anti)


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


def liouvillian(rates: RateMatrices, omega_a: float = 1.0) -> np.ndarray:
    """Generator -i omega_a [E, .] + sum_ij loss_ij D[s_j, s_i^+]
    + gain_ij D[s_i^+, s_j] of the qubit with m = rates.m excited levels, as
    a complex (d^2, d^2) array over the row-major vectorized state, d = m + 1."""
    _check_positive("omega_a", omega_a)
    ham, d_loss, d_gain = _superoperators(rates.m)
    mat = -1j * (omega_a * ham)
    for i in range(rates.m):
        for j in range(rates.m):
            mat += rates.loss[i, j] * d_loss[i, j]
            mat += rates.gain[i, j] * d_gain[i, j]
    return mat


def _state_dim(L: np.ndarray) -> int:
    """d of a (d^2, d^2) generator over the states of a qubit model."""
    for dim in LABELS:
        if np.shape(L) == (dim * dim,) * 2:
            return dim
    raise ValidationError(f"generator must be 4x4 or 9x9, got shape {np.shape(L)}")


def trace_residual(L: np.ndarray) -> float:
    """Norm of vec(I)^H L, scaled check for trace preservation."""
    tr = np.eye(_state_dim(L), dtype=complex).reshape(-1)
    return float(np.linalg.norm(tr.conj() @ L))


def evolve(
    L: np.ndarray, rho0: DensityMatrix, t_max: float, n_steps: int
) -> Trajectory:
    """Propagate on a uniform grid by repeated application of the exact
    step propagator expm(L dt), then check the invariants of every state."""
    # the only scipy this package loads outside its quadrature oracle
    from scipy.linalg import expm

    _check_positive("t_max", t_max)
    if n_steps < 2:
        raise DomainError("n_steps must be >= 2")
    dim = _state_dim(L)
    if rho0.rho.shape != (dim, dim):
        raise ValidationError("initial state dimension does not match generator")
    times = np.linspace(0.0, t_max, n_steps + 1)
    dt = times[1] - times[0]
    prop = expm(L * dt)
    vecs = np.empty((n_steps + 1, dim * dim), dtype=complex)
    vecs[0] = rho0.rho.reshape(-1)
    for step in range(1, n_steps + 1):
        vecs[step] = prop @ vecs[step - 1]
    rho = vecs.reshape(-1, dim, dim)
    return Trajectory(times, rho, LABELS[dim], *_check_states(rho, times))


@functools.cache
def _zero_frequency_block(dim: int) -> tuple[np.ndarray, ...]:
    """Where the kernel of a generator over d x d states lies.  The
    commutator [E, .] is diagonal, and every dissipator commutes with it
    because all excited levels share one frequency, so the kernel lies in
    its zero-frequency block: the entries of the state whose two levels are
    both ground or both excited.  Returns the block's indices in the
    vectorized state, the indices of the block's entries in the flattened
    generator, the trace row vec(I) on the block, and the indices of the
    generator entries that couple the block to the rest.  Cached, hence
    read-only."""
    zero = np.diag(_superoperators(dim - 1)[0]) == 0
    block = np.flatnonzero(zero)
    entries = (block[:, None] * dim**2 + block).reshape(-1)
    trace_row = np.eye(dim).reshape(-1)[block]
    coupling = np.flatnonzero(zero[:, None] != zero[None, :])
    out = (block, entries, trace_row, coupling)
    for a in out:
        a.flags.writeable = False
    return out


def _kernel_states(Ls: np.ndarray, rho0: DensityMatrix | None) -> tuple[np.ndarray, np.ndarray]:
    """The work of :func:`steady_states`, without the state check."""
    Ls = np.asarray(Ls)
    if Ls.ndim == 0 or len(Ls) == 0:
        raise ValidationError(f"generators must be a nonempty stack, got shape {Ls.shape}")
    n, dim = len(Ls), _state_dim(Ls[0])
    if rho0 is not None and rho0.rho.shape != (dim, dim):
        raise ValidationError("initial state dimension does not match generator")
    flat = Ls.reshape(n, -1)
    if not np.isfinite(flat).all():
        raise NumericalInstabilityError("generator has non-finite entries")
    block, entries, trace_row, coupling = _zero_frequency_block(dim)
    if flat[:, coupling].any():
        raise NumericalInstabilityError(
            "generator couples the zero-frequency block to the rest: "
            "the excited levels do not share one frequency"
        )
    k = len(block)
    blocks = flat[:, entries].reshape(n, k, k)
    sv = np.linalg.svd(blocks, compute_uv=False)
    kdims = (sv <= KERNEL_TOL * sv[:, :1]).sum(axis=1)
    if not kdims.all():
        raise SpectralToleranceError("no kernel vector found within spectral tolerance")
    unique = kdims == 1
    vecs = np.zeros((n, k), dtype=complex)
    eqs = blocks[unique]
    if len(eqs):
        # the trace condition replaces the population equation of g, which
        # trace preservation makes redundant
        eqs[:, 0] = trace_row
        rhs = np.zeros((len(eqs), k, 1))
        rhs[:, 0] = 1.0
        # a 3-d right-hand side: numpy 2 reads a 2-d one differently from 1.x
        try:
            vecs[unique] = np.linalg.solve(eqs, rhs)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SpectralToleranceError("kernel state has vanishing trace") from exc
    for i in np.flatnonzero(~unique):
        if rho0 is None:
            raise DegenerateKernelError(
                f"kernel dimension {kdims[i]}: an initial state is required to "
                "select the steady state"
            )
        # singular vectors only where they are needed
        u, _, vh = np.linalg.svd(blocks[i])
        right = vh[-kdims[i]:].conj().T
        conserved = u[:, -kdims[i]:].conj().T
        vec = right @ np.linalg.solve(conserved @ right, conserved @ rho0.rho.reshape(-1)[block])
        tr = (trace_row @ vec).real
        if abs(tr) < 1e-14:
            raise SpectralToleranceError("kernel state has vanishing trace")
        vecs[i] = vec / tr
    rho = np.zeros((n, dim * dim), dtype=complex)
    rho[:, block] = vecs
    rho = rho.reshape(n, dim, dim)
    return 0.5 * (rho + rho.conj().transpose(0, 2, 1)), kdims


def steady_states(
    Ls: np.ndarray, rho0: DensityMatrix | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Steady states of an (n, d^2, d^2) stack of generators, as an
    (n, d, d) array, and the (n,) kernel dimensions.

    Only the zero-frequency block of each generator is solved, so omega_a
    plays no part.  A singular value of the block counts as kernel when it
    is at most KERNEL_TOL times the largest, a scale set by the dissipative
    rates alone; an all-zero block is all kernel.  A unique kernel is solved
    with the trace condition in place of one equation, in one stacked solve
    for all such points.  A degenerate kernel needs ``rho0``, or raises
    DegenerateKernelError: its conserved quantities, the left singular
    vectors, fix the coefficients of the right ones (biorthogonal
    projection).  The states are checked as a :class:`DensityMatrix` is.
    """
    rho, kdims = _kernel_states(Ls, rho0)
    _check_states(rho)
    return rho, kdims


def steady_state_kernel(
    L: np.ndarray, rho0: DensityMatrix | None = None
) -> tuple[DensityMatrix, int]:
    """Steady state of one generator and its kernel dimension: the n = 1
    case of :func:`steady_states`, checked once, as the DensityMatrix it is."""
    rho, kdims = _kernel_states(np.asarray(L)[None], rho0)
    return DensityMatrix(rho[0], LABELS[len(rho[0])]), int(kdims[0])


def steady_two_level_closed(rates: RateMatrices) -> DensityMatrix:
    """Closed-form mixed steady state diag(G_L, G_G) / (G_L + G_G), 1x1 rates."""
    if rates.m != 1:
        raise ValidationError(f"steady_two_level_closed needs 1x1 rates, got {rates.m}x{rates.m}")
    gl, gg = rates.loss[0, 0].real, rates.gain[0, 0].real
    tot = gl + gg
    if tot <= 0:
        raise DomainError("both rates zero: steady state degenerate")
    rho = np.diag([gl / tot, gg / tot]).astype(complex)
    return DensityMatrix(rho, TWO_LEVEL_LABELS)


def steady_v_closed(rates: RateMatrices) -> DensityMatrix:
    """Closed-form steady state of the V-shaped system (non-degenerate case)."""
    if rates.m != 2:
        raise ValidationError(f"steady_v_closed needs 2x2 rates, got {rates.m}x{rates.m}")
    # the state depends on rate ratios only: rates scaled to a unit sum of
    # norms keep every product below from underflowing
    scale = safe_norm(rates.loss) + safe_norm(rates.gain) or 1.0
    gl, gg = rates.loss / scale, rates.gain / scale
    a = (gl[0, 0] * gl[1, 1] - gl[0, 1] * gl[1, 0]).real
    b = (
        gl[0, 0] * gg[1, 1]
        + gl[1, 1] * gg[0, 0]
        - gl[0, 1] * gg[1, 0]
        - gl[1, 0] * gg[0, 1]
    ).real
    dsum = (gl[0, 0] + gl[1, 1]).real
    if abs(a + b) <= 1e-10 or dsum <= 0:
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


THETA_MIN = -np.pi / 4
THETA_MAX = np.pi / 2


def linear_family_rates(rates: RateMatrices) -> tuple[float, float] | None:
    """The scalar loss/gain rates (gl, gg) of the linear-polarization family,
    or None when the rates are not in it.  Each rate matrix must be a real
    scalar times the all-ones matrix, relative to its own norm (1x1 rates
    always are), and gl > 0."""
    scalars = []
    for m in (rates.loss, rates.gain):
        a = float(m[0, 0].real)
        if safe_norm(m - a) > 1e-10 * safe_norm(m):
            return None
        scalars.append(a)
    return tuple(scalars) if scalars[0] > 0 else None


def steady_linear_family(theta: float, rates: RateMatrices) -> np.ndarray:
    """Member of the one-parameter family of steady states for linearly
    polarized dipoles, as a complex (3, 3) array.

    ``rates`` are the V-shaped family rates or the 1x1 rates of their scalars
    (see :func:`linear_family_rates`); other rates raise ValidationError.
    theta in [-pi/4, pi/2]; members beyond pi/4 have |coherence| exceeding
    the excited populations, so :class:`DensityMatrix` rejects them.
    """
    if not (THETA_MIN - 1e-12 <= theta <= THETA_MAX + 1e-12):
        raise DomainError("theta outside [-pi/4, pi/2]")
    scalars = linear_family_rates(rates)
    if scalars is None:
        raise ValidationError("rates are not in the linear-polarization family")
    gl, gg = scalars
    denom = gl * np.sqrt(2.0) * np.cos(theta - np.pi / 4) + 2.0 * gg * np.cos(theta)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = gl * np.sqrt(2.0) * np.cos(theta - np.pi / 4) / denom
    rho[1, 1] = rho[2, 2] = gg * np.cos(theta) / denom
    rho[1, 2] = rho[2, 1] = gg * np.sin(theta) / denom
    return rho


def fit_linear_family_theta(
    rho: DensityMatrix, rates: RateMatrices
) -> tuple[float, float]:
    """Recover the family parameter of a linear-polarization steady state and
    the residual of the membership check."""
    dim = len(rho.rho)
    if dim != 3:
        raise ValidationError(f"fit_linear_family_theta needs a 3x3 state, got {dim}x{dim}")
    p11 = rho.rho[1, 1].real
    coh = rho.rho[1, 2].real
    theta = float(np.arctan2(coh, p11))
    if not (THETA_MIN - 1e-9 <= theta <= THETA_MAX + 1e-9):
        raise ValidationError(
            "state is not a member of the linear-polarization family"
        )
    member = steady_linear_family(np.clip(theta, THETA_MIN, THETA_MAX), rates)
    residual = float(np.max(np.abs(rho.rho - member)))
    return theta, residual
