import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kn, kve

from lindgain import (
    DomainError,
    DrudeParams,
    OutOfValidityError,
    ScalarPermittivitySplit,
    SingularityError,
    SlabMotionParams,
    SubstrateGeometry,
    add_background_loss,
    greens_identity_check,
    isotropic_gain_tensors,
    moving_slab_quadrature_oracle,
    moving_slab_tensors_asymptotic,
    moving_slab_tensors_exact,
)
from lindgain.greens import _bessel_k01

SPLIT = ScalarPermittivitySplit(eps=-1 + 0.2j, eps_loss=0.3, eps_gain=-0.1)
GEOM = SubstrateGeometry(z_a=1.0)


def bessel_k_integral(n, x):
    """Independent oracle: K_n(x) = int_0^inf exp(-x cosh t) cosh(n t) dt."""
    t_max = np.arccosh(max(50.0 / x, 2.0))
    val, _ = quad(
        lambda t: np.exp(-x * np.cosh(t)) * np.cosh(n * t),
        0.0,
        t_max + 5.0,
        epsabs=0.0,
        epsrel=1e-12,
        limit=300,
    )
    return val


def assert_hermitian_psd(t, tol=1e-12):
    """Hermitian and positive semidefinite relative to the largest entry."""
    scale = np.abs(t).max()
    np.testing.assert_allclose(t, t.conj().T, rtol=0, atol=tol * scale)
    assert np.linalg.eigvalsh(t).min() >= -tol * scale


class TestIsotropic:
    def test_reference_values(self):
        pair = isotropic_gain_tensors(SPLIT, GEOM)
        np.testing.assert_allclose(
            np.diag(pair.loss).real, [0.14921, 0.14921, 0.29842], rtol=1e-4
        )
        np.testing.assert_allclose(
            np.diag(pair.gain).real, [0.049736, 0.049736, 0.099472], rtol=1e-4
        )
        assert_hermitian_psd(pair.loss)
        assert_hermitian_psd(pair.gain)

    def test_passive_limit(self):
        split = ScalarPermittivitySplit(eps=-1 + 0.3j, eps_loss=0.3, eps_gain=0.0)
        pair = isotropic_gain_tensors(split, GEOM)
        np.testing.assert_allclose(pair.gain, 0.0, atol=1e-16)

    def test_height_scaling(self):
        near = isotropic_gain_tensors(SPLIT, SubstrateGeometry(z_a=0.5))
        far = isotropic_gain_tensors(SPLIT, SubstrateGeometry(z_a=1.0))
        np.testing.assert_allclose(near.loss, 8.0 * far.loss, rtol=1e-14)

    def test_diagonal_structure(self):
        pair = isotropic_gain_tensors(SPLIT, GEOM)
        for t in (pair.loss, pair.gain):
            assert np.allclose(t, np.diag(np.diag(t)))
            assert t[2, 2].real == pytest.approx(2.0 * t[0, 0].real, rel=1e-14)
            assert t[0, 0] == t[1, 1]

    def test_resonance_singularity(self):
        split = ScalarPermittivitySplit(eps=-1 + 0j, eps_loss=0.0, eps_gain=0.0)
        with pytest.raises(SingularityError):
            isotropic_gain_tensors(split, GEOM)

    # z_a^3 underflows to 0 at 1e-110; at 1e-104 the tensors overflow, and a
    # lossless split's would be 0 * inf
    @pytest.mark.parametrize("z_a", [1e-110, 1e-104])
    @pytest.mark.parametrize(
        "split", [SPLIT, ScalarPermittivitySplit(eps=2.0, eps_loss=0.0, eps_gain=0.0)],
        ids=["gain", "lossless"],
    )
    def test_overflow_rejected(self, split, z_a):
        with pytest.raises(DomainError, match="substrate tensors overflow"):
            isotropic_gain_tensors(split, SubstrateGeometry(z_a))

    # z_a^3, |eps + 1|^2 or a partial product of 16 pi z_a^3 |eps + 1|^2
    # overflows; zz from 40-digit mpmath, and 0 where the product overflows
    # too (its true value 3e-310 at z_a 1e103, 1e-322 at eps 1e160)
    @pytest.mark.parametrize(
        "eps, eps_gain, z_a, zz",
        [
            (-1 + 0.2j, -0.1, 1e103, 0.0),
            (1e160 + 0.2j, -0.1, 1.0, 0.0),
            (1e160 + 0.2j, -0.1, 1e-104, 1.1936620731892152e-10),
            (1e160 + 0.2j, -0.1, 1e-110, 119366207.31892148),
            (-1 + 1e-6 + 0j, -0.3, 5e102, 9.549296584964527e-299),
            (-1 + 0.2j, -0.1, 1.6e102, 7.2855351146802671e-308),
        ],
        ids=["far", "huge_eps", "huge_eps-small_z_a", "huge_eps-tiny_z_a", "near_resonance",
             "z_a=1.6e102"],
    )
    def test_overflowing_factor(self, eps, eps_gain, z_a, zz):
        split = ScalarPermittivitySplit(eps=eps, eps_loss=0.3, eps_gain=eps_gain)
        pair = isotropic_gain_tensors(split, SubstrateGeometry(z_a))
        assert pair.loss[2, 2].real == pytest.approx(zz, rel=1e-12, abs=0.0)


class TestBesselK:
    """The scaled K_0, K_1 of the moving slab: _bessel_k01(x) is
    e^x K_n(x), as scipy.special.kve gives it."""

    def test_reference_values(self):
        k = np.exp(-1.0) * _bessel_k01(1.0)
        assert k[0] == pytest.approx(0.421024438, rel=1e-9)
        assert k[1] == pytest.approx(0.601907230, rel=1e-9)

    @pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 4.0, 20.0, 100.0])
    @pytest.mark.parametrize("n", [0, 1])
    def test_against_integral_representation(self, n, x):
        k = np.exp(-x) * _bessel_k01(x)[n]
        assert k == pytest.approx(bessel_k_integral(n, x), rel=1e-10)

    @pytest.mark.parametrize("x", [20.0, 50.0, 200.0])
    @pytest.mark.parametrize("n", [0, 1])
    def test_large_argument_asymptotics(self, n, x):
        lead = np.sqrt(np.pi / (2.0 * x))
        rel = abs(_bessel_k01(x)[n] / lead - 1.0)
        assert rel <= abs(4 * n**2 - 1) / (8.0 * x) * 1.5 + 1e-12

    @pytest.mark.parametrize("n", [0, 1])
    def test_against_scipy(self, n):
        # up to the argument where the slab channel caps it
        xs = np.geomspace(0.05, 1500.0, 1501)
        scaled = np.array([_bessel_k01(x)[n] for x in xs])
        np.testing.assert_allclose(scaled, kve(n, xs), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x", [750.0, 1e3, 1e300, np.finfo(float).max])
    def test_underflow_is_zero(self, x):
        # K_n as the slab channel applies it, h (e^x K_n) h with h = e^(-x/2)
        h = np.exp(-0.5 * x)
        for n in (0, 1):
            assert h * _bessel_k01(x)[n] * h == 0.0 == kn(n, x)


SLAB = SlabMotionParams(drude=DrudeParams(2.0), v=0.2, geometry=GEOM)


class TestMovingSlabExact:
    def test_matrix_structure(self):
        pair = moving_slab_tensors_exact(SLAB)
        for t in (pair.loss, pair.gain):
            for idx in [(0, 1), (1, 0), (1, 2), (2, 1)]:
                assert t[idx] == 0.0
            assert t[0, 2] == np.conj(t[2, 0])

    def test_hermitian_psd(self):
        pair = moving_slab_tensors_exact(SLAB)
        assert_hermitian_psd(pair.loss)
        assert_hermitian_psd(pair.gain)

    def test_against_quadrature_oracle(self):
        exact = moving_slab_tensors_exact(SLAB)
        oracle = moving_slab_quadrature_oracle(SLAB)
        for e, o in [(exact.loss, oracle.loss), (exact.gain, oracle.gain)]:
            dom = np.abs(e) >= 1e-3 * np.abs(e).max()
            rel = np.abs(e - o)[dom] / np.abs(e)[dom]
            assert rel.max() <= 1e-6

    def test_handedness(self):
        # omega_a < omega_sp: loss channel moves against the slab (s = -1)
        pair = moving_slab_tensors_exact(SLAB)
        assert SLAB.k_loss < 0 < SLAB.k_gain
        assert pair.loss[0, 2].imag > 0  # -2i*s*K1 with s = -1
        assert pair.gain[0, 2].imag < 0

    def test_overflowing_argument_gives_zero(self):
        # 2|k|z_a overflows to inf, where every K_n has long underflowed to 0
        p = SlabMotionParams(drude=DrudeParams(2.0), v=0.2, geometry=SubstrateGeometry(1e308))
        for tensors in (moving_slab_tensors_exact, moving_slab_tensors_asymptotic):
            pair = tensors(p)
            assert not pair.loss.any() and not pair.gain.any()

    def test_out_of_validity(self):
        p = SlabMotionParams(drude=DrudeParams(2.0), v=100.0, geometry=GEOM)
        with pytest.raises(OutOfValidityError, match="loss"):
            moving_slab_tensors_exact(p)

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            SlabMotionParams(drude=DrudeParams(1.0), v=0.2, geometry=GEOM)


def scaled_k012(x):
    """scipy's e^x K_0, e^x K_1, e^x K_2."""
    return kve([0, 1, 2], x)


def leading_k012(x):
    """Their shared leading term sqrt(pi / 2x) (DLMF 10.40.2)."""
    return [np.sqrt(np.pi / (2.0 * x))] * 3


def split_channel(k, p, k012):
    """A channel tensor from the given e^x K_0..K_2, with e^-x applied as
    two halves h = e^(-x/2), one on each side of the prefactor."""
    x = 2.0 * abs(k) * p.geometry.z_a
    k0, k1, k2 = k012(x)
    s = np.sign(k)
    h = np.exp(-0.5 * x)
    pref = k**2 * p.drude.omega_sp / p.v / (16.0 * np.pi)
    mat = np.array([[2 * k0, 0, -2j * s * k1], [0, k2 - k0, 0], [2j * s * k1, 0, k2 + k0]])
    return (pref * h) * mat * h


@pytest.mark.parametrize(
    "tensors, k012",
    [(moving_slab_tensors_exact, scaled_k012), (moving_slab_tensors_asymptotic, leading_k012)],
    ids=["exact", "asymptotic"],
)
@given(
    st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 10.0)),
    st.floats(0.01, 0.05),
    st.floats(600.0, 745.0),
)
# z_a 3.985, gain argument 713.5
@example(omega_sp=0.9015, v=0.02124, x_gain=2.0 * (1.9015 / 0.02124) * 3.985)
def test_full_precision_near_underflow(tensors, k012, omega_sp, v, x_gain):
    # the gain argument 2 k_gain z_a in [600, 745]: beyond 708 e^-x alone is
    # subnormal, while prefactors up to 2.4e7 at small v keep entries normal
    geom = SubstrateGeometry(z_a=x_gain / (2.0 * (1.0 + omega_sp) / v))
    p = SlabMotionParams(drude=DrudeParams(omega_sp), v=v, geometry=geom)
    pair = tensors(p)
    for t, k in ((pair.loss, p.k_loss), (pair.gain, p.k_gain)):
        ref = split_channel(k, p, k012)
        np.testing.assert_allclose(t, ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())


@given(
    st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 10.0)),
    st.floats(0.01, 1.0),
    st.floats(0.1, 745.0),
)
# the loss argument 669.3, where K_2 - K_0 lost 2.1e-13 to cancellation
@example(omega_sp=2.0, v=0.02, x_loss=669.3)
def test_yy_entry_is_the_recurrence(omega_sp, v, x_loss):
    # the yy entry is e^-x (K_2 - K_0) = 2 e^-x K_1 / x (DLMF 10.29.1) times
    # the prefactor, checked where it is a normal number
    k_loss = (1.0 - omega_sp) / v
    geom = SubstrateGeometry(z_a=x_loss / (2.0 * abs(k_loss)))
    p = SlabMotionParams(drude=DrudeParams(omega_sp), v=v, geometry=geom)
    x = 2.0 * abs(p.k_loss) * geom.z_a
    h = np.exp(-0.5 * x)
    pref = p.k_loss**2 * omega_sp / v / (16.0 * np.pi)
    ref = (pref * h) * (2.0 * kve(1, x) / x) * h
    assume(x >= 0.1 and ref >= np.finfo(float).tiny)
    yy = moving_slab_tensors_exact(p).loss[1, 1]
    assert yy.imag == 0.0
    assert yy.real == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "tensors",
    [moving_slab_tensors_exact, moving_slab_tensors_asymptotic],
    ids=["exact", "asymptotic"],
)
def test_prefactor_overflow_rejected(tensors):
    # k_loss = -1e160: k^2 overflows, though 2|k|z_a = 2e10 is finite
    p = SlabMotionParams(drude=DrudeParams(2.0), v=1e-160, geometry=SubstrateGeometry(1e-150))
    with pytest.raises(DomainError, match="prefactor"):
        tensors(p)


def test_tensor_overflow_near_least_argument_rejected():
    # the prefactor 1.8e306 is finite, but the loss tensor at 2|k|z_a = 0.1,
    # where e^x (K_0 + K_2) is about 223, is not
    p = SlabMotionParams(
        drude=DrudeParams(100.0), v=2.2e-101,
        geometry=SubstrateGeometry(1.1122222222222221e-104),
    )
    with pytest.raises(DomainError, match="channel loss: prefactor"):
        moving_slab_tensors_exact(p)


def circular_projector(k, p):
    """The asymptotic channel tensor written as a projector: g0 u u^H with
    g0 = k^2 omega_sp / (8 pi v) sqrt(pi / (|k| z_a)) e^(-2|k|z_a) and
    u = (1, 0, i sign k) / sqrt(2)."""
    z = p.geometry.z_a
    g0 = k**2 * p.drude.omega_sp / (8.0 * np.pi * p.v)
    g0 *= np.sqrt(np.pi / (abs(k) * z)) * np.exp(-2.0 * abs(k) * z)
    u = np.array([1.0, 0.0, 1j * np.sign(k)]) / np.sqrt(2.0)
    return g0 * np.outer(u, u.conj())


class TestMovingSlabAsymptotic:
    @given(
        st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 10.0)),
        st.floats(0.01, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_is_the_circular_projector(self, omega_sp, v, f):
        # omega_sp on both sides of omega_a = 1 gives k_loss of both signs;
        # the loss argument 2|k_loss|z_a is drawn so that both channels lie
        # in [5.5, 600], above the least argument and clear of subnormals
        k_loss, k_gain = (1.0 - omega_sp) / v, (1.0 + omega_sp) / v
        x_loss = 5.5 + f * (600.0 * abs(k_loss) / k_gain - 5.5)
        geom = SubstrateGeometry(z_a=x_loss / (2.0 * abs(k_loss)))
        p = SlabMotionParams(drude=DrudeParams(omega_sp), v=v, geometry=geom)
        pair = moving_slab_tensors_asymptotic(p)
        for t, k in ((pair.loss, p.k_loss), (pair.gain, p.k_gain)):
            np.testing.assert_allclose(t, circular_projector(k, p), rtol=1e-14, atol=0)

    def test_rank_one(self):
        pair = moving_slab_tensors_asymptotic(SLAB)
        for t in (pair.loss, pair.gain):
            vals = np.sort(np.abs(np.linalg.eigvalsh(t)))
            assert vals[-2] <= 1e-12 * vals[-1]

    def test_gain_eigenvector_circular(self):
        pair = moving_slab_tensors_asymptotic(SLAB)
        vals, vecs = np.linalg.eigh(pair.gain)
        v = vecs[:, np.argmax(vals)]
        target = np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0)
        overlap = abs(np.vdot(target, v))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_agreement_with_exact(self):
        # loss channel argument 2|k_L|z_a = 50
        p50 = SlabMotionParams(drude=DrudeParams(2.0), v=0.04, geometry=GEOM)
        assert 2 * abs(p50.k_loss) * 1.0 == pytest.approx(50.0)
        ex, asym = moving_slab_tensors_exact(p50), moving_slab_tensors_asymptotic(p50)
        dom = np.abs(ex.loss) >= 0.1 * np.abs(ex.loss).max()
        rel = np.abs(ex.loss - asym.loss)[dom] / np.abs(ex.loss)[dom]
        assert rel.max() <= 0.02
        # argument 20: within 10%
        p20 = SlabMotionParams(drude=DrudeParams(2.0), v=0.1, geometry=GEOM)
        ex, asym = moving_slab_tensors_exact(p20), moving_slab_tensors_asymptotic(p20)
        dom = np.abs(ex.loss) >= 0.1 * np.abs(ex.loss).max()
        rel = np.abs(ex.loss - asym.loss)[dom] / np.abs(ex.loss)[dom]
        assert rel.max() <= 0.10

    def test_out_of_validity(self):
        p = SlabMotionParams(drude=DrudeParams(2.0), v=1.0, geometry=GEOM)
        with pytest.raises(OutOfValidityError):
            moving_slab_tensors_asymptotic(p)


class TestBackgroundLoss:
    def test_zero_passthrough(self):
        pair = moving_slab_tensors_exact(SLAB)
        shifted = add_background_loss(pair, 0.0)
        np.testing.assert_array_equal(shifted.loss, pair.loss)
        np.testing.assert_array_equal(shifted.gain, pair.gain)

    def test_scalar_shift(self):
        pair = moving_slab_tensors_asymptotic(SLAB)
        shifted = add_background_loss(pair, 0.05)
        np.testing.assert_allclose(shifted.loss - pair.loss, 0.05 * np.eye(3))
        np.testing.assert_array_equal(shifted.gain, pair.gain)
        # rank-1 chiral eigenvector survives the scalar shift
        _, vecs0 = np.linalg.eigh(pair.loss)
        _, vecs1 = np.linalg.eigh(shifted.loss)
        assert abs(np.vdot(vecs0[:, -1], vecs1[:, -1])) == pytest.approx(1.0, abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            add_background_loss(moving_slab_tensors_exact(SLAB), -0.1)


class TestIdentity:
    def test_reference_case(self):
        assert greens_identity_check(SPLIT, GEOM) <= 1e-14

    def test_passive_case(self):
        split = ScalarPermittivitySplit(eps=2 + 0.4j, eps_loss=0.4, eps_gain=0.0)
        assert greens_identity_check(split, GEOM) <= 1e-14

    def test_height_invariance(self):
        pair = isotropic_gain_tensors(SPLIT, GEOM)
        scale = np.abs(pair.loss - pair.gain).max()
        for z in (0.3, 1.0, 7.5):
            geom = SubstrateGeometry(z_a=z)
            norm = scale / z**3
            assert greens_identity_check(SPLIT, geom) <= 1e-12 * norm

    def test_far_substrate(self):
        # (2 z_a)^3 overflows a double, and both sides are below the least
        # normal double
        assert greens_identity_check(SPLIT, SubstrateGeometry(4e102)) < np.finfo(float).tiny


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: SubstrateGeometry(z_a=x),
        lambda x: DrudeParams(omega_sp=x),
        lambda x: SlabMotionParams(drude=DrudeParams(2.0), v=x, geometry=GEOM),
        lambda x: SlabMotionParams(drude=DrudeParams(2.0), v=0.2, geometry=GEOM, g00=x),
        lambda x: SlabMotionParams(drude=DrudeParams(2.0), v=0.2, geometry=GEOM, omega_a=x),
        lambda x: add_background_loss(moving_slab_tensors_exact(SLAB), x),
    ],
    ids=["z_a", "omega_sp", "v", "g00", "omega_a", "background_g00"],
)
def test_non_finite_parameters_rejected(build, bad):
    with pytest.raises(DomainError, match="finite"):
        build(bad)
