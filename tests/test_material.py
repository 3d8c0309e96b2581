import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lindgain import (
    DomainError,
    DrudeParams,
    ScalarPermittivitySplit,
    SingularityError,
    ValidationError,
    drude_permittivity,
    quasistatic_reflection,
    spectral_split,
)
from lindgain.material import require_hermitian, safe_norm


def random_hermitian(rng, dim=3):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


class TestSpectralSplit:
    def test_all_positive_goes_to_loss(self):
        loss, gain = spectral_split(np.diag([0.5, 0.5, 0.5]))
        np.testing.assert_allclose(loss, np.diag([0.5, 0.5, 0.5]), atol=1e-14)
        np.testing.assert_allclose(gain, 0.0, atol=1e-14)

    def test_diagonal_split(self):
        loss, gain = spectral_split(np.diag([1.0, -0.3, 0.0]))
        np.testing.assert_allclose(loss, np.diag([1.0, 0.0, 0.0]), atol=1e-13)
        np.testing.assert_allclose(gain, np.diag([0.0, -0.3, 0.0]), atol=1e-13)

    def test_random_reconstruction_and_definiteness(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            h = random_hermitian(rng)
            loss, gain = spectral_split(h)
            np.testing.assert_allclose(loss + gain, h, atol=1e-12)
            scale = np.linalg.norm(h)
            assert np.linalg.eigvalsh(loss).min() >= -1e-12 * scale
            assert np.linalg.eigvalsh(-gain).min() >= -1e-12 * scale

    def test_idempotent_on_definite_input(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng)
        loss, _ = spectral_split(h)
        loss2, gain2 = spectral_split(loss)
        np.testing.assert_allclose(loss2, loss, atol=1e-12)
        np.testing.assert_allclose(gain2, 0.0, atol=1e-12)

    def test_non_hermitian_rejected(self):
        m = np.eye(3, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValidationError):
            spectral_split(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("check", [require_hermitian, spectral_split])
    def test_non_finite_entry_rejected(self, check, bad):
        # a NaN deviation fails every comparison, and inf - inf warns: both
        # must be caught before any arithmetic
        m = np.eye(3, dtype=complex)
        m[1, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            check(m)


@given(st.integers(0, 2**32 - 1), st.floats(-300.0, 300.0))
def test_safe_norm_at_every_scale(seed, log_scale):
    h = random_hermitian(np.random.default_rng(seed))
    s = 10.0**log_scale
    expected = [s * np.linalg.norm(h), np.linalg.norm(h), 0.0]
    np.testing.assert_allclose(safe_norm(np.array([s * h, h, 0 * h])), expected, rtol=1e-14)
    assert safe_norm(s * h) == safe_norm(np.array([s * h]))[0]


class TestToleranceScale:
    """Hermiticity and the loss/gain split are judged relative to the norm of
    the matrix, so tiny (slab) and large tensors are treated alike."""

    NOT_HERMITIAN = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    @given(st.integers(0, 2**32 - 1), st.floats(-300.0, 3.0))
    def test_split_of_scaled_hermitian(self, seed, log_scale):
        h = random_hermitian(np.random.default_rng(seed))
        m = 10.0**log_scale * h
        loss, gain = spectral_split(m)
        # the norm before scaling: np.linalg.norm underflows to 0 below 1e-154
        tol = 1e-12 * 10.0**log_scale * np.linalg.norm(h)
        np.testing.assert_allclose(loss + gain, m, rtol=0, atol=tol)
        assert np.linalg.eigvalsh(loss).min() >= -tol
        assert np.linalg.eigvalsh(gain).max() <= tol

    @given(st.integers(0, 2**32 - 1), st.floats(-300.0, 3.0))
    def test_scaled_rounding_asymmetry_accepted(self, seed, log_scale):
        h = random_hermitian(np.random.default_rng(seed))
        m = 10.0**log_scale * (h @ h)
        # an asymmetry at the rounding level of one entry
        m[0, 1] *= 1.0 + 1e-14
        require_hermitian(m)
        spectral_split(m)

    @given(st.floats(-300.0, 3.0))
    def test_scaled_non_hermitian_rejected(self, log_scale):
        m = 10.0**log_scale * self.NOT_HERMITIAN
        with pytest.raises(ValidationError, match="not Hermitian"):
            spectral_split(m)

    def test_negative_eigenvalue_of_tiny_matrix_goes_to_gain(self):
        loss, gain = spectral_split(1e-15 * np.diag([1.0, -1.0, 0.5]))
        np.testing.assert_allclose(np.diag(loss).real, [1e-15, 0.0, 0.5e-15], rtol=0, atol=1e-27)
        np.testing.assert_allclose(np.diag(gain).real, [0.0, -1e-15, 0.0], rtol=0, atol=1e-27)


class TestDrude:
    def test_effective_plasma_frequency(self):
        p = DrudeParams(omega_sp=1.3)
        assert drude_permittivity(np.sqrt(2.0) * 1.3, p) == pytest.approx(0.0)

    def test_spp_resonance(self):
        p = DrudeParams(omega_sp=0.7)
        assert drude_permittivity(0.7, p) == pytest.approx(-1.0)

    def test_direct_substitution(self):
        p = DrudeParams(omega_sp=1.0)
        assert drude_permittivity(2.0, p) == pytest.approx(0.5)
        assert drude_permittivity(2.0, p).imag == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            drude_permittivity(0.0, DrudeParams(omega_sp=1.0))
        with pytest.raises(DomainError):
            DrudeParams(omega_sp=-1.0)


class TestReflection:
    def test_vacuum_interface(self):
        assert quasistatic_reflection(1.0 + 0j) == 0.0

    def test_direct_substitution(self):
        assert quasistatic_reflection(3.0 + 0j) == pytest.approx(-0.5)

    def test_imaginary_part_formula(self):
        eps = -1.0 + 0.2j
        r = quasistatic_reflection(eps)
        assert r == pytest.approx(-1.0 - 10.0j, abs=1e-12)
        assert r.imag == pytest.approx(-2.0 * eps.imag / abs(1.0 + eps) ** 2, abs=1e-12)

    def test_imaginary_part_formula_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            eps = complex(rng.normal(), rng.normal())
            r = quasistatic_reflection(eps)
            assert r.imag == pytest.approx(
                -2.0 * eps.imag / abs(1.0 + eps) ** 2, abs=1e-12
            )

    def test_singularity(self):
        with pytest.raises(SingularityError):
            quasistatic_reflection(-1.0 + 0j)


class TestPermittivitySplit:
    def test_consistency_enforced(self):
        with pytest.raises(ValidationError):
            ScalarPermittivitySplit(eps=1.0 + 0.5j, eps_loss=0.3, eps_gain=-0.1)
        with pytest.raises(ValidationError):
            ScalarPermittivitySplit(eps=1.0 + 0.2j, eps_loss=-0.1, eps_gain=0.3)
        with pytest.raises(ValidationError):
            ScalarPermittivitySplit(eps=1.0 + 0.2j, eps_loss=0.1, eps_gain=0.1)

    def test_stability_flag(self):
        stable = ScalarPermittivitySplit(eps=1 + 0.2j, eps_loss=0.3, eps_gain=-0.1)
        assert not stable.stability_warning
        unstable = ScalarPermittivitySplit(eps=1 - 0.2j, eps_loss=0.3, eps_gain=-0.5)
        assert unstable.stability_warning
