import numpy as np
import pytest

from lindgain import (
    DomainError,
    ScalarPermittivitySplit,
    SubstrateGeometry,
    field_spectrum,
    isotropic_gain_tensors,
    noise_current_spectrum,
    quasistatic_reflection,
)

GEOM = SubstrateGeometry(z_a=1.0)
SPLIT = ScalarPermittivitySplit(eps=-1 + 0.2j, eps_loss=0.3, eps_gain=-0.1)


class TestFieldSpectrum:
    def test_passive_limit_matches_reflection_form(self):
        split = ScalarPermittivitySplit(eps=2 + 0.4j, eps_loss=0.4, eps_gain=0.0)
        pt = field_spectrum(split, GEOM, omega=1.0, n_omega=0.7)
        # passive form: (2/pi)(n + 1/2) (G - G^H)/2i from the image reflection
        r = quasistatic_reflection(split.eps)
        anti = -r.imag * np.diag([1.0, 1.0, 2.0]) / (4 * np.pi * (2 * GEOM.z_a) ** 3)
        expect = (2.0 / np.pi) * (0.7 + 0.5) * anti
        np.testing.assert_allclose(pt, expect, atol=1e-10)

    def test_zero_point_factor(self):
        pt = field_spectrum(SPLIT, GEOM, omega=1.0, n_omega=0.0)
        pair = isotropic_gain_tensors(SPLIT, GEOM)
        expect = (2.0 / np.pi) * 0.5 * (pair.loss + pair.gain)
        np.testing.assert_allclose(pt, expect, atol=1e-15)

    def test_linear_in_occupation(self):
        a = field_spectrum(SPLIT, GEOM, 1.0, 0.25)  # n + 1/2 = 0.75
        b = field_spectrum(SPLIT, GEOM, 1.0, 1.0)  # n + 1/2 = 1.5
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-13)

    def test_hermitian_psd(self):
        pt = field_spectrum(SPLIT, GEOM, 1.0, 0.3)
        np.testing.assert_allclose(pt, pt.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(pt).min() >= 0.0

    def test_consistency_with_identity(self):
        # subtracting twice the gain part recovers the loss-minus-gain form
        pair = isotropic_gain_tensors(SPLIT, GEOM)
        pt = field_spectrum(SPLIT, GEOM, 1.0, 0.4)
        pref = (2.0 / np.pi) * (0.4 + 0.5)
        lhs = pt - 2.0 * pref * pair.gain
        r = quasistatic_reflection(SPLIT.eps)
        rhs = (
            pref
            * -r.imag
            * np.diag([1.0, 1.0, 2.0])
            / (4 * np.pi * (2 * GEOM.z_a) ** 3)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            field_spectrum(SPLIT, GEOM, -1.0, 0.0)
        with pytest.raises(DomainError):
            field_spectrum(SPLIT, GEOM, 1.0, -0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arguments_rejected(self, bad):
        with pytest.raises(DomainError, match="omega must be finite"):
            field_spectrum(SPLIT, GEOM, bad, 0.0)
        with pytest.raises(DomainError, match="occupation must be finite"):
            field_spectrum(SPLIT, GEOM, 1.0, bad)


class TestNoiseCurrentSpectrum:
    def test_zero_medium(self):
        split = ScalarPermittivitySplit(eps=2 + 0j, eps_loss=0.0, eps_gain=0.0)
        np.testing.assert_allclose(noise_current_spectrum(split, 1.0, 0.0), 0.0)

    def test_reference_value(self):
        out = noise_current_spectrum(SPLIT, omega=1.0, n_omega=0.0)
        np.testing.assert_allclose(out, (0.4 / np.pi) * np.eye(3), rtol=1e-12)
        assert out[0, 0] == pytest.approx(0.12732, rel=1e-4)

    def test_gain_increases_noise(self):
        passive = ScalarPermittivitySplit(eps=1 + 0.3j, eps_loss=0.3, eps_gain=0.0)
        active = ScalarPermittivitySplit(eps=1 + 0.1j, eps_loss=0.3, eps_gain=-0.2)
        np_passive = noise_current_spectrum(passive, 1.0, 0.0)
        np_active = noise_current_spectrum(active, 1.0, 0.0)
        # net absorption is smaller with gain, yet the noise is larger
        assert active.eps.imag < passive.eps.imag
        assert np_active[0, 0] > np_passive[0, 0]

    def test_frequency_scaling(self):
        a = noise_current_spectrum(SPLIT, 1.0, 0.0)
        b = noise_current_spectrum(SPLIT, 2.0, 0.0)
        np.testing.assert_allclose(b, 4.0 * a, rtol=1e-13)

    @pytest.mark.parametrize("omega, n_omega", [
        (-1.0, 0.0), (1.0, -0.5), (np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_domain_errors(self, omega, n_omega):
        with pytest.raises(DomainError):
            noise_current_spectrum(SPLIT, omega, n_omega)
