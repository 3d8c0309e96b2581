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
    quasistatic_reflection,
)
from lindgain.material import safe_norm


def random_hermitian(rng, dim=3):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


@given(st.integers(0, 2**32 - 1), st.floats(-300.0, 300.0))
def test_safe_norm_at_every_scale(seed, log_scale):
    h = random_hermitian(np.random.default_rng(seed))
    s = 10.0**log_scale
    expected = [s * np.linalg.norm(h), np.linalg.norm(h), 0.0]
    np.testing.assert_allclose(safe_norm(np.array([s * h, h, 0 * h])), expected, rtol=1e-14)
    assert safe_norm(s * h) == safe_norm(np.array([s * h]))[0]


class TestDrude:
    def test_domain_error(self):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field, message",
        [
            ("eps_loss", "eps_loss must be >= 0"),
            ("eps_gain", "eps_gain must be <= 0"),
            ("eps_re", "eps must be finite"),
            ("eps_im", "eps must be finite"),
        ],
    )
    def test_non_finite_rejected(self, field, message, bad):
        values = {"eps_re": -1.0, "eps_im": 0.2, "eps_loss": 0.3, "eps_gain": -0.1, field: bad}
        with pytest.raises(ValidationError, match=message):
            ScalarPermittivitySplit(
                eps=complex(values["eps_re"], values["eps_im"]),
                eps_loss=values["eps_loss"],
                eps_gain=values["eps_gain"],
            )

    def test_stability_flag(self):
        stable = ScalarPermittivitySplit(eps=1 + 0.2j, eps_loss=0.3, eps_gain=-0.1)
        assert not stable.stability_warning
        unstable = ScalarPermittivitySplit(eps=1 - 0.2j, eps_loss=0.3, eps_gain=-0.5)
        assert unstable.stability_warning
